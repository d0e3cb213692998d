/**
 * @file
 * Variable-length integer and delta-compression primitives for the
 * trace format (workload/trace_io.hh, on-disk format v3).
 *
 * The paper's thesis — value streams exhibit global *stride*
 * locality — applies just as well to our own storage: a column whose
 * consecutive elements differ by a (near-)constant stride collapses
 * to almost nothing once it is delta-encoded and the deltas are
 * run-length coded. Three column codecs exploit that, in increasing
 * order of specialisation:
 *
 *   deltaVarint  zigzag(v[i] - v[i-1]) as LEB128 varints — dense
 *                changes of small magnitude (values that wander);
 *   deltaRle     (zigzag-varint delta, varint run-length) pairs — a
 *                constant-stride column of any length becomes one
 *                pair, a loop with a periodic delta pattern becomes
 *                one pair per distinct run;
 *   byteRle      (byte, varint run-length) pairs for u8 columns
 *                (flags/opcode columns with long constant runs).
 *
 * Every decoder is a hardened parser: it never reads past the input
 * span, never writes more than the declared element count, and
 * reports malformed input (truncated varints, overlong varints, run
 * counts that disagree with the element count, trailing bytes) by
 * returning false instead of crashing. trace_io's corruption-fuzz
 * battery (tests/test_trace_v3.cc) polices this under ASan/UBSan.
 *
 * Delta arithmetic is done in uint64_t so wraparound is well-defined;
 * signed columns are reinterpreted as two's-complement lanes by the
 * caller.
 */

#ifndef GDIFF_UTIL_VARINT_HH
#define GDIFF_UTIL_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gdiff {
namespace codec {

/// longest LEB128 encoding of a uint64_t
inline constexpr size_t maxVarintBytes = 10;

/** Map a signed value to an unsigned one with small absolute values
 *  staying small (zigzag: 0,-1,1,-2,2 → 0,1,2,3,4). */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode(). */
inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^
           -static_cast<int64_t>(v & 1);
}

/** Append the LEB128 encoding of @p v to @p out. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * Decode one LEB128 varint from [p, end).
 *
 * @return bytes consumed, or 0 when the input is truncated or the
 * encoding is overlong (more than maxVarintBytes, or bit 64+ set).
 */
inline size_t
getVarint(const uint8_t *p, const uint8_t *end, uint64_t *out)
{
    // Fast paths: deltas in stride-local streams are small, so one-
    // and two-byte encodings dominate every hot decode loop.
    if (p < end && !(p[0] & 0x80)) {
        *out = p[0];
        return 1;
    }
    if (end - p >= 2 && !(p[1] & 0x80)) {
        *out = static_cast<uint64_t>(p[0] & 0x7f) |
               static_cast<uint64_t>(p[1]) << 7;
        return 2;
    }
    uint64_t v = 0;
    unsigned shift = 0;
    for (size_t i = 0; p + i < end && i < maxVarintBytes; ++i) {
        uint8_t byte = p[i];
        if (shift == 63 && (byte & 0x7e))
            return 0; // would set bits past 63
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            *out = v;
            return i + 1;
        }
        shift += 7;
    }
    return 0;
}

/// @name FNV-1a 64-bit (corruption digests for trace blocks/files)
/// @{
inline constexpr uint64_t fnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t fnvPrime = 1099511628211ull;

/** Fold @p bytes bytes into a running FNV-1a digest @p h. */
inline uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h = fnvOffsetBasis)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

/**
 * Fold the same @p bytes bytes into two running FNV-1a digests in one
 * pass: afterwards *@p a == fnv1a(data, bytes, a0) and *@p b ==
 * fnv1a(data, bytes, b0). Each digest is a serial multiply chain, so
 * interleaving two independent chains costs about one pass, not two —
 * a trace reader checks a block digest and extends the whole-file
 * digest over the same payload bytes this way.
 */
inline void
fnv1aPair(const void *data, size_t bytes, uint64_t *a, uint64_t *b)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t ha = *a, hb = *b;
    for (size_t i = 0; i < bytes; ++i) {
        ha = (ha ^ p[i]) * fnvPrime;
        hb = (hb ^ p[i]) * fnvPrime;
    }
    *a = ha;
    *b = hb;
}
/// @}

/// @name column codecs (element counts are fixed by the caller)
/// @{

/** Append zigzag-varint deltas of v[0..n) to @p out (v[-1] := 0). */
void encodeDeltaVarint(const uint64_t *v, uint32_t n,
                       std::vector<uint8_t> &out);

/** Decode exactly @p n elements from exactly @p bytes bytes.
 *  @return false on malformed input (nothing may be assumed about
 *  the contents of @p v after a failure). */
bool decodeDeltaVarint(const uint8_t *p, size_t bytes, uint64_t *v,
                       uint32_t n);

/** Append (zigzag-varint delta, varint run) pairs covering v[0..n). */
void encodeDeltaRle(const uint64_t *v, uint32_t n,
                    std::vector<uint8_t> &out);

/** Decode exactly @p n elements from exactly @p bytes bytes. */
bool decodeDeltaRle(const uint8_t *p, size_t bytes, uint64_t *v,
                    uint32_t n);

/** Append (byte, varint run) pairs covering v[0..n). */
void encodeByteRle(const uint8_t *v, uint32_t n,
                   std::vector<uint8_t> &out);

/** Decode exactly @p n elements from exactly @p bytes bytes. */
bool decodeByteRle(const uint8_t *p, size_t bytes, uint8_t *v,
                   uint32_t n);

/// @}

} // namespace codec
} // namespace gdiff

#endif // GDIFF_UTIL_VARINT_HH
