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

#include <bit>
#include <cstddef>
#include <cstdint>

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

/** @return the length of @p v's LEB128 encoding (1..maxVarintBytes). */
inline constexpr size_t
varintBytes(uint64_t v)
{
    // ceil(bits / 7) for bits in 1..64, as a multiply and a shift.
    const unsigned bits = static_cast<unsigned>(std::bit_width(v | 1));
    return (9 * bits + 64) >> 6;
}

/// @name output sinks
/// Each column codec below has one body, a template over where its
/// bytes go. A sink is anything with push_back(uint8_t): a
/// std::vector, a CountingSink that sizes an encoding exactly without
/// storing it, or a WritingSink that stores it into space the caller
/// reserved at that size.
/// @{

/** Counts the bytes an encoding would take. */
struct CountingSink
{
    size_t bytes = 0;

    void push_back(uint8_t) { ++bytes; }
};

/** Stores bytes through a cursor; the caller reserved the space. */
struct WritingSink
{
    uint8_t *p;

    void push_back(uint8_t b) { *p++ = b; }
};

/** Append the LEB128 encoding of @p v to the sink @p out. */
template <typename Sink>
inline void
putVarint(Sink &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Counting form: the length alone, without the byte loop. */
inline void
putVarint(CountingSink &out, uint64_t v)
{
    out.bytes += varintBytes(v);
}

/// @}

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
 * Fold @p aBytes bytes at @p aData into the running FNV-1a digest
 * *@p a and @p bBytes bytes at @p bData into *@p b, in one pass:
 * afterwards *@p a == fnv1a(aData, aBytes, a0) and *@p b ==
 * fnv1a(bData, bBytes, b0). Each digest is a serial multiply chain,
 * so interleaving two independent chains costs about one pass over
 * the longer range, not two passes. A trace reader checks a block
 * digest and extends the whole-file digest over the same payload
 * bytes this way; the writer, which cannot hash a block's header
 * into the file digest before its block digest is done, extends the
 * file digest over the previous payload while it hashes the current
 * one.
 */
inline void
fnv1aPair(const void *aData, size_t aBytes, uint64_t *a,
          const void *bData, size_t bBytes, uint64_t *b)
{
    const uint8_t *pa = static_cast<const uint8_t *>(aData);
    const uint8_t *pb = static_cast<const uint8_t *>(bData);
    const size_t both = aBytes < bBytes ? aBytes : bBytes;
    uint64_t ha = *a, hb = *b;
    for (size_t i = 0; i < both; ++i) {
        ha = (ha ^ pa[i]) * fnvPrime;
        hb = (hb ^ pb[i]) * fnvPrime;
    }
    *a = fnv1a(pa + both, aBytes - both, ha);
    *b = fnv1a(pb + both, bBytes - both, hb);
}

/** fnv1aPair() over the same @p bytes bytes for both digests. */
inline void
fnv1aPair(const void *data, size_t bytes, uint64_t *a, uint64_t *b)
{
    fnv1aPair(data, bytes, a, data, bytes, b);
}
/// @}

/// @name column codecs (element counts are fixed by the caller)
///
/// Every encoder reads its column in *phase order* with period L:
/// v[0], v[L], v[2L], ..., then v[1], v[1 + L], ..., and so on up to
/// phase L - 1. With L = 1 that is plain order; with the loop's
/// period it is the phase-transposed column the T codecs store, read
/// in place.
/// @{

/** Call @p f on each element of v[0..n) in phase order (period @p L). */
template <typename T, typename F>
inline void
forEachInPhaseOrder(const T *v, uint32_t n, uint32_t L, F &&f)
{
    for (uint32_t phase = 0; phase < L; ++phase)
        for (uint32_t i = phase; i < n; i += L)
            f(v[i]);
}

/**
 * The run-length body deltaRle and byteRle share, fed one element at
 * a time: a run continues while the next element equals the run's
 * first, and each run becomes its element, written by
 * Value::put(out, x), then the varint run length.
 */
template <typename Sink, typename T, typename Value>
struct RunEncoder
{
    Sink &out;
    T runValue{};
    uint32_t run = 0;

    void
    push(T x)
    {
        if (run != 0 && x == runValue) {
            ++run;
            return;
        }
        flush();
        runValue = x;
        run = 1;
    }

    void
    flush()
    {
        if (run == 0)
            return;
        Value::put(out, runValue);
        putVarint(out, run);
        run = 0;
    }
};

/** deltaRle's run element: the delta as a zigzag varint. */
struct ZigzagVarintValue
{
    template <typename Sink>
    static void
    put(Sink &out, uint64_t d)
    {
        putVarint(out, zigzagEncode(static_cast<int64_t>(d)));
    }
};

/** byteRle's run element: the byte itself. */
struct ByteValue
{
    template <typename Sink>
    static void
    put(Sink &out, uint8_t b)
    {
        out.push_back(b);
    }
};

/** deltaVarint's body, fed one delta at a time: a zigzag varint each. */
template <typename Sink>
struct DeltaVarintEncoder
{
    Sink &out;

    void push(uint64_t d) { ZigzagVarintValue::put(out, d); }
    void flush() {}
};

/// deltaRle's body: (zigzag-varint delta, varint run) pairs
template <typename Sink>
using DeltaRleEncoder = RunEncoder<Sink, uint64_t, ZigzagVarintValue>;

/**
 * Feed the deltas of v[0..n), read in phase order (period @p L), to
 * every delta encoder in @p enc in one pass, then flush them: several
 * codecs sized or written over one read of the column. Each delta is
 * from the element read before it (the first from 0), so a column of
 * L interleaved strides reads as L constant-delta runs.
 */
template <typename... Encoders>
inline void
encodeDeltas(const uint64_t *v, uint32_t n, uint32_t L,
             Encoders &...enc)
{
    uint64_t prev = 0;
    forEachInPhaseOrder(v, n, L, [&](uint64_t x) {
        const uint64_t d = x - prev;
        prev = x;
        (enc.push(d), ...);
    });
    (enc.flush(), ...);
}

/** Write zigzag-varint deltas of v[0..n), in phase order, to @p out. */
template <typename Sink>
inline void
encodeDeltaVarint(const uint64_t *v, uint32_t n, uint32_t L, Sink &out)
{
    DeltaVarintEncoder<Sink> enc{out};
    encodeDeltas(v, n, L, enc);
}

/** Write deltaRle pairs covering v[0..n), in phase order, to @p out. */
template <typename Sink>
inline void
encodeDeltaRle(const uint64_t *v, uint32_t n, uint32_t L, Sink &out)
{
    DeltaRleEncoder<Sink> enc{out};
    encodeDeltas(v, n, L, enc);
}

/**
 * Size deltaVarint and deltaRle of v[0..n), in phase order, exactly
 * and in one pass: *@p varint and *@p rle receive the byte counts
 * encodeDeltaVarint() and encodeDeltaRle() would write.
 */
inline void
sizeDeltaCodecs(const uint64_t *v, uint32_t n, uint32_t L,
                size_t *varint, size_t *rle)
{
    CountingSink varintCount, rleCount;
    DeltaVarintEncoder<CountingSink> a{varintCount};
    DeltaRleEncoder<CountingSink> b{rleCount};
    encodeDeltas(v, n, L, a, b);
    *varint = varintCount.bytes;
    *rle = rleCount.bytes;
}

/** Write (byte, varint run) pairs covering v[0..n), in phase order,
 *  to @p out. */
template <typename Sink>
inline void
encodeByteRle(const uint8_t *v, uint32_t n, uint32_t L, Sink &out)
{
    RunEncoder<Sink, uint8_t, ByteValue> enc{out};
    forEachInPhaseOrder(v, n, L, [&](uint8_t b) { enc.push(b); });
    enc.flush();
}

/** Decode exactly @p n elements from exactly @p bytes bytes.
 *  @return false on malformed input (nothing may be assumed about
 *  the contents of @p v after a failure). */
bool decodeDeltaVarint(const uint8_t *p, size_t bytes, uint64_t *v,
                       uint32_t n);

/** Decode exactly @p n elements from exactly @p bytes bytes. */
bool decodeDeltaRle(const uint8_t *p, size_t bytes, uint64_t *v,
                    uint32_t n);

/** Decode exactly @p n elements from exactly @p bytes bytes. */
bool decodeByteRle(const uint8_t *p, size_t bytes, uint8_t *v,
                   uint32_t n);

/// @}

} // namespace codec
} // namespace gdiff

#endif // GDIFF_UTIL_VARINT_HH
