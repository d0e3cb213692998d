#include "util/simd.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/simd_inline.hh"

namespace gdiff {
namespace simd {

// ------------------------------------------------------------ dispatch

bool
cpuSupportsAvx2()
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

namespace {

/** Resolve the initial mode from CPUID + GDIFF_SIMD. */
Mode
resolveMode()
{
    const char *env = std::getenv("GDIFF_SIMD");
    if (env) {
        if (std::strcmp(env, "off") == 0 ||
            std::strcmp(env, "scalar") == 0 ||
            std::strcmp(env, "OFF") == 0) {
            return Mode::Scalar;
        }
        if (std::strcmp(env, "avx2") == 0) {
            if (!cpuSupportsAvx2())
                fatal("GDIFF_SIMD=avx2 but this CPU has no AVX2");
            return Mode::Avx2;
        }
        if (std::strcmp(env, "auto") != 0) {
            fatal("GDIFF_SIMD='%s' not understood (off|scalar|avx2|"
                  "auto)",
                  env);
        }
    }
    return cpuSupportsAvx2() ? Mode::Avx2 : Mode::Scalar;
}

Mode gMode = resolveMode();

} // anonymous namespace

Mode
activeMode()
{
    return gMode;
}

const char *
activeName()
{
    return gMode == Mode::Avx2 ? "simd.avx2" : "simd.scalar";
}

void
setModeForTest(Mode m)
{
    if (m == Mode::Avx2 && !cpuSupportsAvx2())
        fatal("setModeForTest(Avx2) on a CPU without AVX2");
    gMode = m;
}

// ------------------------------------------------------ scalar kernels

namespace {

size_t
countSecondDiffZeroScalar(const uint64_t *v, size_t n, size_t L)
{
    size_t count = 0;
    for (size_t i = 2 * L; i < n; ++i)
        count += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
    return count;
}

size_t
countLagEqualBytesScalar(const uint8_t *v, size_t n, size_t L)
{
    size_t count = 0;
    for (size_t i = L; i < n; ++i)
        count += v[i] == v[i - L];
    return count;
}

// The gFCM hashing loops start at row i: the AVX2 variants finish
// their tails with them.

void
foldValuesScalar(const int64_t *v, size_t i, size_t n, uint16_t *out)
{
    for (; i < n; ++i)
        out[i] = static_cast<uint16_t>(
            mix64(static_cast<uint64_t>(v[i])) & 0xffff);
}

void
contextIndicesScalar(const uint64_t *pcs, const uint16_t *folds,
                     size_t i, size_t n, uint64_t contextMask,
                     uint64_t indexMask, uint32_t *out)
{
    for (; i < n; ++i) {
        uint64_t word;
        std::memcpy(&word, folds + i, sizeof(word));
        out[i] = static_cast<uint32_t>(
            (mix64(pcs[i] >> 2) ^ mix64(word & contextMask)) & indexMask);
    }
}

/**
 * The lane gather's scalar loop over rows [i, n), appending at lane
 * @p lanes, branch-free: every row is written at the next lane, which
 * advances only past a flagged row. @return the lane count.
 */
uint32_t
compactRows(const uint8_t *flags, uint8_t bit, const uint64_t *pcs,
            const int64_t *values, uint32_t i, uint32_t n,
            uint32_t lanes, uint64_t *outPcs, int64_t *outValues,
            uint32_t *outRecords)
{
    for (; i < n; ++i) {
        outPcs[lanes] = pcs[i];
        outValues[lanes] = values[i];
        outRecords[lanes] = i;
        lanes += (flags[i] & bit) != 0;
    }
    return lanes;
}

// -------------------------------------------------------- AVX2 kernels

#if GDIFF_SIMD_X86 && defined(__GNUC__)

/** Sum the four 64-bit lanes of @p v. */
GDIFF_AVX2_FN uint64_t
sumLanes64(__m256i v)
{
    __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

/** One vector of the lag-L second-difference test at @p p. */
GDIFF_AVX2_FN __m256i
secondDiffZero4(const uint64_t *p, size_t L)
{
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p - L));
    __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(p - 2 * L));
    return _mm256_cmpeq_epi64(_mm256_add_epi64(a, c),
                              _mm256_add_epi64(b, b));
}

GDIFF_AVX2_FN size_t
countSecondDiffZeroAvx2(const uint64_t *v, size_t n, size_t L)
{
    // v[i] - v[i-L] == v[i-L] - v[i-2L] exactly when v[i] + v[i-2L]
    // == 2 v[i-L] (mod 2^64). A hit is an all-ones lane, -1, so
    // subtracting it counts; two accumulators keep two vectors in
    // flight, and the lanes are summed once, after the loop.
    __m256i acc0 = _mm256_setzero_si256(), acc1 = acc0;
    size_t i = 2 * L;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_sub_epi64(acc0, secondDiffZero4(v + i, L));
        acc1 = _mm256_sub_epi64(acc1, secondDiffZero4(v + i + 4, L));
    }
    size_t count = sumLanes64(_mm256_add_epi64(acc0, acc1));
    for (; i < n; ++i)
        count += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
    return count;
}

GDIFF_AVX2_FN size_t
countLagEqualBytesAvx2(const uint8_t *v, size_t n, size_t L)
{
    // Each equal byte compare is -1 in its lane; subtracting it counts
    // the hit in an 8-bit lane. A lane overflows after 255 vectors,
    // so every 255 vectors (or at the end) sad_epu8 against zero
    // folds the byte counts into four 64-bit lane totals.
    const __m256i zero = _mm256_setzero_si256();
    __m256i total = zero;
    size_t i = L;
    while (i + 32 <= n) {
        const size_t vectors = std::min<size_t>((n - i) / 32, 255);
        __m256i acc = zero;
        for (size_t k = 0; k < vectors; ++k, i += 32) {
            __m256i a = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(v + i));
            __m256i b = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(v + i - L));
            acc = _mm256_sub_epi8(acc, _mm256_cmpeq_epi8(a, b));
        }
        total = _mm256_add_epi64(total, _mm256_sad_epu8(acc, zero));
    }
    size_t count = sumLanes64(total);
    for (; i < n; ++i)
        count += v[i] == v[i - L];
    return count;
}

/**
 * The low 64 bits of a * c per 64-bit lane: AVX2 multiplies only
 * 32 x 32 -> 64, so the product is lo*lo + ((hi*lo + lo*hi) << 32).
 */
GDIFF_AVX2_FN __m256i
mulConst64(__m256i a, uint64_t c)
{
    const __m256i cLo =
        _mm256_set1_epi64x(static_cast<int64_t>(c & 0xffffffffu));
    const __m256i cHi =
        _mm256_set1_epi64x(static_cast<int64_t>(c >> 32));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), cLo),
                         _mm256_mul_epu32(a, cHi));
    return _mm256_add_epi64(_mm256_mul_epu32(a, cLo),
                            _mm256_slli_epi64(cross, 32));
}

/** mix64 (util/bits.hh) on each 64-bit lane. */
GDIFF_AVX2_FN __m256i
mix64x4(__m256i z)
{
    z = mulConst64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   0xbf58476d1ce4e5b9ull);
    z = mulConst64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   0x94d049bb133111ebull);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

GDIFF_AVX2_FN void
foldValuesAvx2(const int64_t *v, size_t n, uint16_t *out)
{
    // Bytes 0-1 of each 64-bit lane to the front of its 128-bit half,
    // then the halves' first dwords together: four folds in 8 bytes.
    const __m256i low16 = _mm256_setr_epi8(
        0, 1, 8, 9, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 1, 8, 9, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i join = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i z = mix64x4(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(v + i)));
        const __m256i folds = _mm256_permutevar8x32_epi32(
            _mm256_shuffle_epi8(z, low16), join);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i),
                         _mm256_castsi256_si128(folds));
    }
    foldValuesScalar(v, i, n, out);
}

GDIFF_AVX2_FN void
contextIndicesAvx2(const uint64_t *pcs, const uint16_t *folds, size_t n,
                   uint64_t contextMask, uint64_t indexMask,
                   uint32_t *out)
{
    // Folds l..l+7 in both halves; lane j's word is folds l+j..l+j+3,
    // bytes 2j..2j+7 of them.
    const __m256i window = _mm256_setr_epi8(
        0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6, 7, 8, 9,
        4, 5, 6, 7, 8, 9, 10, 11, 6, 7, 8, 9, 10, 11, 12, 13);
    const __m256i ctxMask =
        _mm256_set1_epi64x(static_cast<int64_t>(contextMask));
    const __m256i idxMask =
        _mm256_set1_epi64x(static_cast<int64_t>(indexMask));
    const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i words = _mm256_and_si256(
            _mm256_shuffle_epi8(
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(folds + i))),
                window),
            ctxMask);
        const __m256i pcMix = mix64x4(_mm256_srli_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(pcs + i)),
            2));
        const __m256i idx = _mm256_and_si256(
            _mm256_xor_si256(pcMix, mix64x4(words)), idxMask);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm256_castsi256_si128(
                             _mm256_permutevar8x32_epi32(idx, even)));
    }
    contextIndicesScalar(pcs, folds, i, n, contextMask, indexMask, out);
}

/**
 * The lane gather's compaction step for a group of four rows, indexed
 * by the group's flag mask q (bit r: row r is kept): the
 * permutevar8x32 indices that move the kept 64-bit rows to the
 * front, the kept row offsets in order, and how many rows are kept.
 * Positions past the count hold row 0 again: they land in scratch
 * slots.
 */
struct CompactTables
{
    alignas(32) uint32_t perm[16][8];
    alignas(16) uint32_t rows[16][4];
    uint32_t count[16];
};

constexpr CompactTables
makeCompactTables()
{
    CompactTables t{};
    for (uint32_t q = 0; q < 16; ++q) {
        uint32_t k = 0;
        for (uint32_t r = 0; r < 4; ++r) {
            if (!((q >> r) & 1))
                continue;
            t.perm[q][2 * k] = 2 * r;
            t.perm[q][2 * k + 1] = 2 * r + 1;
            t.rows[q][k] = r;
            ++k;
        }
        t.count[q] = k;
    }
    return t;
}

constexpr CompactTables kCompact = makeCompactTables();

GDIFF_AVX2_FN uint32_t
compactFlaggedLanesAvx2(const uint8_t *flags, uint8_t bit,
                        const uint64_t *pcs, const int64_t *values,
                        uint32_t n, uint64_t *outPcs, int64_t *outValues,
                        uint32_t *outRecords)
{
    // Sixteen flag bytes give sixteen keep bits at once; the rows
    // then go four at a time: each of the three columns is permuted
    // so its kept rows lead, and stored whole at the next lane. The
    // unkept tail of a store is overwritten by the next group or left
    // as scratch; a store ends before row i + g + 4 <= n, so it fits.
    const __m128i sel = _mm_set1_epi8(static_cast<char>(bit));
    const __m128i zero = _mm_setzero_si128();
    uint32_t lanes = 0, i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i f = _mm_and_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(flags + i)),
            sel);
        uint32_t keep = ~static_cast<uint32_t>(
                            _mm_movemask_epi8(_mm_cmpeq_epi8(f, zero))) &
                        0xffff;
        for (uint32_t g = 0; g < 16; g += 4, keep >>= 4) {
            const uint32_t q = keep & 15;
            const __m256i perm = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(kCompact.perm[q]));
            const __m256i p = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pcs + i + g));
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(values + i + g));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(outPcs + lanes),
                _mm256_permutevar8x32_epi32(p, perm));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(outValues + lanes),
                _mm256_permutevar8x32_epi32(v, perm));
            const __m128i rows = _mm_add_epi32(
                _mm_set1_epi32(static_cast<int>(i + g)),
                _mm_load_si128(
                    reinterpret_cast<const __m128i *>(kCompact.rows[q])));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(outRecords + lanes),
                             rows);
            lanes += kCompact.count[q];
        }
    }
    return compactRows(flags, bit, pcs, values, i, n, lanes, outPcs,
                       outValues, outRecords);
}

#endif // GDIFF_SIMD_X86 && __GNUC__

} // anonymous namespace

// ---------------------------------------------------- public entries

size_t
countSecondDiffZero(const uint64_t *v, size_t n, size_t L)
{
    if (n <= 2 * L)
        return 0;
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2)
        return countSecondDiffZeroAvx2(v, n, L);
#endif
    return countSecondDiffZeroScalar(v, n, L);
}

size_t
countLagEqualBytes(const uint8_t *v, size_t n, size_t L)
{
    if (n <= L)
        return 0;
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2)
        return countLagEqualBytesAvx2(v, n, L);
#endif
    return countLagEqualBytesScalar(v, n, L);
}

void
foldValues(const int64_t *v, size_t n, uint16_t *out)
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2) {
        foldValuesAvx2(v, n, out);
        return;
    }
#endif
    foldValuesScalar(v, 0, n, out);
}

void
contextIndices(const uint64_t *pcs, const uint16_t *folds, size_t n,
               uint64_t contextMask, uint64_t indexMask, uint32_t *out)
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2) {
        contextIndicesAvx2(pcs, folds, n, contextMask, indexMask, out);
        return;
    }
#endif
    contextIndicesScalar(pcs, folds, 0, n, contextMask, indexMask, out);
}

uint32_t
compactFlaggedLanes(const uint8_t *flags, uint8_t bit,
                    const uint64_t *pcs, const int64_t *values,
                    uint32_t n, uint64_t *outPcs, int64_t *outValues,
                    uint32_t *outRecords)
{
#if GDIFF_SIMD_X86 && defined(__GNUC__)
    if (gMode == Mode::Avx2)
        return compactFlaggedLanesAvx2(flags, bit, pcs, values, n,
                                       outPcs, outValues, outRecords);
#endif
    return compactRows(flags, bit, pcs, values, 0, n, 0, outPcs,
                       outValues, outRecords);
}

} // namespace simd
} // namespace gdiff
