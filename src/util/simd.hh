/**
 * @file
 * Runtime-dispatched SIMD kernels.
 *
 * The period scans lean on two data-parallel passes: counting zero
 * second differences (wide columns, and the sampled simulator's
 * strata), and counting lag-L equal bytes (the v3 encoder's u8
 * columns). The value profile's lane gather compacts a chunk's
 * flagged rows, and gFCM's batch loop hashes its lanes' values and
 * contexts ahead of its table walk. Each pass has two
 * implementations:
 *
 *  - a portable scalar loop, always compiled and always tested;
 *  - a hand-rolled AVX2 variant compiled with a per-function target
 *    attribute (no global -mavx2), selected at runtime when the CPU
 *    supports it.
 *
 * Every kernel is pure integer arithmetic, so both variants are
 * bit-identical by construction; tests/test_simd.cc pins that, and
 * the scalar-vs-batch differ (src/check) polices it end to end.
 *
 * Dispatch is process-global and decided once, from CPUID plus the
 * GDIFF_SIMD environment variable:
 *
 *   GDIFF_SIMD=off | scalar   force the scalar kernels
 *   GDIFF_SIMD=avx2           force AVX2 (fatal if unsupported)
 *   GDIFF_SIMD=auto | unset   use AVX2 when the CPU has it
 *
 * Tests may override the decision in-process with setModeForTest().
 *
 * Kernels short enough that a call per lane would cost more than
 * the kernel (gdiff's train step) live in simd_inline.hh instead and
 * are inlined into a loop clone per kernel set; the same decision
 * picks the clone.
 */

#ifndef GDIFF_UTIL_SIMD_HH
#define GDIFF_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace gdiff {
namespace simd {

/** Selected kernel set. */
enum class Mode
{
    Scalar,
    Avx2,
};

/** @return the active kernel set (env override applied on first call). */
Mode activeMode();

/**
 * @return the active mode as a stable counter/display name:
 * "simd.avx2" or "simd.scalar". Used for the obs dispatch counter and
 * the daemon status endpoint.
 */
const char *activeName();

/** @return true if this CPU can run the AVX2 kernels. */
bool cpuSupportsAvx2();

/**
 * Force a kernel set in-process (tests only; not thread-safe against
 * concurrent kernel calls). Forcing Avx2 on a CPU without AVX2 is
 * fatal.
 */
void setModeForTest(Mode m);

/**
 * @return how many i in [2L, n) have a zero lag-@p L second
 * difference: v[i] - v[i-L] == v[i-L] - v[i-2L] (two's-complement
 * wrapping). This is the inner loop of the period scan
 * (workload::detectStridePeriod) that both the v3 codec's encoder
 * and the sampled simulator's profiling pass run once per candidate
 * period — O(maxPeriod x n) scalar work that dominates either caller
 * without the lane kernel. Returns 0 when n <= 2L.
 */
size_t countSecondDiffZero(const uint64_t *v, size_t n, size_t L);

/**
 * @return how many i in [L, n) have v[i] == v[i-L]. This is the inner
 * loop of the v3 encoder's period scan over u8 columns (opcodes,
 * registers, flags), run once per candidate period. Returns 0 when
 * n <= L.
 */
size_t countLagEqualBytes(const uint8_t *v, size_t n, size_t L);

/**
 * gFCM's value folds (predictors/gfcm.hh): out[i] = mix64(v[i]) &
 * 0xffff for i in [0, n).
 */
void foldValues(const int64_t *v, size_t n, uint16_t *out);

/**
 * gFCM's table indices: for l in [0, n), with word(l) the
 * little-endian 64-bit word of folds l..l+3, out[l] =
 * (mix64(pcs[l] >> 2) ^ mix64(word(l) & contextMask)) & indexMask.
 * @p indexMask must fit 32 bits, and @p folds must hold n + 4
 * elements: the AVX2 variant reads eight folds per four lanes.
 */
void contextIndices(const uint64_t *pcs, const uint16_t *folds, size_t n,
                    uint64_t contextMask, uint64_t indexMask,
                    uint32_t *out);

/**
 * Compact the rows i in [0, n) whose flags[i] has any bit of @p bit
 * set into dense lanes, in row order: lane l receives outPcs[l] =
 * pcs[i], outValues[l] = values[i] and outRecords[l] = i. @return the
 * lane count. Each output array must hold n elements: slots past the
 * returned count are scratch, written with unspecified contents. This
 * is the profile driver's lane gather (predictors::gatherValueLanes),
 * which keeps a chunk's value-producing records.
 */
uint32_t compactFlaggedLanes(const uint8_t *flags, uint8_t bit,
                             const uint64_t *pcs, const int64_t *values,
                             uint32_t n, uint64_t *outPcs,
                             int64_t *outValues, uint32_t *outRecords);

} // namespace simd
} // namespace gdiff

#endif // GDIFF_UTIL_SIMD_HH
