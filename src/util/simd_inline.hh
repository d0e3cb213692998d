/**
 * @file
 * Header-inline kernel sets, for loops that compile one clone per
 * kernel set.
 *
 * A dispatched kernel from simd.hh costs a call. A loop that runs
 * one short kernel per lane pays more for that call (and for the
 * registers it clobbers) than for the kernel: gdiff's train step runs
 * one 8-wide difference-and-compare per record. Such a loop is
 * written once as a template over a kernel set and instantiated
 * twice: with PortableKernels, and with Avx2Kernels inside a
 * GDIFF_AVX2_CLONE function, whose flatten attribute inlines the
 * AVX2 bodies into it. The caller picks the clone from
 * simd::activeMode() (once per batch, or once per scalar update), so
 * GDIFF_SIMD and setModeForTest() still choose the kernel set.
 *
 * Both sets are pure integer arithmetic and bit-identical;
 * tests/test_simd.cc pins their parity.
 */

#ifndef GDIFF_UTIL_SIMD_INLINE_HH
#define GDIFF_UTIL_SIMD_INLINE_HH

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define GDIFF_SIMD_X86 1
#include <immintrin.h>
#else
#define GDIFF_SIMD_X86 0
#endif

#if GDIFF_SIMD_X86 && defined(__GNUC__)
/// The AVX2 kernel set is compiled (target attribute, no -mavx2).
#define GDIFF_HAVE_AVX2_KERNELS 1
#define GDIFF_AVX2_FN __attribute__((target("avx2")))
/// A loop clone that inlines Avx2Kernels (see the file comment).
#define GDIFF_AVX2_CLONE __attribute__((target("avx2"), flatten))
#else
#define GDIFF_HAVE_AVX2_KERNELS 0
#endif

namespace gdiff {
namespace simd {

/** Portable kernel bodies: plain loops. */
struct PortableKernels
{
    /**
     * gdiff's fused train step over a window read where it lives,
     * position k at newest[-k] (descending in memory, as
     * core::ValueWindow lays it out): for k in [0, n), n <= 64,
     * stores diffs[k] = actual - newest[-k] (two's-complement
     * wrapping) and @return a mask whose bit k is set when the old
     * diffs[k] equalled the new one — the difference pass, the
     * comparators and the store in one sweep. newest is not read
     * when n == 0.
     */
    static uint64_t
    diffMatchStore(int64_t actual, const int64_t *newest, int64_t *diffs,
                   size_t n)
    {
        uint64_t eq = 0;
        for (size_t k = 0; k < n; ++k) {
            const int64_t d = static_cast<int64_t>(
                static_cast<uint64_t>(actual) -
                static_cast<uint64_t>(
                    newest[-static_cast<ptrdiff_t>(k)]));
            eq |= static_cast<uint64_t>(d == diffs[k]) << k;
            diffs[k] = d;
        }
        return eq;
    }
};

#if GDIFF_HAVE_AVX2_KERNELS
/** AVX2 kernel bodies: four 64-bit lanes per step. */
struct Avx2Kernels
{
    /** @copydoc PortableKernels::diffMatchStore */
    GDIFF_AVX2_FN static inline uint64_t
    diffMatchStore(int64_t actual, const int64_t *newest, int64_t *diffs,
                   size_t n)
    {
        const __m256i va = _mm256_set1_epi64x(actual);
        uint64_t eq = 0;
        size_t k = 0;
        for (; k + 4 <= n; k += 4) {
            // Positions k..k+3 live at newest[-k-3..-k] ascending:
            // load them and reverse the lanes into position order.
            const __m256i w = _mm256_permute4x64_epi64(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    newest - static_cast<ptrdiff_t>(k) - 3)),
                0x1b); // lanes 3,2,1,0
            const __m256i d = _mm256_sub_epi64(va, w);
            __m256i *slot = reinterpret_cast<__m256i *>(diffs + k);
            const int m = _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(d, _mm256_loadu_si256(slot))));
            _mm256_storeu_si256(slot, d);
            eq |= static_cast<uint64_t>(m) << k;
        }
        if (k < n) // n - k < 4 leftover positions
            eq |= PortableKernels::diffMatchStore(
                      actual, newest - static_cast<ptrdiff_t>(k),
                      diffs + k, n - k)
                  << k;
        return eq;
    }
};
#endif

} // namespace simd
} // namespace gdiff

#endif // GDIFF_UTIL_SIMD_INLINE_HH
