/**
 * @file
 * SIMD kernel equivalence tests (src/util/simd.hh): the AVX2 and
 * scalar variants of every kernel must agree bit-for-bit on arbitrary
 * inputs, including the edge shapes the vector loops special-case —
 * empty lanes, lanes shorter than the vector width, remainders after
 * the vector body, and values at the int64 boundaries.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/bits.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "util/simd_inline.hh"

namespace gdiff {
namespace {

class SimdKernels : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!simd::cpuSupportsAvx2())
            GTEST_SKIP() << "no AVX2 on this host";
    }
    void
    TearDown() override
    {
        simd::setModeForTest(simd::cpuSupportsAvx2()
                                 ? simd::Mode::Avx2
                                 : simd::Mode::Scalar);
    }
};

// Sizes around the 4-wide vector body: empty, sub-width, exact
// multiples, and remainders.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 64, 1000};

std::vector<uint64_t>
randomLane(size_t n, uint64_t seed)
{
    Xorshift64Star rng(seed);
    std::vector<uint64_t> v(n);
    for (auto &x : v)
        x = rng.next();
    // Sprinkle boundary values into larger lanes.
    if (n > 4) {
        v[0] = 0;
        v[1] = ~0ull;
        v[2] = static_cast<uint64_t>(
            std::numeric_limits<int64_t>::min());
        v[3] = static_cast<uint64_t>(
            std::numeric_limits<int64_t>::max());
    }
    return v;
}

TEST_F(SimdKernels, DiffMatchStoreMatchesPortableAndReference)
{
#if GDIFF_HAVE_AVX2_KERNELS
    // Windows in gdiff's descending layout, position k at newest[-k],
    // with the oldest position at the buffer's first element, so a
    // read past the window leaves the buffer. For every n the stored
    // diffs match the fresh ones at no position, at each position
    // alone, and at every third position (wrapping included).
    const int64_t actual = std::numeric_limits<int64_t>::min() + 3;
    for (size_t n = 0; n <= 64; ++n) {
        auto raw = randomLane(n, 61 + n);
        const std::vector<int64_t> buf(raw.begin(), raw.end());
        const int64_t *newest = n ? buf.data() + n - 1 : nullptr;
        std::vector<int64_t> fresh(n);
        for (size_t k = 0; k < n; ++k)
            fresh[k] = static_cast<int64_t>(
                static_cast<uint64_t>(actual) -
                static_cast<uint64_t>(buf[n - 1 - k]));
        // hit == n plants no match, hit == n + 1 every third one.
        for (size_t hit = 0; hit <= n + 1; ++hit) {
            std::vector<int64_t> stored(n);
            uint64_t expectMask = 0;
            for (size_t k = 0; k < n; ++k) {
                const bool match = hit == n + 1 ? k % 3 == 0 : k == hit;
                stored[k] = match ? fresh[k]
                                  : fresh[k] ^ static_cast<int64_t>(k + 1);
                expectMask |= static_cast<uint64_t>(match) << k;
            }
            std::vector<int64_t> avx = stored, sc = stored;
            const uint64_t mAvx = simd::Avx2Kernels::diffMatchStore(
                actual, newest, avx.data(), n);
            const uint64_t mSc = simd::PortableKernels::diffMatchStore(
                actual, newest, sc.data(), n);
            ASSERT_EQ(mAvx, mSc) << "n=" << n << " hit=" << hit;
            ASSERT_EQ(mSc, expectMask) << "n=" << n << " hit=" << hit;
            ASSERT_EQ(avx, fresh) << "n=" << n << " hit=" << hit;
            ASSERT_EQ(sc, fresh) << "n=" << n << " hit=" << hit;
        }
    }
#else
    GTEST_SKIP() << "AVX2 kernel set not compiled";
#endif
}

TEST_F(SimdKernels, CountSecondDiffZeroMatchesScalarReference)
{
    // Lags around the vector width plus the degenerate n <= 2L shapes
    // (scan window shorter than two periods -> zero by contract).
    const size_t kLags[] = {1, 2, 3, 4, 5, 8, 31, 64};
    for (size_t n : kSizes) {
        for (size_t L : kLags) {
            auto v = randomLane(n, 17 * n + L);
            // Plant a genuine stride run so counts are non-trivial.
            for (size_t i = 8; i < n && i < 200; ++i)
                v[i] = v[i - 1] + 3;
            simd::setModeForTest(simd::Mode::Avx2);
            size_t avx = simd::countSecondDiffZero(v.data(), n, L);
            simd::setModeForTest(simd::Mode::Scalar);
            size_t sc = simd::countSecondDiffZero(v.data(), n, L);
            ASSERT_EQ(avx, sc) << "n=" << n << " L=" << L;

            size_t ref = 0;
            for (size_t i = 2 * L; i < n; ++i)
                ref += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
            ASSERT_EQ(sc, ref) << "n=" << n << " L=" << L;
        }
    }

    // The AVX2 body tests v[i] + v[i-2L] == 2 v[i-L] (mod 2^64)
    // instead of comparing the two differences; values near 2^63,
    // where 2 v wraps, must count the same. Lengths 2L+1..2L+9 leave
    // 1..9 positions to count: the scalar tail alone, one pass of the
    // two-vector body, and that pass plus a tail.
    const uint64_t half = uint64_t(1) << 63;
    for (size_t L : {1, 2, 3, 4, 5, 8, 31, 48}) {
        for (size_t n = 2 * L + 1; n <= 2 * L + 9; ++n) {
            Xorshift64Star rng(1000 * L + n);
            std::vector<uint64_t> v(n);
            // A stride whose doubles wrap, then values within a few
            // units of 2^63 on either side.
            const uint64_t stride = (uint64_t(1) << 62) + 1;
            for (size_t i = 0; i < n; ++i)
                v[i] = i % 3 == 0 ? half - 5 * stride + i * stride
                                  : half - 2 + rng.below(5);
            for (int variant = 0; variant < 2; ++variant) {
                if (variant == 1) // an exact progression: all hits
                    for (size_t i = 0; i < n; ++i)
                        v[i] = half + 7 - i * stride;
                size_t ref = 0;
                for (size_t i = 2 * L; i < n; ++i)
                    ref += (v[i] - v[i - L]) == (v[i - L] - v[i - 2 * L]);
                simd::setModeForTest(simd::Mode::Avx2);
                ASSERT_EQ(simd::countSecondDiffZero(v.data(), n, L), ref)
                    << "n=" << n << " L=" << L << " variant " << variant;
                simd::setModeForTest(simd::Mode::Scalar);
                ASSERT_EQ(simd::countSecondDiffZero(v.data(), n, L), ref)
                    << "n=" << n << " L=" << L << " variant " << variant;
                if (variant == 1) {
                    ASSERT_EQ(ref, n - 2 * L);
                }
            }
        }
    }
}

TEST_F(SimdKernels, CountLagEqualBytesMatchesScalarReference)
{
    // Lengths below one 32-byte vector, off the vector multiple, and
    // past 255 vectors (where the 8-bit lane counts must be flushed
    // before they overflow); every lag the encoder scans; inputs that
    // are all one byte (the maximum count), and small-alphabet noise.
    std::vector<size_t> sizes;
    for (size_t n = 0; n <= 70; ++n)
        sizes.push_back(n);
    for (size_t n : {95, 96, 97, 1000, 2048, 32 * 255, 32 * 255 + 1,
                     32 * 256 + 49, 32 * 255 * 2 + 100, 20000})
        sizes.push_back(n);
    for (size_t n : sizes) {
        for (size_t L = 1; L <= 48; ++L) {
            Xorshift64Star rng(97 * n + L);
            std::vector<uint8_t> noise(n), same(n, 0xa5);
            for (auto &b : noise)
                b = static_cast<uint8_t>(rng.below(3));
            for (const auto *v : {&noise, &same}) {
                size_t ref = 0;
                for (size_t i = L; i < n; ++i)
                    ref += (*v)[i] == (*v)[i - L];
                simd::setModeForTest(simd::Mode::Avx2);
                ASSERT_EQ(simd::countLagEqualBytes(v->data(), n, L), ref)
                    << "n=" << n << " L=" << L;
                simd::setModeForTest(simd::Mode::Scalar);
                ASSERT_EQ(simd::countLagEqualBytes(v->data(), n, L), ref)
                    << "n=" << n << " L=" << L;
                if (v == &same) {
                    ASSERT_EQ(ref, n > L ? n - L : 0);
                }
            }
        }
    }
}

TEST_F(SimdKernels, RandomizedParityFuzz)
{
    // Beyond the curated kSizes shapes: several hundred trials with
    // randomized lengths, lags, and planted structure —
    // every kernel's AVX2 and scalar paths must agree bit-for-bit.
    Xorshift64Star rng(0xf00d);
    for (int trial = 0; trial < 400; ++trial) {
        size_t n = 1 + rng.below(600);
        auto raw = randomLane(n, rng.next());
        std::vector<int64_t> a(raw.begin(), raw.end());

        // Sometimes plant a stride run / duplicates so the period
        // scans exercise their hit paths, not just misses.
        if (rng.below(2) == 0)
            for (size_t i = 1 + rng.below(n); i < n; ++i)
                a[i] = static_cast<int64_t>(
                    static_cast<uint64_t>(a[i - 1]) + rng.below(5));

        size_t L = 1 + rng.below(80);
        std::vector<uint64_t> u(a.begin(), a.end());
        simd::setModeForTest(simd::Mode::Avx2);
        size_t cAvx = simd::countSecondDiffZero(u.data(), n, L);
        simd::setModeForTest(simd::Mode::Scalar);
        size_t cSc = simd::countSecondDiffZero(u.data(), n, L);
        ASSERT_EQ(cAvx, cSc)
            << "trial=" << trial << " n=" << n << " L=" << L;

        std::vector<uint8_t> bytes(n);
        for (size_t i = 0; i < n; ++i)
            bytes[i] = static_cast<uint8_t>(a[i] & 3);
        simd::setModeForTest(simd::Mode::Avx2);
        size_t eqAvx = simd::countLagEqualBytes(bytes.data(), n, L);
        simd::setModeForTest(simd::Mode::Scalar);
        size_t eqSc = simd::countLagEqualBytes(bytes.data(), n, L);
        ASSERT_EQ(eqAvx, eqSc)
            << "trial=" << trial << " n=" << n << " L=" << L;
    }
}

TEST_F(SimdKernels, GFcmHashKernelsMatchScalarReference)
{
    // gFCM's fold and index passes, around the 4-lane vector body and
    // at a full chunk, for contexts of 1..4 folds and tables of 2^6,
    // 2^16 and 2^32 entries. The fold column holds exactly the n + 4
    // elements the index kernel may read.
    std::vector<size_t> sizes;
    for (size_t n = 0; n <= 70; ++n)
        sizes.push_back(n);
    for (size_t n = 4090; n <= 4096; ++n)
        sizes.push_back(n);
    for (size_t n : sizes) {
        const auto raw = randomLane(n, 0x5eed + n);
        const std::vector<int64_t> values(raw.begin(), raw.end());
        const std::vector<uint64_t> pcs = randomLane(n, 0x9c + n);
        std::vector<uint16_t> refFolds(n);
        for (size_t i = 0; i < n; ++i)
            refFolds[i] = static_cast<uint16_t>(
                mix64(static_cast<uint64_t>(values[i])) & 0xffff);
        std::vector<uint16_t> folds(n + 4);
        Xorshift64Star rng(n);
        for (auto &f : folds)
            f = static_cast<uint16_t>(rng.next());
        for (simd::Mode mode : {simd::Mode::Avx2, simd::Mode::Scalar}) {
            simd::setModeForTest(mode);
            std::vector<uint16_t> out(n);
            simd::foldValues(values.data(), n, out.data());
            ASSERT_EQ(out, refFolds) << "n=" << n;
        }
        for (unsigned width = 1; width <= 4; ++width) {
            for (unsigned bits : {6u, 16u, 32u}) {
                const uint64_t ctxMask = mask(16 * width);
                std::vector<uint32_t> ref(n);
                for (size_t l = 0; l < n; ++l) {
                    uint64_t word = 0;
                    for (unsigned k = 0; k < 4; ++k)
                        word |= uint64_t(folds[l + k]) << (16 * k);
                    ref[l] = static_cast<uint32_t>(
                        (mix64(pcs[l] >> 2) ^ mix64(word & ctxMask)) &
                        mask(bits));
                }
                for (simd::Mode mode :
                     {simd::Mode::Avx2, simd::Mode::Scalar}) {
                    simd::setModeForTest(mode);
                    std::vector<uint32_t> out(n);
                    simd::contextIndices(pcs.data(), folds.data(), n,
                                         ctxMask, mask(bits), out.data());
                    ASSERT_EQ(out, ref) << "n=" << n << " width=" << width
                                        << " bits=" << bits;
                }
            }
        }
    }
}

TEST_F(SimdKernels, CompactFlaggedLanesMatchesScalarReference)
{
    // Lengths around the 16-row flag step and the 4-row groups, and
    // the full chunk; flag columns all-clear, all-set, alternating,
    // and random at low, even and high densities. Other flag bits
    // are set at random, so only the selected bit may decide. Output
    // arrays hold exactly n elements, so an overrun trips ASan.
    constexpr uint8_t kBit = 1u << 1;
    std::vector<uint32_t> sizes;
    for (uint32_t n = 0; n <= 70; ++n)
        sizes.push_back(n);
    for (uint32_t n = 4090; n <= 4096; ++n)
        sizes.push_back(n);
    enum Pattern { None, All, Alternating, Sparse, Half, Dense };
    for (uint32_t n : sizes) {
        for (Pattern pat : {None, All, Alternating, Sparse, Half, Dense}) {
            Xorshift64Star rng(31 * n + pat);
            std::vector<uint8_t> flags(n);
            std::vector<uint64_t> pcs(n);
            std::vector<int64_t> values(n);
            for (uint32_t i = 0; i < n; ++i) {
                bool keep = false;
                switch (pat) {
                case None: keep = false; break;
                case All: keep = true; break;
                case Alternating: keep = i & 1; break;
                case Sparse: keep = rng.below(8) == 0; break;
                case Half: keep = rng.below(2) == 0; break;
                case Dense: keep = rng.below(8) != 0; break;
                }
                flags[i] = static_cast<uint8_t>(
                    (rng.next() & ~uint64_t(kBit) & 0xff) |
                    (keep ? kBit : 0));
                pcs[i] = rng.next();
                values[i] = static_cast<int64_t>(rng.next());
            }
            std::vector<uint32_t> kept;
            for (uint32_t i = 0; i < n; ++i)
                if (flags[i] & kBit)
                    kept.push_back(i);
            for (simd::Mode mode : {simd::Mode::Avx2, simd::Mode::Scalar}) {
                simd::setModeForTest(mode);
                std::vector<uint64_t> outPcs(n);
                std::vector<int64_t> outValues(n);
                std::vector<uint32_t> outRecords(n);
                const uint32_t lanes = simd::compactFlaggedLanes(
                    flags.data(), kBit, pcs.data(), values.data(), n,
                    outPcs.data(), outValues.data(), outRecords.data());
                const char *kind =
                    mode == simd::Mode::Avx2 ? "avx2" : "scalar";
                ASSERT_EQ(lanes, kept.size())
                    << kind << " n=" << n << " pattern=" << pat;
                for (uint32_t l = 0; l < lanes; ++l) {
                    const uint32_t i = kept[l];
                    ASSERT_EQ(outRecords[l], i)
                        << kind << " n=" << n << " pattern=" << pat;
                    ASSERT_EQ(outPcs[l], pcs[i]) << kind << " n=" << n;
                    ASSERT_EQ(outValues[l], values[i])
                        << kind << " n=" << n;
                }
            }
        }
    }
}

TEST(SimdDispatch, NamesAreStable)
{
    simd::Mode m = simd::activeMode();
    const char *name = simd::activeName();
    if (m == simd::Mode::Avx2)
        EXPECT_STREQ(name, "simd.avx2");
    else
        EXPECT_STREQ(name, "simd.scalar");
}

} // namespace
} // namespace gdiff
