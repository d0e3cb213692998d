/**
 * @file
 * predictAhead() coverage across every predictor family.
 *
 * The dispatch-time protocol: the table reflects the last written-
 * back instance while `ahead` instances are still in flight. Stride
 * extrapolates across them (last + stride * (ahead + 1), with two's-
 * complement wrap); every other family falls back to predict(), and
 * must do so for any `ahead` — the OOO model leans on that fallback
 * being harmless.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "predictors/stride.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace {

TEST(PredictAhead, StrideExtrapolatesAcrossInFlightInstances)
{
    predictors::StridePredictor p(0);
    const uint64_t pc = 0x4000;
    for (int i = 0; i < 4; ++i)
        p.update(pc, 100 + 7 * i); // learn stride 7, last = 121
    for (unsigned ahead = 0; ahead < 6; ++ahead) {
        int64_t v = 0;
        ASSERT_TRUE(p.predictAhead(pc, ahead, v));
        EXPECT_EQ(v, 121 + 7 * static_cast<int64_t>(ahead + 1))
            << "ahead=" << ahead;
    }
    // ahead = 0 must agree with plain predict().
    int64_t a = 0, b = 0;
    ASSERT_TRUE(p.predict(pc, a));
    ASSERT_TRUE(p.predictAhead(pc, 0, b));
    EXPECT_EQ(a, b);
}

TEST(PredictAhead, StrideWrapsTwosComplement)
{
    predictors::StridePredictor p(0);
    const uint64_t pc = 0x4100;
    const int64_t top = std::numeric_limits<int64_t>::max() - 2;
    p.update(pc, top - 10);
    p.update(pc, top - 5);
    p.update(pc, top); // stride 5 established (2-delta)
    int64_t v = 0;
    ASSERT_TRUE(p.predictAhead(pc, 1, v));
    // top + 10 wraps: computed in uint64 arithmetic.
    EXPECT_EQ(v, static_cast<int64_t>(static_cast<uint64_t>(top) +
                                      10ull));
}

TEST(PredictAhead, UntrainedPcDoesNotPredict)
{
    for (const auto &family : check::batchFamilyNames()) {
        auto p = check::makeProduction(family);
        int64_t v = 0;
        EXPECT_FALSE(p->predictAhead(0xdead00, 3, v)) << family;
    }
}

// Every non-extrapolating family must fall back to predict() for any
// lookahead, after arbitrary training.
TEST(PredictAhead, FallbackFamiliesMatchPredict)
{
    check::FuzzStreamConfig cfg;
    cfg.seed = 31;
    cfg.records = 3000;
    const auto stream = check::fuzzValueStream(cfg);
    for (const auto &family : check::batchFamilyNames()) {
        if (family == "stride")
            continue; // extrapolates; covered above
        auto p = check::makeProduction(family);
        for (const auto &r : stream)
            p->update(r.pc, r.value);
        for (const auto &r : stream) {
            int64_t base = 0;
            bool predicted = p->predict(r.pc, base);
            for (unsigned ahead : {0u, 1u, 5u}) {
                int64_t v = 0;
                ASSERT_EQ(p->predictAhead(r.pc, ahead, v), predicted)
                    << family << " ahead=" << ahead;
                if (predicted) {
                    ASSERT_EQ(v, base)
                        << family << " ahead=" << ahead;
                }
            }
            if (&r - stream.data() > 200)
                break; // a slice is plenty per family
        }
    }
}

} // namespace
} // namespace gdiff
