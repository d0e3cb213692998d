/**
 * @file
 * Micro-workload tests: each single-locality stream must be
 * near-perfect for exactly its home predictor and near-useless for
 * the predictors it excludes — the ground truth the mixed kernels
 * are composed from.
 */

#include <gtest/gtest.h>

#include "core/gdiff.hh"
#include "predictors/fcm.hh"
#include "predictors/stride.hh"
#include "sim/profile.hh"
#include "workload/micro.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

struct MicroAcc
{
    double stride;
    double dfcm;
    double gdiff;
};

MicroAcc
run(const std::string &name)
{
    Workload w = makeWorkload("micro." + name, 1);
    auto exec = w.makeExecutor();
    predictors::StridePredictor stride(0);
    predictors::FcmConfig fcfg;
    fcfg.level1Entries = 0;
    predictors::DfcmPredictor dfcm(fcfg);
    core::GDiffConfig g1;
    g1.order = 8;
    g1.tableEntries = 0;
    core::GDiffPredictor gd(g1);

    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = 60'000;
    pcfg.warmupInstructions = 10'000;
    sim::ValueProfileRunner runner(pcfg);
    runner.addPredictor(stride);
    runner.addPredictor(dfcm);
    runner.addPredictor(gd);
    runner.run(*exec);
    return MicroAcc{runner.results()[0].accuracyAll.value(),
                    runner.results()[1].accuracyAll.value(),
                    runner.results()[2].accuracyAll.value()};
}

TEST(Micro, StrideStreamsBelongToStride)
{
    MicroAcc a = run("stride");
    EXPECT_GT(a.stride, 0.99);
    EXPECT_GT(a.dfcm, 0.99);  // a constant stride is also a context
    EXPECT_GT(a.gdiff, 0.99); // ...and a self-correlation
}

TEST(Micro, PeriodicStreamsBelongToDfcm)
{
    // The loop scaffolding (phase counter, constants) is predictable
    // by everyone; the +1,+5,-2 value itself only by DFCM, so DFCM
    // must clear stride by a wide margin.
    MicroAcc a = run("periodic");
    EXPECT_GT(a.dfcm, 0.9);
    EXPECT_GT(a.dfcm, a.stride + 0.1);
}

TEST(Micro, SpillFillBelongsToGdiff)
{
    MicroAcc a = run("spillfill");
    EXPECT_LT(a.stride, 0.05);
    EXPECT_LT(a.dfcm, 0.05);
    // 2 of the 4 producers (the fill and its chain) are gdiff food
    EXPECT_NEAR(a.gdiff, 0.5, 0.02);
}

TEST(Micro, AffineFieldsBelongToGdiff)
{
    MicroAcc a = run("affine");
    EXPECT_LT(a.stride, 0.35);
    EXPECT_GT(a.gdiff, 0.6); // pick is hard; address+field are exact
}

TEST(Micro, PairSumIsBeyondOneTermPredictors)
{
    // The pair-sum is Eq. 1 with two terms: of 6 producers, gdiff
    // gets only the +const chain off it (1/6).
    MicroAcc a = run("pairsum");
    EXPECT_LT(a.stride, 0.05);
    EXPECT_LT(a.gdiff, 0.22);
}

TEST(Micro, RandomBelongsToNobody)
{
    MicroAcc a = run("random");
    EXPECT_LT(a.stride, 0.02);
    EXPECT_LT(a.dfcm, 0.02);
    EXPECT_LT(a.gdiff, 0.02);
}

TEST(Micro, RegistryRoundTrip)
{
    EXPECT_EQ(microWorkloadNames().size(), 6u);
    for (const auto &n : microWorkloadNames()) {
        Workload w = makeWorkload("micro." + n, 1);
        auto exec = w.makeExecutor();
        TraceRecord r;
        unsigned steps = 0;
        while (steps < 10'000 && exec->next(r))
            ++steps;
        EXPECT_EQ(steps, 10'000u) << n;
    }
}

TEST(MicroDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeMicroWorkload("nonesuch", 1),
                ::testing::ExitedWithCode(1), "unknown micro");
}

} // namespace
} // namespace workload
} // namespace gdiff
