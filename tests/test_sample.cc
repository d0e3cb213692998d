/**
 * @file
 * Unit battery for the sampled simulator (src/sample/): estimator
 * known-answer cases, Neyman allocation (including the remainder-loop
 * regression), t-quantile table, window-grid geometry at the trace
 * edges, stratum profiling over synthetic streams, SkipTraceSource
 * equivalence across chunk boundaries, the degrade-to-full path, and
 * determinism of whole sampled jobs. The statistical validation
 * against golden full runs lives in test_sample_stats.cc (slow).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "predictors/stride.hh"
#include "runner/runner.hh"
#include "sample/estimator.hh"
#include "sample/sample.hh"
#include "sim/profile.hh"
#include "workload/trace.hh"
#include "workload/trace_cache.hh"
#include "workload/trace_io.hh"

using namespace gdiff;
using namespace gdiff::sample;

namespace {

// ------------------------------------------------------- estimators

TEST(StratifiedEstimate, SingleStratumKnownAnswer)
{
    // Plain SRS: values {1,2,3} of 10 candidate windows. mean = 2,
    // S^2 = 1, fpc = 1 - 3/10, Var = 0.7 * 1/3.
    StratumSamples h;
    h.weight = 10.0;
    h.population = 10;
    h.values = {1.0, 2.0, 3.0};
    h.weights = {1.0, 1.0, 1.0};
    MetricEstimate e = stratifiedEstimate({h}, 2.0);
    EXPECT_DOUBLE_EQ(e.mean, 2.0);
    EXPECT_DOUBLE_EQ(e.stdError, std::sqrt(0.7 / 3.0));
    EXPECT_DOUBLE_EQ(e.ciLo, 2.0 - 2.0 * e.stdError);
    EXPECT_DOUBLE_EQ(e.ciHi, 2.0 + 2.0 * e.stdError);
}

TEST(StratifiedEstimate, MeanIsRecordWeighted)
{
    // A short end-of-trace window must count by its records: values
    // {1,3} with weights {3,1} average to 1.5, not 2.
    StratumSamples h;
    h.weight = 4.0;
    h.population = 4;
    h.values = {1.0, 3.0};
    h.weights = {3.0, 1.0};
    MetricEstimate e = stratifiedEstimate({h});
    EXPECT_DOUBLE_EQ(e.mean, 1.5);
}

TEST(StratifiedEstimate, FullyMeasuredStratumHasZeroWidth)
{
    // n == N: the finite-population correction zeroes the variance —
    // there is nothing left unmeasured to be uncertain about.
    StratumSamples h;
    h.weight = 2.0;
    h.population = 2;
    h.values = {1.0, 5.0};
    h.weights = {1.0, 1.0};
    MetricEstimate e = stratifiedEstimate({h});
    EXPECT_DOUBLE_EQ(e.mean, 3.0);
    EXPECT_DOUBLE_EQ(e.stdError, 0.0);
    EXPECT_DOUBLE_EQ(e.ciLo, e.ciHi);
}

TEST(StratifiedEstimate, SingleWindowStratumContributesZeroVariance)
{
    // One measured window cannot estimate its own spread; the
    // documented behaviour is zero contribution (intervals understate).
    StratumSamples h;
    h.weight = 100.0;
    h.population = 100;
    h.values = {7.0};
    h.weights = {1.0};
    MetricEstimate e = stratifiedEstimate({h});
    EXPECT_DOUBLE_EQ(e.mean, 7.0);
    EXPECT_DOUBLE_EQ(e.stdError, 0.0);
}

TEST(StratifiedEstimate, TwoStrataCombineByWeight)
{
    // Strata of weight 30/10: mean = 0.75*2 + 0.25*6 = 3. Variance
    // sums share^2 * fpc * S^2/n per stratum.
    StratumSamples a, b;
    a.weight = 30.0;
    a.population = 30;
    a.values = {1.0, 2.0, 3.0};
    a.weights = {1.0, 1.0, 1.0};
    b.weight = 10.0;
    b.population = 10;
    b.values = {5.0, 7.0};
    b.weights = {1.0, 1.0};
    MetricEstimate e = stratifiedEstimate({a, b}, 1.0);
    EXPECT_DOUBLE_EQ(e.mean, 3.0);
    double varA = 0.75 * 0.75 * (1.0 - 3.0 / 30.0) * (1.0 / 3.0);
    double varB = 0.25 * 0.25 * (1.0 - 2.0 / 10.0) * (2.0 / 2.0);
    EXPECT_DOUBLE_EQ(e.stdError, std::sqrt(varA + varB));
}

TEST(StratifiedEstimateDeath, RejectsBrokenStrata)
{
    EXPECT_DEATH(stratifiedEstimate({}), "no strata");

    StratumSamples empty;
    empty.weight = 1.0;
    empty.population = 1;
    EXPECT_DEATH(stratifiedEstimate({empty}), "no measured windows");

    StratumSamples weightless;
    weightless.population = 1;
    weightless.values = {1.0};
    weightless.weights = {1.0};
    // Alone it trips the total-weight check; next to a weighted
    // stratum it trips the per-stratum one.
    EXPECT_DEATH(stratifiedEstimate({weightless}),
                 "zero total weight");
    StratumSamples weighted;
    weighted.weight = 1.0;
    weighted.population = 1;
    weighted.values = {2.0};
    weighted.weights = {1.0};
    EXPECT_DEATH(stratifiedEstimate({weighted, weightless}),
                 "stratum 1 has zero weight");

    StratumSamples overfull;
    overfull.weight = 1.0;
    overfull.population = 1;
    overfull.values = {1.0, 2.0};
    overfull.weights = {1.0, 1.0};
    EXPECT_DEATH(stratifiedEstimate({overfull}),
                 "more windows than exist");
}

TEST(InvertEstimate, SwapsEndpointsAndScalesError)
{
    MetricEstimate cpi;
    cpi.mean = 2.0;
    cpi.stdError = 0.1;
    cpi.ciLo = 1.8;
    cpi.ciHi = 2.2;
    MetricEstimate ipc = invertEstimate(cpi);
    EXPECT_DOUBLE_EQ(ipc.mean, 0.5);
    // Delta method: se' = se / mean^2.
    EXPECT_DOUBLE_EQ(ipc.stdError, 0.1 / 4.0);
    // 1/x is decreasing, so lo comes from hi and vice versa.
    EXPECT_DOUBLE_EQ(ipc.ciLo, 1.0 / 2.2);
    EXPECT_DOUBLE_EQ(ipc.ciHi, 1.0 / 1.8);
    EXPECT_LT(ipc.ciLo, ipc.mean);
    EXPECT_GT(ipc.ciHi, ipc.mean);
}

TEST(InvertEstimateDeath, RejectsNonPositiveInterval)
{
    MetricEstimate e;
    e.mean = 0.5;
    e.ciLo = -0.1; // interval crosses zero: inversion is meaningless
    e.ciHi = 1.1;
    EXPECT_DEATH(invertEstimate(e), "non-positive");
}

TEST(RatioEstimate, CombinesRelativeErrorsInQuadrature)
{
    MetricEstimate num, den;
    num.mean = 3.0;
    num.stdError = 0.3; // 10% relative
    den.mean = 2.0;
    den.stdError = 0.2; // 10% relative
    MetricEstimate r = ratioEstimate(num, den, 2.0);
    EXPECT_DOUBLE_EQ(r.mean, 1.5);
    EXPECT_DOUBLE_EQ(r.stdError, 1.5 * std::sqrt(0.01 + 0.01));
    EXPECT_DOUBLE_EQ(r.ciLo, r.mean - 2.0 * r.stdError);
    EXPECT_DOUBLE_EQ(r.ciHi, r.mean + 2.0 * r.stdError);
}

// ------------------------------------------------------- t quantile

TEST(TQuantile, ExactAtTabulatedDf)
{
    EXPECT_DOUBLE_EQ(tQuantile975(1), 12.706);
    EXPECT_DOUBLE_EQ(tQuantile975(4), 2.776);
    EXPECT_DOUBLE_EQ(tQuantile975(10), 2.228);
    EXPECT_DOUBLE_EQ(tQuantile975(30), 2.042);
    EXPECT_DOUBLE_EQ(tQuantile975(120), 1.980);
}

TEST(TQuantile, MonotoneAndBoundedByNormal)
{
    double prev = tQuantile975(1);
    for (uint64_t df = 2; df <= 300; ++df) {
        double t = tQuantile975(df);
        EXPECT_LE(t, prev) << "not monotone at df=" << df;
        EXPECT_GE(t, kZ95) << "below the normal quantile at df=" << df;
        prev = t;
    }
    EXPECT_DOUBLE_EQ(tQuantile975(240), kZ95);
    EXPECT_DOUBLE_EQ(tQuantile975(100'000), kZ95);
    // df 0 clamps to the df=1 value, never something tighter.
    EXPECT_DOUBLE_EQ(tQuantile975(0), 12.706);
}

TEST(TQuantile, InterpolatesBetweenKnots)
{
    // df=13 lies between the 12 and 15 knots; the interpolant must
    // stay inside them.
    double t = tQuantile975(13);
    EXPECT_LT(t, tQuantile975(12));
    EXPECT_GT(t, tQuantile975(15));
    // Against the true value t_{0.975,13} = 2.160: within ~0.5%.
    EXPECT_NEAR(t, 2.160, 0.011);
}

// ------------------------------------------------- Neyman allocation

TEST(NeymanAllocate, ProportionalToSpread)
{
    std::vector<uint64_t> give = neymanAllocate(
        {3.0, 1.0}, {0, 0}, {100, 100}, 4);
    EXPECT_EQ(give, (std::vector<uint64_t>{3, 1}));
}

TEST(NeymanAllocate, RemainderIsDeterministicLowestIndex)
{
    // 4 windows over three equal strata: floors give {1,1,1}, and the
    // leftover goes to the lowest index among equal gaps.
    std::vector<uint64_t> give = neymanAllocate(
        {1.0, 1.0, 1.0}, {0, 0, 0}, {10, 10, 10}, 4);
    EXPECT_EQ(give, (std::vector<uint64_t>{2, 1, 1}));
}

TEST(NeymanAllocate, ZeroExtraGivesNothing)
{
    std::vector<uint64_t> give =
        neymanAllocate({1.0, 2.0}, {1, 1}, {5, 5}, 0);
    EXPECT_EQ(give, (std::vector<uint64_t>{0, 0}));
}

TEST(NeymanAllocate, ZeroSpreadFallsBackToRoom)
{
    // A variance-free pilot still has to spread the budget; with no
    // windows measured yet the room-proportional fallback reduces to
    // stratum size.
    std::vector<uint64_t> give = neymanAllocate(
        {0.0, 0.0}, {0, 0}, {30, 10}, 4);
    EXPECT_EQ(give, (std::vector<uint64_t>{3, 1}));
}

TEST(NeymanAllocate, ZeroSpreadFallbackWeighsRemainingRoom)
{
    // Stratum 0's pilot already took 2 of its 4 windows, so the
    // fallback must weight by remaining room {2, 4}, not capacity
    // {4, 4} — otherwise the already-covered stratum is over-targeted
    // and the remainder loop has to redistribute the clamped excess.
    std::vector<uint64_t> give = neymanAllocate(
        {0.0, 0.0}, {2, 0}, {4, 4}, 4);
    EXPECT_EQ(give, (std::vector<uint64_t>{1, 3}));
}

TEST(NeymanAllocate, CapacityCapsAndSpillsToOthers)
{
    // Stratum 0 wants everything but only has room for 2; the rest
    // must land in stratum 1 even though its ideal share is tiny.
    // Regression: the remainder loop once initialised its best-gap
    // search at -1.0, so strata more than one window past their
    // ideal share could never absorb leftover budget and the job
    // silently measured fewer windows than the budget paid for.
    std::vector<uint64_t> give = neymanAllocate(
        {100.0, 1.0}, {0, 0}, {2, 200}, 101);
    EXPECT_EQ(give[0], 2u);
    EXPECT_EQ(give[1], 99u);
}

TEST(NeymanAllocate, StopsWhenEveryStratumIsFull)
{
    std::vector<uint64_t> give = neymanAllocate(
        {1.0, 1.0}, {1, 1}, {2, 2}, 10);
    EXPECT_EQ(give, (std::vector<uint64_t>{1, 1}));
}

TEST(NeymanAllocateDeath, RejectsMismatchedVectors)
{
    EXPECT_DEATH(neymanAllocate({1.0}, {0, 0}, {1, 1}, 1),
                 "mismatched stratum vectors");
    EXPECT_DEATH(neymanAllocate({1.0}, {3}, {2}, 1), "over-measured");
}

// ---------------------------------------------------- window grid

TEST(WindowGrid, CountIsCeilOfRegionOverWindow)
{
    WindowGrid g = makeWindowGrid(0, 10'000, 4096);
    EXPECT_EQ(g.count(), 3u);
    WindowGrid exact = makeWindowGrid(0, 8192, 4096);
    EXPECT_EQ(exact.count(), 2u);
}

TEST(WindowGrid, LastWindowClippedAtRegionEnd)
{
    WindowGrid g = makeWindowGrid(0, 10'000, 4096);
    EXPECT_EQ(g.length(0), 4096u);
    EXPECT_EQ(g.length(1), 4096u);
    EXPECT_EQ(g.length(2), 10'000u - 2 * 4096u);
    EXPECT_EQ(g.start(2) + g.length(2), 10'000u);
}

TEST(WindowGrid, WarmupClippedAtTraceStart)
{
    // A job with no warmup region: window 0 starts at record 0 and
    // has nothing before it to warm with.
    WindowGrid cold = makeWindowGrid(0, 100'000, 4096);
    EXPECT_EQ(cold.warmup(0), 0u);
    EXPECT_EQ(cold.warmup(1), 4096u);
    // Far from the edge the full kWarmupWindows lengths are used.
    EXPECT_EQ(cold.warmup(10), kWarmupWindows * 4096u);

    // With a 1000-record job warmup, window 0 can warm over exactly
    // that prefix — never records before the trace begins.
    WindowGrid warm = makeWindowGrid(1000, 100'000, 4096);
    EXPECT_EQ(warm.warmup(0), 1000u);
    EXPECT_EQ(warm.start(0), 1000u);
}

TEST(WindowGrid, FunctionalWarmupFillsHistoryBeforeDetailed)
{
    // Functional warmup takes whatever stream exists between the
    // trace start and the detailed warmup, capped at the absolute
    // kFunctionalWarmup record budget.
    WindowGrid g = makeWindowGrid(0, 1'000'000, 4096);
    EXPECT_EQ(g.functionalWarmup(0), 0u);
    // Window 2 starts at 8192 with 8192 of detailed warmup: no
    // history left to warm functionally.
    EXPECT_EQ(g.functionalWarmup(2), 0u);
    // Window 8: 32768 - 16384 detailed = 16384 functional.
    EXPECT_EQ(g.functionalWarmup(8),
              8 * 4096u - kWarmupWindows * 4096u);
    // Deep into the trace the absolute cap applies.
    EXPECT_EQ(g.functionalWarmup(100), kFunctionalWarmup);
    // Geometry never reaches before the trace: skip offset
    // start - warmup - functionalWarmup stays non-negative.
    for (uint64_t w : {0u, 1u, 2u, 5u, 8u, 30u, 100u})
        EXPECT_GE(g.start(w), g.warmup(w) + g.functionalWarmup(w));
}

TEST(WindowGridDeath, RejectsDegenerateGeometry)
{
    EXPECT_DEATH(makeWindowGrid(0, 0, 4096), "degenerate window grid");
    EXPECT_DEATH(makeWindowGrid(0, 4096, 0), "degenerate window grid");
}

// ----------------------------------------------- synthetic streams

/** Replays caller-provided value/pc columns. Every record is a
 * value-producing ALU op, so the stream also drives the profile
 * runner (the profiling pass itself ignores flags). */
class ColumnSource : public workload::TraceSource
{
  public:
    ColumnSource(std::vector<int64_t> values, uint64_t pcStride = 4)
        : values(std::move(values)), pcStride(pcStride)
    {
    }

    bool
    fill(workload::TraceChunk &chunk) override
    {
        chunk.clear();
        while (!chunk.full() && pos < values.size()) {
            workload::TraceRecord r;
            r.inst.op = isa::Opcode::Addi;
            r.inst.rd = isa::reg::t0;
            r.seq = pos;
            r.pc = pcStride * pos;
            r.nextPc = r.pc + pcStride;
            r.value = values[pos];
            chunk.push(r);
            ++pos;
        }
        return !chunk.empty();
    }

  private:
    std::vector<int64_t> values;
    uint64_t pcStride;
    size_t pos = 0;
};

/** value[i] with no periodic structure (xorshift scramble of i). */
int64_t
noise(uint64_t i)
{
    uint64_t z = i * 0x9e3779b97f4a7c15ull + 1;
    z ^= z >> 29;
    z *= 0xbf58476d1ce4e5b9ull;
    z ^= z >> 32;
    return static_cast<int64_t>(z);
}

TEST(ProfileStrata, SamePhaseSameStratumKey)
{
    // Three 512-record windows: ramp, noise, ramp. The two ramp
    // windows must fingerprint identically and differently from the
    // noise window (a ramp has constant lag-L deltas, noise has no
    // period at all).
    const uint64_t W = 512;
    std::vector<int64_t> v;
    for (uint64_t i = 0; i < W; ++i)
        v.push_back(static_cast<int64_t>(7 * i));
    for (uint64_t i = 0; i < W; ++i)
        v.push_back(noise(i));
    for (uint64_t i = 0; i < W; ++i)
        v.push_back(static_cast<int64_t>(7 * i));

    ColumnSource src(v);
    WindowGrid grid = makeWindowGrid(0, 3 * W, W);
    std::vector<StratumKey> keys = profileStrata(src, grid);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_TRUE(keys[0] == keys[2]);
    EXPECT_FALSE(keys[0] == keys[1]);
    EXPECT_EQ(keys[1].valuePeriod, 1u); // noise: no period
    EXPECT_NE(keys[0].valuePeriod, 1u); // ramp: periodic deltas
}

TEST(ProfileStrata, WindowsSkipTheJobWarmupRegion)
{
    // measuredStart != 0: the fingerprint of window 0 must come from
    // records at the region start, not the trace start. Noise before
    // the region, ramp inside — window 0 must look like a ramp.
    const uint64_t W = 512;
    std::vector<int64_t> v;
    for (uint64_t i = 0; i < W; ++i)
        v.push_back(noise(i));
    for (uint64_t i = 0; i < W; ++i)
        v.push_back(static_cast<int64_t>(3 * i));
    ColumnSource src(v);
    WindowGrid grid = makeWindowGrid(W, W, W);
    std::vector<StratumKey> keys = profileStrata(src, grid);
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_NE(keys[0].valuePeriod, 1u);
}

TEST(ProfileStrata, ShortStreamLeavesDefaultKeys)
{
    // The grid promises 4 windows but the stream ends after 2.5;
    // the windows past the end keep the default key instead of
    // crashing or inheriting a neighbour's.
    const uint64_t W = 512;
    std::vector<int64_t> v;
    for (uint64_t i = 0; i < 2 * W + W / 2; ++i)
        v.push_back(static_cast<int64_t>(5 * i));
    ColumnSource src(v);
    WindowGrid grid = makeWindowGrid(0, 4 * W, W);
    std::vector<StratumKey> keys = profileStrata(src, grid);
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_NE(keys[0].valuePeriod, 1u);
    EXPECT_TRUE(keys[3] == StratumKey{});
}

// ------------------------- profile-window measurement alignment

TEST(SampledWindowAlignment, ProfileWarmupCoversTheFunctionalSpan)
{
    // One profile-mode window, set up exactly as measureWindow does:
    // skip start - warm - fwarm records, then replay with the
    // functional span folded into the untimed warmup. The stream is
    // noise everywhere except a perfect stride ramp over the window
    // [start, start + len), so the stride predictor can only score
    // ~1 if measurement covers exactly the window. Regression: the
    // skip once budgeted for a functional-warmup phase the profile
    // replay does not have, shifting measurement up to
    // kFunctionalWarmup records before the window — into the noise.
    const uint64_t W = 4096;
    WindowGrid grid = makeWindowGrid(80'000, W, W);
    const uint64_t start = grid.start(0);
    const uint64_t warm = grid.warmup(0);
    const uint64_t fwarm = grid.functionalWarmup(0);
    ASSERT_GT(fwarm, 0u);

    std::vector<int64_t> v(start + W);
    for (uint64_t i = 0; i < v.size(); ++i)
        v[i] = noise(i);
    for (uint64_t i = start; i < start + W; ++i)
        v[i] = static_cast<int64_t>(7 * (i - start));

    ColumnSource base(v, 0); // one pc: a single predictor site
    workload::SkipTraceSource src(base, start - warm - fwarm);

    predictors::StridePredictor stride(0);
    sim::ProfileConfig cfg;
    cfg.maxInstructions = W;
    cfg.warmupInstructions = fwarm + warm;
    cfg.allowLongWarmup = true;
    sim::ValueProfileRunner prof(cfg);
    prof.addPredictor(stride);
    prof.run(src);

    EXPECT_EQ(prof.measuredRecords(), W);
    EXPECT_GT(prof.results()[0].accuracyAll.value(), 0.99);
}

// ------------------------------------------------- SkipTraceSource

/** Collect (seq, pc, value) of every record @p src still yields. */
std::vector<std::array<uint64_t, 3>>
drain(workload::TraceSource &src)
{
    std::vector<std::array<uint64_t, 3>> out;
    auto scratch = std::make_unique<workload::TraceChunk>();
    const workload::TraceChunk *c;
    while ((c = src.fillRef(*scratch)) != nullptr)
        for (uint32_t i = 0; i < c->size; ++i)
            out.push_back({c->seq[i], c->pc[i],
                           static_cast<uint64_t>(c->value[i])});
    return out;
}

TEST(SkipTraceSource, EquivalentToDroppingThePrefix)
{
    // 2.5 chunks of records; skip offsets probe the start, both
    // sides of each 4096-record chunk boundary, a mid-chunk point,
    // and past the end of the stream.
    const uint64_t N = 2 * workload::TraceChunk::capacity + 2048;
    std::vector<int64_t> v;
    for (uint64_t i = 0; i < N; ++i)
        v.push_back(noise(i));

    const std::vector<uint64_t> offsets = {
        0, 1, 4095, 4096, 4097, 8191, 8192, 9000, N, N + 100};
    for (uint64_t skip : offsets) {
        ColumnSource ref(v);
        std::vector<std::array<uint64_t, 3>> expect = drain(ref);
        expect.erase(expect.begin(),
                     expect.begin() +
                         std::min<uint64_t>(skip, expect.size()));

        ColumnSource base(v);
        workload::SkipTraceSource skipped(base, skip);
        std::vector<std::array<uint64_t, 3>> got = drain(skipped);

        ASSERT_EQ(got.size(), expect.size()) << "skip=" << skip;
        EXPECT_EQ(got, expect) << "skip=" << skip;
    }
}

// -------------------------------------------- whole sampled jobs

runner::JobSpec
pipelineSpec()
{
    runner::JobSpec spec;
    spec.mode = runner::JobMode::Pipeline;
    spec.workload = "mcf";
    spec.scheme = "baseline";
    spec.order = 32;
    spec.tableEntries = 8192;
    spec.seed = 1;
    spec.instructions = 50'000;
    spec.warmup = 10'000;
    spec.sampleBudget = 20'000;
    spec.sampleWindow = 4096;
    spec.sampleSeed = 1;
    return spec;
}

TEST(SampledJob, BudgetCoveringRegionDegradesToFullRun)
{
    workload::TraceCache cache;
    runner::JobSpec spec = pipelineSpec();
    spec.sampleBudget = spec.instructions; // >= region: nothing to sample

    runner::JobSpec full = spec;
    full.sampleBudget = 0;
    runner::JobResult exact = runner::runJob(full, &cache);
    runner::JobResult got = runSampledJob(spec, &cache, 2);

    // Bit-identical to the full run, with zero-width intervals and
    // the sampled metadata marking the degenerate path.
    EXPECT_EQ(got.metric("ipc"), exact.metric("ipc"));
    EXPECT_EQ(got.metric("ipc_ci_lo"), got.metric("ipc"));
    EXPECT_EQ(got.metric("ipc_ci_hi"), got.metric("ipc"));
    EXPECT_EQ(got.metric("ipc_se"), 0.0);
    EXPECT_EQ(got.metric("vp_coverage_ci_lo"),
              got.metric("vp_coverage_ci_hi"));
    EXPECT_EQ(got.metric("sample_windows"), 0.0);
    EXPECT_EQ(got.metric("sample_strata"), 1.0);
    EXPECT_EQ(got.metric("sample_budget"),
              static_cast<double>(spec.sampleBudget));
}

TEST(SampledJob, DeterministicAcrossRunsAndThreadCounts)
{
    workload::TraceCache cache;
    runner::JobSpec spec = pipelineSpec();
    runner::JobResult a = runSampledJob(spec, &cache, 1);
    runner::JobResult b = runSampledJob(spec, &cache, 1);
    runner::JobResult c = runSampledJob(spec, &cache, 4);

    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    ASSERT_EQ(a.metrics.size(), c.metrics.size());
    for (size_t i = 0; i < a.metrics.size(); ++i) {
        EXPECT_EQ(a.metrics[i].first, b.metrics[i].first);
        EXPECT_EQ(a.metrics[i].second, b.metrics[i].second)
            << a.metrics[i].first;
        EXPECT_EQ(a.metrics[i].first, c.metrics[i].first);
        EXPECT_EQ(a.metrics[i].second, c.metrics[i].second)
            << a.metrics[i].first << " differs at 4 threads";
    }
}

TEST(SampledJob, DiskLoadedTraceMatchesGeneratedTrace)
{
    // A disk-loaded trace decodes blocks on demand (pc/value only in
    // the profiling pass, whole blocks in the windows); the sampled
    // result must not notice, in either mode or at any thread count.
    const std::string root = ::testing::TempDir() + "/gdiff_sample_disk_" +
                             std::to_string(::getpid());
    runner::JobSpec pipe = pipelineSpec();
    pipe.scheme = "hgvq";
    runner::JobSpec prof;
    prof.mode = runner::JobMode::Profile;
    prof.workload = "gzip";
    prof.predictor = "stride";
    prof.seed = 1;
    prof.instructions = 50'000;
    prof.warmup = 10'000;
    prof.sampleBudget = 20'000;
    prof.sampleWindow = 4096;

    for (const runner::JobSpec &spec : {pipe, prof}) {
        std::filesystem::remove_all(root);
        workload::TraceCache generated;
        {
            workload::TraceCache store;
            store.setDiskRoot(root);
            ASSERT_TRUE(store.acquire(spec.workload, spec.seed,
                                      spec.warmup + spec.instructions)
                            .generated);
        }
        for (unsigned threads : {1u, 4u}) {
            runner::JobResult want = runSampledJob(spec, &generated, threads);
            workload::TraceCache disk;
            disk.setDiskRoot(root);
            runner::JobResult got = runSampledJob(spec, &disk, threads);
            workload::TraceCache::Stats st = disk.snapshot();
            EXPECT_EQ(st.diskHits, 1u) << spec.label();
            EXPECT_EQ(st.generations, 0u) << spec.label();
            EXPECT_TRUE(got.traceFromDisk) << spec.label();
            ASSERT_EQ(got.metrics.size(), want.metrics.size());
            for (size_t i = 0; i < want.metrics.size(); ++i) {
                EXPECT_EQ(got.metrics[i].first, want.metrics[i].first);
                EXPECT_EQ(got.metrics[i].second, want.metrics[i].second)
                    << spec.label() << " " << want.metrics[i].first
                    << " at " << threads << " threads";
            }
        }
    }
    std::filesystem::remove_all(root);
}

TEST(SampledJob, SeedSelectsDifferentWindows)
{
    workload::TraceCache cache;
    runner::JobSpec spec = pipelineSpec();
    runner::JobResult a = runSampledJob(spec, &cache, 2);
    spec.sampleSeed = 2;
    runner::JobResult b = runSampledJob(spec, &cache, 2);
    // Same budget and geometry either way...
    EXPECT_EQ(a.metric("sample_budget"), b.metric("sample_budget"));
    // ...but another seed draws other windows, so the estimate moves
    // (mcf's windows genuinely differ; identical estimates would mean
    // the seed is ignored).
    EXPECT_NE(a.metric("ipc"), b.metric("ipc"));
}

TEST(SampledJob, IntervalBracketsTheEstimateAndCiColumnsExist)
{
    workload::TraceCache cache;
    runner::JobSpec spec = pipelineSpec();
    runner::JobResult r = runSampledJob(spec, &cache, 2);

    double ipc = r.metric("ipc");
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(r.metric("ipc_ci_lo"), ipc);
    EXPECT_GE(r.metric("ipc_ci_hi"), ipc);
    EXPECT_LE(r.metric("vp_coverage_ci_lo"),
              r.metric("vp_coverage"));
    EXPECT_GE(r.metric("vp_coverage_ci_hi"),
              r.metric("vp_coverage"));

    // Budget of 20k / 4096-record windows: 4 measured windows.
    EXPECT_EQ(r.metric("sample_windows"), 4.0);
    EXPECT_GE(r.metric("sample_strata"), 1.0);
    // Every stratum needs a pilot pair, so K windows can support at
    // most K/2 strata (the collapse rule).
    EXPECT_LE(r.metric("sample_strata"), 2.0);
}

TEST(SampledJob, ProfileModeReportsAccuracyIntervals)
{
    workload::TraceCache cache;
    runner::JobSpec spec;
    spec.mode = runner::JobMode::Profile;
    spec.workload = "gzip";
    spec.predictor = "stride";
    spec.seed = 1;
    spec.instructions = 50'000;
    spec.warmup = 10'000;
    spec.sampleBudget = 20'000;
    spec.sampleWindow = 4096;
    runner::JobResult r = runSampledJob(spec, &cache, 2);

    double acc = r.metric("accuracy");
    EXPECT_GT(acc, 0.0);
    EXPECT_LE(acc, 1.0);
    EXPECT_LE(r.metric("accuracy_ci_lo"), acc);
    EXPECT_GE(r.metric("accuracy_ci_hi"), acc);
    EXPECT_LE(r.metric("coverage_ci_lo"), r.metric("coverage"));
    EXPECT_GE(r.metric("gated_accuracy_ci_hi"),
              r.metric("gated_accuracy"));
    EXPECT_EQ(r.metric("sample_windows"), 4.0);
}

// ------------------------------------------------- pinned results

/** One metric of a pinned result, its value as exact bits. */
struct Pin
{
    const char *name;
    double value;
};

/** Check @p r's whole metric vector, names, order and bits. */
void
expectPinned(const runner::JobResult &r, const std::vector<Pin> &want)
{
    ASSERT_EQ(r.metrics.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r.metrics[i].first, want[i].name) << i;
        EXPECT_EQ(r.metrics[i].second, want[i].value) << want[i].name;
    }
}

runner::JobSpec
hgvqSpec()
{
    runner::JobSpec spec = pipelineSpec();
    spec.scheme = "hgvq";
    return spec;
}

runner::JobSpec
gdiffProfileSpec()
{
    runner::JobSpec spec;
    spec.mode = runner::JobMode::Profile;
    spec.workload = "gzip";
    spec.predictor = "gdiff";
    spec.order = 8;
    spec.seed = 1;
    spec.instructions = 50'000;
    spec.warmup = 10'000;
    spec.sampleBudget = 20'000;
    spec.sampleWindow = 4096;
    return spec;
}

// The pins below were captured before the sampler's windows ran the
// runner's own job bodies; any change to a sampled column's value,
// name or position fails here.

TEST(SampledPins, PipelineHgvqJob)
{
    workload::TraceCache cache;
    expectPinned(runSampledJob(hgvqSpec(), &cache, 2), {
        {"ipc", 0x1.344b8e0b187b5p+1},
        {"ipc_ci_lo", 0x1.1aec584300c5bp+1},
        {"ipc_ci_hi", 0x1.52aa7a6cbc474p+1},
        {"ipc_se", 0x1.9b34db7952a1p-5},
        {"cycles", 0x1.445d505cca262p+14},
        {"dcache_miss_rate", 0x1.d24f55fa4e1c6p-3},
        {"branch_accuracy", 0x1.e8739f3c956dep-1},
        {"vp_coverage", 0x1.d00a05572708cp-1},
        {"vp_coverage_ci_lo", 0x1.b910fe086ead2p-1},
        {"vp_coverage_ci_hi", 0x1.e7030ca5df646p-1},
        {"vp_accuracy", 0x1.a7209c28ee03ap-1},
        {"vp_accuracy_ci_lo", 0x1.910a9f428272ep-1},
        {"vp_accuracy_ci_hi", 0x1.bd36990f59946p-1},
        {"miss_load_coverage", 0x1.ad575e91faaa4p-1},
        {"miss_load_accuracy", 0x1.50d963f8920ep-1},
        {"avg_value_delay", 0x1.5d6b049592b76p+4},
        {"sample_budget", 0x1.388p+14},
        {"sample_window", 0x1p+12},
        {"sample_windows", 0x1p+2},
        {"sample_strata", 0x1p+1},
    });
}

TEST(SampledPins, ProfileGdiffJob)
{
    workload::TraceCache cache;
    expectPinned(runSampledJob(gdiffProfileSpec(), &cache, 2), {
        {"accuracy", 0x1.596a7dec8c5f2p-1},
        {"accuracy_ci_lo", 0x1.527a102369556p-1},
        {"accuracy_ci_hi", 0x1.605aebb5af68ep-1},
        {"coverage", 0x1.67777e011b425p-1},
        {"coverage_ci_lo", 0x1.5c4e49dceffb8p-1},
        {"coverage_ci_hi", 0x1.72a0b22546892p-1},
        {"gated_accuracy", 0x1.e70ebd77de8bap-1},
        {"gated_accuracy_ci_lo", 0x1.e4493004713e3p-1},
        {"gated_accuracy_ci_hi", 0x1.e9d44aeb4bd91p-1},
        {"sample_budget", 0x1.388p+14},
        {"sample_window", 0x1p+12},
        {"sample_windows", 0x1p+2},
        {"sample_strata", 0x1p+0},
    });
}

TEST(SampledPins, BudgetCoveringRegionInEitherMode)
{
    workload::TraceCache cache;
    runner::JobSpec pipe = hgvqSpec();
    pipe.sampleBudget = pipe.instructions;
    expectPinned(runSampledJob(pipe, &cache, 2), {
        {"ipc", 0x1.31e22b951029bp+1},
        {"ipc_ci_lo", 0x1.31e22b951029bp+1},
        {"ipc_ci_hi", 0x1.31e22b951029bp+1},
        {"ipc_se", 0x0p+0},
        {"cycles", 0x1.46ecp+14},
        {"dcache_miss_rate", 0x1.d4660556dd235p-3},
        {"branch_accuracy", 0x1.ea3a3b9d8156dp-1},
        {"vp_coverage", 0x1.9f9ac90d66712p-1},
        {"vp_coverage_ci_lo", 0x1.9f9ac90d66712p-1},
        {"vp_coverage_ci_hi", 0x1.9f9ac90d66712p-1},
        {"vp_accuracy", 0x1.6834a8b86dfd3p-1},
        {"vp_accuracy_ci_lo", 0x1.6834a8b86dfd3p-1},
        {"vp_accuracy_ci_hi", 0x1.6834a8b86dfd3p-1},
        {"miss_load_coverage", 0x1.af6060c8ca98ep-1},
        {"miss_load_accuracy", 0x1.5215379d6a318p-1},
        {"avg_value_delay", 0x1.5c92c580da65bp+4},
        {"sample_budget", 0x1.86ap+15},
        {"sample_window", 0x1p+12},
        {"sample_windows", 0x0p+0},
        {"sample_strata", 0x1p+0},
    });
    runner::JobSpec prof = gdiffProfileSpec();
    prof.sampleBudget = prof.instructions + 1;
    expectPinned(runSampledJob(prof, &cache, 2), {
        {"accuracy", 0x1.5960eb8cbd2c8p-1},
        {"accuracy_ci_lo", 0x1.5960eb8cbd2c8p-1},
        {"accuracy_ci_hi", 0x1.5960eb8cbd2c8p-1},
        {"coverage", 0x1.66ea6ff3dd3d6p-1},
        {"coverage_ci_lo", 0x1.66ea6ff3dd3d6p-1},
        {"coverage_ci_hi", 0x1.66ea6ff3dd3d6p-1},
        {"gated_accuracy", 0x1.e77444a11fdf6p-1},
        {"gated_accuracy_ci_lo", 0x1.e77444a11fdf6p-1},
        {"gated_accuracy_ci_hi", 0x1.e77444a11fdf6p-1},
        {"sample_budget", 0x1.86a2p+15},
        {"sample_window", 0x1p+12},
        {"sample_windows", 0x0p+0},
        {"sample_strata", 0x1p+0},
    });
}

TEST(SampledJobDeath, RejectsFullTraceSpec)
{
    workload::TraceCache cache;
    runner::JobSpec spec = pipelineSpec();
    spec.sampleBudget = 0;
    EXPECT_DEATH(runSampledJob(spec, &cache, 1), "full-trace spec");
}

// ------------------------------------------------- spec validation

TEST(SampledSpecValidation, WindowLongerThanRegionIsRejected)
{
    runner::JobSpec spec = pipelineSpec();
    spec.sampleWindow = spec.instructions + 1;
    spec.sampleBudget = spec.sampleWindow;
    std::string error;
    EXPECT_FALSE(spec.validateOr(&error));
    EXPECT_NE(error.find("longer than the measured region"),
              std::string::npos)
        << error;
    EXPECT_DEATH(spec.validate(), "longer than the measured region");
}

TEST(SampledSpecValidation, BudgetBelowOneWindowIsRejected)
{
    runner::JobSpec spec = pipelineSpec();
    spec.sampleBudget = spec.sampleWindow - 1;
    std::string error;
    EXPECT_FALSE(spec.validateOr(&error));
    EXPECT_NE(error.find("fits zero windows"), std::string::npos)
        << error;
}

TEST(SampledSpecValidation, ZeroWindowLengthIsRejected)
{
    runner::JobSpec spec = pipelineSpec();
    spec.sampleWindow = 0;
    std::string error;
    EXPECT_FALSE(spec.validateOr(&error));
    EXPECT_NE(error.find("window length must be > 0"),
              std::string::npos)
        << error;
}

TEST(SampledSpecValidation, ZeroBudgetMeansFullTraceAndAlwaysValid)
{
    runner::JobSpec spec = pipelineSpec();
    spec.sampleBudget = 0;
    spec.sampleWindow = 0; // ignored without a budget
    std::string error;
    EXPECT_TRUE(spec.validateOr(&error)) << error;
    EXPECT_FALSE(spec.sampled());
}

} // namespace
