#include "sample/sample.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "obs/obs.hh"
#include "pipeline/config.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "sample/estimator.hh"
#include "sim/profile.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace sample {

WindowGrid
makeWindowGrid(uint64_t measuredStart, uint64_t measuredRecords,
               uint64_t windowRecords)
{
    GDIFF_ASSERT(measuredRecords > 0 && windowRecords > 0,
                 "degenerate window grid (%llu records, %llu window)",
                 static_cast<unsigned long long>(measuredRecords),
                 static_cast<unsigned long long>(windowRecords));
    WindowGrid g;
    g.measuredStart = measuredStart;
    g.measuredRecords = measuredRecords;
    g.windowRecords = windowRecords;
    return g;
}

std::vector<StratumKey>
profileStrata(workload::TraceSource &src, const WindowGrid &grid,
              unsigned threads)
{
    const uint64_t count = grid.count();
    std::vector<StratumKey> keys(count);
    auto scratch = std::make_unique<workload::TraceChunk>();
    // Per-window scan-prefix copies: collected in one sequential
    // stream walk, fingerprinted in parallel below.
    std::vector<std::vector<uint64_t>> vals(count), pcs(count);

    // Range walk, not a per-record loop: for each chunk, intersect it
    // with the window prefixes it overlaps and bulk-copy just those
    // subranges. Records outside a scan prefix (the vast majority at
    // realistic window sizes) cost a few index computations per
    // chunk, so the pass stays cheap next to the measured windows.
    // Whole chunks before the region are stepped over, and only the
    // pc and value columns are read: a disk-loaded trace decodes
    // those two columns and nothing else.
    const uint64_t end = grid.measuredStart + grid.measuredRecords;
    uint64_t pos = src.skipChunks(grid.measuredStart);
    while (pos < end) {
        const workload::TraceChunk *c = src.fillPcValue(*scratch);
        if (!c)
            break; // stream shorter than promised: default keys stay
        const uint64_t cStart = pos;
        pos += c->size;
        const uint64_t lo = std::max(cStart, grid.measuredStart);
        const uint64_t hi = std::min(pos, end);
        if (lo >= hi)
            continue;
        uint64_t w = (lo - grid.measuredStart) / grid.windowRecords;
        const uint64_t wLast =
            (hi - 1 - grid.measuredStart) / grid.windowRecords;
        for (; w <= wLast; ++w) {
            const uint64_t wStart = grid.start(w);
            const uint64_t scanEnd =
                wStart + std::min<uint64_t>(kScanPrefix,
                                            grid.length(w));
            const uint64_t a = std::max(lo, wStart);
            const uint64_t b = std::min(hi, scanEnd);
            if (a >= b)
                continue;
            vals[w].reserve(kScanPrefix);
            pcs[w].reserve(kScanPrefix);
            for (uint64_t p = a - cStart; p < b - cStart; ++p) {
                vals[w].push_back(
                    static_cast<uint64_t>(c->value[p]));
                pcs[w].push_back(c->pc[p]);
            }
        }
    }

    // The period scans dominate the pass (O(maxPeriod x prefix) per
    // window) and are independent, so they parallelize; each key is
    // a pure function of its own prefix, making the result identical
    // for any thread count.
    runner::ThreadPool pool(threads == 0 ? 1 : threads);
    pool.forEach(count, [&](size_t w) {
        if (vals[w].empty())
            return; // past a short stream's end: default key
        keys[w].valuePeriod = workload::detectStridePeriod(
            vals[w].data(), static_cast<uint32_t>(vals[w].size()));
        keys[w].pcPeriod = workload::detectStridePeriod(
            pcs[w].data(), static_cast<uint32_t>(pcs[w].size()));
    });
    return keys;
}

namespace {

using runner::JobMode;
using runner::JobResult;
using runner::JobSpec;

/** Decorrelated per-stratum selection seed (SplitMix64 scramble). */
uint64_t
mixSeed(uint64_t seed, uint64_t stratum)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stratum + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One measured window's raw output. */
struct WindowResult
{
    uint64_t window = 0;
    /// measured records (0 when the window fell off a short stream,
    /// in which case it contributes nothing)
    double weight = 0.0;
    std::vector<double> values; ///< window metrics, mode-fixed order
};

/// Window-metric order, pipeline mode. Element 0 is the Neyman
/// target and the headline estimate: CPI, not IPC — the
/// record-weighted CPI mean converges to the full run's
/// total-cycles / total-instructions, where a mean of window IPCs
/// would not (mean-of-ratios bias).
const char *const kPipelineMetrics[] = {
    "cpi",         "dcache_miss_rate",   "branch_accuracy",
    "vp_coverage", "vp_accuracy",        "miss_load_coverage",
    "miss_load_accuracy", "avg_value_delay",
};

/// Window-metric order, profile mode (element 0 = Neyman target).
const char *const kProfileMetrics[] = {"accuracy", "coverage",
                                       "gated_accuracy"};

/** Open the job's record stream from the beginning. */
std::unique_ptr<workload::TraceSource>
openStream(const JobSpec &spec, workload::TraceCache *cache,
           workload::TraceCache::Acquired *meta)
{
    if (cache) {
        workload::TraceCache::Acquired acq = cache->acquire(
            spec.workload, spec.seed, spec.warmup + spec.instructions);
        std::unique_ptr<workload::TraceSource> src =
            std::move(acq.source);
        if (meta)
            *meta = std::move(acq);
        return src;
    }
    workload::Workload w =
        workload::makeWorkload(spec.workload, spec.seed);
    return w.makeExecutor();
}

/** Fast-forward, warm, and measure one window. */
WindowResult
measureWindow(const JobSpec &spec, const WindowGrid &grid, uint64_t w,
              workload::TraceCache *cache)
{
    WindowResult r;
    r.window = w;
    const uint64_t start = grid.start(w);
    const uint64_t len = grid.length(w);
    const uint64_t warm = grid.warmup(w);
    const uint64_t fwarm = grid.functionalWarmup(w);

    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t t0 = obsOn ? obs::nowNs() : 0;

    std::unique_ptr<workload::TraceSource> base =
        openStream(spec, cache, nullptr);
    workload::SkipTraceSource src(*base, start - warm - fwarm);

    if (spec.mode == JobMode::Pipeline) {
        auto scheme =
            runner::makeScheme(spec.scheme, spec.order,
                               spec.tableEntries);
        pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                                   *scheme);
        // Two-stage SMARTS warming (a long functional history for
        // the slow-converging structures, then detailed warmup for
        // the in-flight state) with retire-to-retire cycle
        // accounting: window cycle counts must tile the continuous
        // run (see OooPipeline::run).
        pipeline::PipelineStats s =
            pipe.run(src, len, warm, true, fwarm);
        if (s.instructions > 0) {
            r.weight = static_cast<double>(s.instructions);
            double cpi = static_cast<double>(s.cycles) /
                         static_cast<double>(s.instructions);
            r.values = {cpi,
                        s.dcacheMissRate,
                        s.branchAccuracy,
                        s.coverage.value(),
                        s.gatedAccuracy.value(),
                        s.missLoadCoverage.value(),
                        s.missLoadAccuracy.value(),
                        s.valueDelay.mean()};
        }
    } else {
        auto pred = runner::makePredictor(spec.predictor, spec.order,
                                          spec.tableEntries);
        sim::ProfileConfig cfg;
        cfg.maxInstructions = len;
        // The profile replay has no timing model, so its warmup phase
        // already *is* functional warming: fold the functional-warmup
        // span into it. The runner then consumes exactly the
        // fwarm + warm + len records the skip above left it at, so
        // measurement covers [start, start + len) — aligned with the
        // window's stratum fingerprint, same as the pipeline branch.
        cfg.warmupInstructions = fwarm + warm;
        // A window legitimately warms as many records as it measures.
        cfg.allowLongWarmup = true;
        sim::ValueProfileRunner prof(cfg);
        prof.addPredictor(*pred);
        prof.run(src);
        const uint64_t meas = prof.measuredRecords();
        if (meas > 0) {
            const sim::ProfileSeries &s = prof.results().front();
            r.weight = static_cast<double>(meas);
            r.values = {s.accuracyAll.value(), s.coverage.value(),
                        s.accuracyGated.value()};
        }
    }

    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.histogram("sample.window_us")
            ->record((obs::nowNs() - t0) / 1'000);
    }
    return r;
}

/** The shared sample_* metadata tail of every sampled result. */
void
appendSampleMeta(std::vector<std::pair<std::string, double>> &m,
                 const JobSpec &spec, uint64_t measuredWindows,
                 uint64_t strata)
{
    m.emplace_back("sample_budget",
                   static_cast<double>(spec.sampleBudget));
    m.emplace_back("sample_window",
                   static_cast<double>(spec.sampleWindow));
    m.emplace_back("sample_windows",
                   static_cast<double>(measuredWindows));
    m.emplace_back("sample_strata", static_cast<double>(strata));
}

/**
 * A budget covering the whole measured region degrades to one full
 * simulation; the result is re-laid-out in the sampled column order
 * with zero-width intervals, so mixed sweeps stay column-compatible.
 */
JobResult
degenerateResult(const JobSpec &spec, JobResult base)
{
    std::vector<std::pair<std::string, double>> m;
    auto exact = [&](const char *name) {
        double v = base.metric(name);
        m.emplace_back(name, v);
        m.emplace_back(std::string(name) + "_ci_lo", v);
        m.emplace_back(std::string(name) + "_ci_hi", v);
        return v;
    };
    if (spec.mode == JobMode::Pipeline) {
        exact("ipc");
        m.emplace_back("ipc_se", 0.0);
        m.emplace_back("cycles", base.metric("cycles"));
        m.emplace_back("dcache_miss_rate",
                       base.metric("dcache_miss_rate"));
        m.emplace_back("branch_accuracy",
                       base.metric("branch_accuracy"));
        exact("vp_coverage");
        exact("vp_accuracy");
        m.emplace_back("miss_load_coverage",
                       base.metric("miss_load_coverage"));
        m.emplace_back("miss_load_accuracy",
                       base.metric("miss_load_accuracy"));
        m.emplace_back("avg_value_delay",
                       base.metric("avg_value_delay"));
    } else {
        exact("accuracy");
        exact("coverage");
        exact("gated_accuracy");
    }
    appendSampleMeta(m, spec, 0, 1);
    base.metrics = std::move(m);
    return base;
}

} // anonymous namespace

JobResult
runSampledJob(const JobSpec &spec, workload::TraceCache *cache,
              unsigned threads)
{
    spec.validate();
    GDIFF_ASSERT(spec.sampled(),
                 "runSampledJob on a full-trace spec (%s)",
                 spec.label().c_str());
    auto t0 = std::chrono::steady_clock::now();

    if (spec.sampleBudget >= spec.instructions) {
        // The budget pays for the whole region: sampling would only
        // add estimator noise on top of the exact answer.
        JobSpec full = spec;
        full.sampleBudget = 0;
        return degenerateResult(spec, runner::runJob(full, cache));
    }

    GDIFF_OBS_SPAN("sample.job");
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();

    WindowGrid grid = makeWindowGrid(spec.warmup, spec.instructions,
                                     spec.sampleWindow);
    const uint64_t K =
        std::min(spec.sampleBudget / spec.sampleWindow, grid.count());

    // ---- Phase 1: one cheap streaming pass fingerprints every
    // window's loop phase (and materializes the shared trace).
    workload::TraceCache::Acquired acq;
    std::vector<StratumKey> keys;
    {
        GDIFF_OBS_SPAN("sample.profile");
        std::unique_ptr<workload::TraceSource> src =
            openStream(spec, cache, &acq);
        keys = profileStrata(*src, grid, threads);
    }

    // Group windows into strata in first-seen key order.
    std::vector<StratumKey> uniq;
    std::vector<std::vector<uint64_t>> members;
    for (uint64_t w = 0; w < keys.size(); ++w) {
        size_t h = 0;
        while (h < uniq.size() && !(uniq[h] == keys[w]))
            ++h;
        if (h == uniq.size()) {
            uniq.push_back(keys[w]);
            members.emplace_back();
        }
        members[h].push_back(w);
    }
    // A stratum needs a pilot *pair* before its variance means
    // anything; if the window budget cannot give every stratum two,
    // collapse to plain (single-stratum) systematic-random sampling.
    if (members.size() > 1 && K < 2 * members.size()) {
        members.assign(1, std::vector<uint64_t>());
        members[0].resize(keys.size());
        for (uint64_t w = 0; w < keys.size(); ++w)
            members[0][w] = w;
    }
    const size_t H = members.size();

    std::vector<uint32_t> windowStratum(keys.size(), 0);
    std::vector<double> stratumWeight(H, 0.0);
    for (size_t h = 0; h < H; ++h) {
        for (uint64_t w : members[h]) {
            windowStratum[w] = static_cast<uint32_t>(h);
            stratumWeight[h] += static_cast<double>(grid.length(w));
        }
    }

    // Seeded per-stratum shuffle: the measurement order within a
    // stratum is a deterministic function of (sampleSeed, stratum).
    for (size_t h = 0; h < H; ++h) {
        Xorshift64Star rng(mixSeed(spec.sampleSeed, h));
        auto &m = members[h];
        for (size_t i = m.size(); i > 1; --i)
            std::swap(m[i - 1], m[rng.below(i)]);
    }

    // ---- Phase 2a: pilot pass (up to two windows per stratum).
    std::vector<uint64_t> pilot(H, 0);
    if (H == 1) {
        pilot[0] = std::min<uint64_t>(
            {2, static_cast<uint64_t>(members[0].size()), K});
    } else {
        for (size_t h = 0; h < H; ++h)
            pilot[h] = std::min<uint64_t>(
                2, static_cast<uint64_t>(members[h].size()));
    }

    std::vector<WindowResult> measured;
    runner::ThreadPool pool(threads == 0 ? 1 : threads);
    auto measureSet = [&](const std::vector<uint64_t> &windows,
                          const char *phase) {
        GDIFF_OBS_SPAN(phase);
        size_t base = measured.size();
        measured.resize(base + windows.size());
        pool.forEach(windows.size(), [&](size_t i) {
            measured[base + i] =
                measureWindow(spec, grid, windows[i], cache);
        });
    };

    std::vector<uint64_t> select;
    for (size_t h = 0; h < H; ++h)
        for (uint64_t j = 0; j < pilot[h]; ++j)
            select.push_back(members[h][j]);
    measureSet(select, "sample.pilot");

    // ---- Phase 2b: Neyman allocation of the remaining budget,
    // proportional to stratum weight x pilot standard deviation of
    // the target metric (CPI / accuracy).
    uint64_t pilotTotal = 0;
    for (uint64_t p : pilot)
        pilotTotal += p;
    std::vector<double> spread(H, 0.0);
    {
        std::vector<std::vector<double>> pilotVals(H);
        for (const WindowResult &r : measured)
            if (r.weight > 0)
                pilotVals[windowStratum[r.window]].push_back(
                    r.values[0]);
        for (size_t h = 0; h < H; ++h) {
            const auto &v = pilotVals[h];
            if (v.size() < 2)
                continue;
            double mean = 0.0;
            for (double x : v)
                mean += x;
            mean /= static_cast<double>(v.size());
            double s2 = 0.0;
            for (double x : v)
                s2 += (x - mean) * (x - mean);
            s2 /= static_cast<double>(v.size()) - 1.0;
            spread[h] = stratumWeight[h] * std::sqrt(s2);
        }
    }
    std::vector<uint64_t> capacity(H, 0);
    for (size_t h = 0; h < H; ++h)
        capacity[h] = members[h].size();
    std::vector<uint64_t> give =
        neymanAllocate(spread, pilot, capacity, K - pilotTotal);

    select.clear();
    for (size_t h = 0; h < H; ++h)
        for (uint64_t j = pilot[h]; j < pilot[h] + give[h]; ++j)
            select.push_back(members[h][j]);
    measureSet(select, "sample.measure");

    // ---- Phase 3: stratified estimates, walking windows in id order
    // (aggregation must not depend on measurement completion order).
    const size_t nMetrics = spec.mode == JobMode::Pipeline
                                ? std::size(kPipelineMetrics)
                                : std::size(kProfileMetrics);
    std::vector<std::vector<const WindowResult *>> byStratum(H);
    uint64_t usedWindows = 0;
    for (const WindowResult &r : measured) {
        if (r.weight <= 0)
            continue; // fell off a short stream
        byStratum[windowStratum[r.window]].push_back(&r);
        ++usedWindows;
    }
    for (auto &v : byStratum)
        std::sort(v.begin(), v.end(),
                  [](const WindowResult *a, const WindowResult *b) {
                      return a->window < b->window;
                  });
    GDIFF_ASSERT(usedWindows > 0,
                 "sampled job %s measured no usable windows (stream "
                 "shorter than its warmup?)",
                 spec.label().c_str());

    size_t activeStrata = 0;
    for (const auto &v : byStratum)
        if (!v.empty())
            ++activeStrata;
    // Interval width from the t distribution: the variance estimate
    // rests on usedWindows - activeStrata degrees of freedom, and at
    // pilot-sized samples a plain z interval under-covers badly.
    const double z = tQuantile975(
        usedWindows > activeStrata ? usedWindows - activeStrata : 1);

    std::vector<MetricEstimate> est(nMetrics);
    for (size_t m = 0; m < nMetrics; ++m) {
        std::vector<StratumSamples> strata;
        for (size_t h = 0; h < H; ++h) {
            if (byStratum[h].empty())
                continue; // short-stream stratum: no usable windows
            StratumSamples s;
            s.weight = stratumWeight[h];
            s.population = members[h].size();
            for (const WindowResult *r : byStratum[h]) {
                s.values.push_back(r->values[m]);
                s.weights.push_back(r->weight);
            }
            strata.push_back(std::move(s));
        }
        est[m] = stratifiedEstimate(strata, z);
    }

    JobResult result;
    auto interval = [&](const char *name, const MetricEstimate &e) {
        result.metrics.emplace_back(name, e.mean);
        result.metrics.emplace_back(std::string(name) + "_ci_lo",
                                    e.ciLo);
        result.metrics.emplace_back(std::string(name) + "_ci_hi",
                                    e.ciHi);
    };
    if (spec.mode == JobMode::Pipeline) {
        // IPC through CPI inversion: see kPipelineMetrics.
        MetricEstimate ipc = invertEstimate(est[0]);
        interval("ipc", ipc);
        result.metrics.emplace_back("ipc_se", ipc.stdError);
        result.metrics.emplace_back(
            "cycles",
            est[0].mean * static_cast<double>(spec.instructions));
        result.metrics.emplace_back("dcache_miss_rate", est[1].mean);
        result.metrics.emplace_back("branch_accuracy", est[2].mean);
        interval("vp_coverage", est[3]);
        interval("vp_accuracy", est[4]);
        result.metrics.emplace_back("miss_load_coverage", est[5].mean);
        result.metrics.emplace_back("miss_load_accuracy", est[6].mean);
        result.metrics.emplace_back("avg_value_delay", est[7].mean);
    } else {
        interval("accuracy", est[0]);
        interval("coverage", est[1]);
        interval("gated_accuracy", est[2]);
    }
    appendSampleMeta(result.metrics, spec, usedWindows, H);

    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.addCount("sample.windows", usedWindows);
        reg.addCount("sample.strata", H);
    }

    result.traceReplayed = !acq.generated && cache != nullptr;
    result.traceFromDisk = acq.fromDisk;
    result.traceGenerateSeconds = acq.generateSeconds;
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    result.wallSeconds = dt.count();
    // Effective rate over the *represented* region — this is the
    // number that shows the sampling speedup next to a full run.
    uint64_t total = spec.instructions + spec.warmup;
    result.instructionsPerSec =
        result.wallSeconds > 0
            ? static_cast<double>(total) / result.wallSeconds
            : 0.0;
    return result;
}

void
install()
{
    runner::setSampledJobRunner(&runSampledJob);
}

} // namespace sample
} // namespace gdiff
