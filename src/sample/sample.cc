#include "sample/sample.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "obs/obs.hh"
#include "runner/runner.hh"
#include "sample/estimator.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/trace_io.hh"

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
    std::vector<double> values; ///< one per metricColumns(mode) entry
};

/** Fast-forward, warm, and measure one window. */
WindowResult
measureWindow(const JobSpec &spec, const WindowGrid &grid, uint64_t w,
              workload::TraceCache *cache)
{
    WindowResult r;
    r.window = w;
    const uint64_t warm = grid.warmup(w);
    const uint64_t fwarm = grid.functionalWarmup(w);

    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t t0 = obsOn ? obs::nowNs() : 0;

    workload::TraceCache::Acquired acq = runner::openStream(spec, cache);
    workload::SkipTraceSource src(*acq.source,
                                  grid.start(w) - warm - fwarm);
    // Two-stage SMARTS warming (a long functional history for the
    // slow-converging structures, then detailed warmup for the
    // in-flight state) with retire-to-retire cycle accounting. Either
    // mode then measures exactly [start, start + len), aligned with
    // the window's stratum fingerprint.
    runner::Measurement m =
        runner::measure(spec, src, {grid.length(w), warm, fwarm, true});
    if (m.records > 0) {
        r.weight = static_cast<double>(m.records);
        r.values = std::move(m.values);
        // A Reciprocal column is estimated per record, through the
        // Total column after it (IPC through cycles per instruction).
        const auto &columns = runner::metricColumns(spec.mode);
        for (size_t c = 0; c < columns.size(); ++c) {
            if (columns[c].sampled == runner::SampledAs::Reciprocal)
                r.values[c] = r.values[c + 1] / r.weight;
        }
    }

    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.histogram("sample.window_us")
            ->record((obs::nowNs() - t0) / 1'000);
    }
    return r;
}

/**
 * @return a sampled result's metrics: one estimate per column of the
 * spec's mode, each as its SampledAs says, then the sample_* columns.
 */
std::vector<std::pair<std::string, double>>
sampledMetrics(const JobSpec &spec,
               const std::vector<MetricEstimate> &est,
               uint64_t measuredWindows, uint64_t strata)
{
    const std::vector<runner::MetricColumn> &columns =
        runner::metricColumns(spec.mode);
    std::vector<std::pair<std::string, double>> m;
    auto put = [&](std::string name, double v) {
        m.emplace_back(std::move(name), v);
    };
    for (size_t c = 0; c < columns.size(); ++c) {
        const std::string name = columns[c].name;
        const runner::SampledAs how = columns[c].sampled;
        put(name, est[c].mean);
        if (how == runner::SampledAs::Interval ||
            how == runner::SampledAs::Reciprocal) {
            put(name + "_ci_lo", est[c].ciLo);
            put(name + "_ci_hi", est[c].ciHi);
        }
        if (how == runner::SampledAs::Reciprocal)
            put(name + "_se", est[c].stdError);
    }
    put("sample_budget", static_cast<double>(spec.sampleBudget));
    put("sample_window", static_cast<double>(spec.sampleWindow));
    put("sample_windows", static_cast<double>(measuredWindows));
    put("sample_strata", static_cast<double>(strata));
    return m;
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
        // add estimator noise on top of the exact answer. The full
        // run's result is laid out with zero-width intervals, so
        // mixed sweeps stay column-compatible.
        JobSpec full = spec;
        full.sampleBudget = 0;
        JobResult base = runner::runJob(full, cache);
        std::vector<MetricEstimate> exact;
        for (const auto &metric : base.metrics)
            exact.push_back({metric.second, 0.0, metric.second,
                             metric.second});
        base.metrics = sampledMetrics(spec, exact, 0, 1);
        return base;
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
        acq = runner::openStream(spec, cache);
        keys = profileStrata(*acq.source, grid, threads);
        acq.source.reset();
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
    const auto &columns = runner::metricColumns(spec.mode);
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

    std::vector<MetricEstimate> est(columns.size());
    for (size_t m = 0; m < columns.size(); ++m) {
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

    // A Reciprocal column was estimated per record: scale that to the
    // Total column after it, then invert it.
    for (size_t c = 0; c < columns.size(); ++c) {
        if (columns[c].sampled == runner::SampledAs::Reciprocal) {
            est[c + 1].mean =
                est[c].mean * static_cast<double>(spec.instructions);
            est[c] = invertEstimate(est[c]);
        }
    }
    JobResult result;
    result.metrics = sampledMetrics(spec, est, usedWindows, H);

    if (obsOn) {
        obs::Registry &reg = obs::Registry::local();
        reg.addCount("sample.windows", usedWindows);
        reg.addCount("sample.strata", H);
    }

    result.traceReplayed = !acq.generated;
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

} // namespace sample
} // namespace gdiff
