/**
 * @file
 * The three batch workloads: sweeps of independent jobs run one after
 * another through runner::SweepRunner on kThreads workers.
 *
 *  - profile_zoo: the predictor batch loops and sim do the work;
 *  - pipeline_mix: the OOO cycle loop, mem and vp_scheme do it;
 *  - sampled_disk: trace_io decode, the disk tier and sample do it.
 *
 * Untraced runs time SweepRunner itself. Traced runs replace it with
 * the same jobs composed from outside (TraceCache::acquire, then
 * ValueProfileRunner::run, OooPipeline::run or
 * sample::runSampledJob), with a span around each layer call, and
 * require the same result digest as SweepRunner.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "pipeline/config.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "runner/sweep_spec.hh"
#include "sample/sample.hh"
#include "sim/profile.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace perfbench {

using namespace gdiff;
using runner::JobMode;
using runner::JobRecord;
using runner::JobResult;
using runner::JobSpec;
using workload::TraceCache;

const char *
predictorSpan(const std::string &family)
{
    static const std::map<std::string, std::string> names = [] {
        std::map<std::string, std::string> m;
        for (const std::string &f : kFamilies)
            m[f] = "predictors." + f;
        return m;
    }();
    return names.at(family).c_str();
}

bool
isSweepWorkload(const std::string &name)
{
    return name == "profile_zoo" || name == "pipeline_mix" ||
           name == "sampled_disk";
}

namespace {

/// timed sweeps per run at least, however long they take
constexpr unsigned kMinSweeps = 3;
/// untraced and traced sweeps of a traced run, each
constexpr unsigned kTracedSweeps = 3;

/** One batch workload: its jobs and what they need resident. */
struct Plan
{
    std::vector<JobSpec> jobs;
    std::vector<TraceKey> traces; ///< distinct traces, first-use order
    /// memory-tier cap that keeps every trace resident
    size_t cacheBytes = size_t(1) << 30;
    /// traces are stored in, and loaded from, the disk tier
    bool disk = false;
    /// trace records one job simulates (records_per_s numerator)
    uint64_t recordsPerJob = 0;
    unsigned setupReps = 5;
};

Plan
makePlan(const std::string &name, uint64_t seed)
{
    runner::SweepSpec s;
    s.seeds = {seed};
    s.workloads = {"mcf", "gzip", "parser", "gap"};
    Plan p;
    if (name == "profile_zoo") {
        s.predictors = kFamilies;
        s.defaultInstructions = 2'000'000;
        s.warmup = 200'000;
    } else if (name == "pipeline_mix") {
        // Heaviest scheme first, as the zoo lists its costliest
        // predictors first: a sweep that ended on an hgvq job left the
        // other worker idle through it (parallel efficiency 0.88,
        // against 0.98 heaviest first).
        s.mode = JobMode::Pipeline;
        s.schemes = {"hgvq", "l_stride", "baseline"};
        s.defaultInstructions = 1'000'000;
        s.warmup = 100'000;
    } else {
        // mcf (irregular) and gzip (stride-dominant) sit at opposite
        // ends of the v3 codec menu.
        s.mode = JobMode::Pipeline;
        s.workloads = {"mcf", "gzip"};
        s.schemes = {"hgvq"};
        s.defaultInstructions = 8'000'000;
        s.warmup = 100'000;
        s.sampleBudget = 40'960;
        s.sampleWindow = 4'096;
        // Two 8.1M-record traces take ~1 GiB resident.
        p.cacheBytes = size_t(2) << 30;
        p.disk = true;
        // Each set-up generates and encodes 16M records; three keep
        // the run short.
        p.setupReps = 3;
    }
    p.jobs = s.expand();
    const JobSpec &j = p.jobs.front();
    p.recordsPerJob = p.disk ? j.instructions : j.instructions + j.warmup;
    for (const JobSpec &job : p.jobs) {
        uint64_t records = job.warmup + job.instructions;
        bool seen = std::any_of(
            p.traces.begin(), p.traces.end(), [&](const TraceKey &t) {
                return t.workload == job.workload && t.records == records;
            });
        if (!seen)
            p.traces.push_back({job.workload, job.seed, records});
    }
    return p;
}

std::string
diskDir(const Options &opt)
{
    return opt.workdir + "/disk";
}

/** Everything one sweep produced. */
struct SweepOut
{
    double wall = 0;
    std::vector<std::string> lines; ///< payloads, index order
    std::vector<double> jobSeconds;
    TraceCache::Stats before, after;
};

/**
 * One sweep through SweepRunner on the global cache. With
 * @p fromDisk the memory tier is emptied first (untimed), so each
 * job's first acquire must be served by the disk tier.
 */
SweepOut
runnerSweep(const Plan &p, const Options &opt, bool fromDisk)
{
    TraceCache &cache = TraceCache::global();
    if (fromDisk)
        cache.clear();
    CollectSink collect;
    runner::JsonlSink jsonl(opt.workdir + "/sweep.jsonl");
    runner::SweepRunner sweep(p.jobs);
    sweep.addSink(collect);
    sweep.addSink(jsonl);
    runner::SweepOptions so;
    so.threads = kThreads;
    so.traceCacheBytes = p.cacheBytes;

    SweepOut out;
    out.before = cache.snapshot();
    auto t0 = Clock::now();
    sweep.run(so);
    out.wall = secondsSince(t0);
    out.after = cache.snapshot();
    for (const JobRecord &r : collect.records)
        out.jobSeconds.push_back(r.result.wallSeconds);
    out.lines = payloads(std::move(collect.records));
    return out;
}

/** Trace-cache counter changes, summed over sweeps. */
struct CacheDelta
{
    uint64_t hits = 0, misses = 0, generations = 0, evictions = 0;
    uint64_t diskHits = 0, diskMisses = 0;

    void
    add(const TraceCache::Stats &b, const TraceCache::Stats &a)
    {
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
        generations += a.generations - b.generations;
        evictions += a.evictions - b.evictions;
        diskHits += a.diskHits - b.diskHits;
        diskMisses += a.diskMisses - b.diskMisses;
    }
};

/**
 * The residency guards: a timed sweep may never generate or evict a
 * trace, and on sampled_disk every job's first acquire must be a
 * disk-tier hit (the window acquires that follow hit memory).
 */
void
guardResidency(const Plan &p, const TraceCache::Stats &b,
               const TraceCache::Stats &a, Report &report,
               const char *what)
{
    CacheDelta d;
    d.add(b, a);
    if (d.generations || d.evictions)
        report.problem(std::string(what) + ": " +
                       std::to_string(d.generations) +
                       " trace generations and " +
                       std::to_string(d.evictions) +
                       " evictions inside the timed phase");
    if (p.disk) {
        if (d.diskHits != p.traces.size() || d.diskMisses != 0 ||
            d.misses != d.diskHits)
            report.problem(std::string(what) + ": " +
                           std::to_string(d.misses) + " memory misses, " +
                           std::to_string(d.diskHits) + " disk hits, " +
                           std::to_string(d.diskMisses) +
                           " disk misses; every first acquire must be "
                           "a disk-tier hit");
    } else if (d.misses != 0) {
        report.problem(std::string(what) + ": " +
                       std::to_string(d.misses) +
                       " acquires missed the resident traces");
    }
}

/** Empty the caches so the next set-up starts from nothing. */
void
resetTraces(const Plan &p, const Options &opt)
{
    TraceCache &cache = TraceCache::global();
    cache.clear();
    releaseFreedMemory();
    if (!p.disk)
        return;
    cache.setDiskRoot(diskDir(opt));
    std::filesystem::create_directories(diskDir(opt));
    for (const auto &e : std::filesystem::directory_iterator(diskDir(opt)))
        std::filesystem::remove(e.path());
}

/**
 * The set-up: materialize every trace the timed phase replays (on
 * sampled_disk the acquire also v3-encodes and stores each one).
 * @return the seconds the cache reported generating, summed.
 */
double
materialize(const Plan &p, Report &report)
{
    TraceCache &cache = TraceCache::global();
    cache.setMaxBytes(p.cacheBytes);
    std::vector<double> gen(p.traces.size(), 0.0);
    std::vector<char> generated(p.traces.size(), 0);
    runner::ThreadPool pool(kThreads);
    pool.forEach(p.traces.size(), [&](size_t i) {
        const TraceKey &t = p.traces[i];
        ScopedSpan s("trace_cache.acquire");
        TraceCache::Acquired acq =
            cache.acquire(t.workload, t.seed, t.records);
        gen[i] = acq.generateSeconds;
        generated[i] = acq.generated;
    });
    if (std::count(generated.begin(), generated.end(), 1) !=
        static_cast<long>(p.traces.size()))
        report.problem("set-up found a trace already materialized");
    double sum = 0;
    for (double g : gen)
        sum += g;
    return sum;
}

/** Run every job without a cache, each regenerating its trace: the
 * reference the cached sweeps must reproduce. */
std::vector<std::string>
uncachedReference(const Plan &p)
{
    std::vector<JobRecord> recs(p.jobs.size());
    runner::ThreadPool pool(kThreads);
    pool.forEach(p.jobs.size(), [&](size_t i) {
        recs[i] = {i, p.jobs[i], runner::runJob(p.jobs[i], nullptr)};
    });
    return payloads(std::move(recs));
}

void
runUntraced(const Plan &p, const Options &opt, Report &report,
            Expected &expected)
{
    // Each process warms up before timing: the reference pass runs
    // every job once, and one cached sweep runs before the clock.
    if (!p.disk)
        expected.setReference(uncachedReference(p), "uncached reference");

    std::vector<double> setups;
    for (unsigned rep = 0; rep < p.setupReps; ++rep) {
        resetTraces(p, opt);
        auto t0 = Clock::now();
        materialize(p, report);
        setups.push_back(secondsSince(t0));
        std::printf("perfbench: set-up %u: %.4f s\n", rep + 1,
                    setups.back());
    }
    if (p.disk) {
        // The generated traces are still resident: they are the
        // reference that the disk round trip must reproduce.
        expected.setReference(runnerSweep(p, opt, false).lines,
                              "generated-trace reference");
    }
    SweepOut warm = runnerSweep(p, opt, p.disk);
    guardResidency(p, warm.before, warm.after, report, "warm-up sweep");
    if (!expected.matches(warm.lines))
        report.problem("warm-up sweep differs from the reference");

    std::vector<double> rates, jobMs;
    auto start = Clock::now();
    for (unsigned n = 0;
         n < kMinSweeps || secondsSince(start) < opt.seconds; ++n) {
        SweepOut s = runnerSweep(p, opt, p.disk);
        guardResidency(p, s.before, s.after, report, "timed sweep");
        expected.checkJobs(s.lines, "timed sweep");
        double records =
            static_cast<double>(p.jobs.size() * p.recordsPerJob);
        rates.push_back(records / s.wall);
        for (double j : s.jobSeconds)
            jobMs.push_back(j * 1e3);
        std::printf("perfbench: sweep %u: %zu jobs in %.4f s, %.2f "
                    "Mrec/s\n",
                    n + 1, p.jobs.size(), s.wall, rates.back() / 1e6);
    }
    report.metric("setup_s", median(setups), "s");
    report.metric("records_per_s", median(rates), "1/s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.latency(jobMs, "job");
}

// ------------------------------------------------------ traced run

/** Layer measurements the traced sweeps accumulate. */
struct TracedTotals
{
    std::mutex lock;
    std::map<std::string, uint64_t> lanes;       ///< per family
    std::map<std::string, double> runSeconds;    ///< per scheme
    std::map<std::string, double> runRecords;    ///< per scheme
    double cycles = 0;
    double detailRecords = 0; ///< sampled: detail-simulated records
    double measuredRecords = 0;
};

JobResult
profileJob(const JobSpec &spec, TraceCache &cache, TracedTotals &acc,
           bool &generated)
{
    std::unique_ptr<predictors::ValuePredictor> pred;
    {
        ScopedSpan s("runner.factory");
        pred = runner::makePredictor(spec.predictor, spec.order,
                                     spec.tableEntries);
    }
    TraceCache::Acquired acq;
    {
        ScopedSpan s("trace_cache.acquire");
        acq = cache.acquire(spec.workload, spec.seed,
                            spec.warmup + spec.instructions);
    }
    generated = acq.generated;
    TimedPredictor timed(*pred, predictorSpan(spec.predictor));
    TimedSource src(*acq.source);
    JobResult r;
    {
        ScopedSpan s("sim.profile_run");
        sim::ProfileConfig cfg;
        cfg.maxInstructions = spec.instructions;
        cfg.warmupInstructions = spec.warmup;
        sim::ValueProfileRunner profile(cfg);
        profile.addPredictor(timed);
        profile.run(src);
        const sim::ProfileSeries &series = profile.results().front();
        // The metric list of runner::runJob's profile mode.
        r.metrics = {
            {"accuracy", series.accuracyAll.value()},
            {"coverage", series.coverage.value()},
            {"gated_accuracy", series.accuracyGated.value()},
        };
    }
    std::lock_guard<std::mutex> guard(acc.lock);
    acc.lanes[spec.predictor] += timed.lanes();
    return r;
}

JobResult
pipelineJob(const JobSpec &spec, TraceCache &cache, TracedTotals &acc,
            bool &generated)
{
    std::unique_ptr<pipeline::VpScheme> scheme;
    {
        ScopedSpan s("runner.factory");
        scheme = runner::makeScheme(spec.scheme, spec.order,
                                    spec.tableEntries);
    }
    TraceCache::Acquired acq;
    {
        ScopedSpan s("trace_cache.acquire");
        acq = cache.acquire(spec.workload, spec.seed,
                            spec.warmup + spec.instructions);
    }
    generated = acq.generated;
    TimedSource src(*acq.source);
    JobResult r;
    double seconds = 0;
    double cycles = 0;
    {
        ScopedSpan s("pipeline.run");
        pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                                   *scheme);
        pipeline::PipelineStats st =
            pipe.run(src, spec.instructions, spec.warmup);
        // The metric list of runner::runJob's pipeline mode.
        r.metrics = {
            {"ipc", st.ipc},
            {"cycles", static_cast<double>(st.cycles)},
            {"dcache_miss_rate", st.dcacheMissRate},
            {"branch_accuracy", st.branchAccuracy},
            {"vp_coverage", st.coverage.value()},
            {"vp_accuracy", st.gatedAccuracy.value()},
            {"miss_load_coverage", st.missLoadCoverage.value()},
            {"miss_load_accuracy", st.missLoadAccuracy.value()},
            {"avg_value_delay", st.valueDelay.mean()},
        };
        cycles = static_cast<double>(st.cycles);
        seconds = s.elapsed();
    }
    std::lock_guard<std::mutex> guard(acc.lock);
    acc.runSeconds[spec.scheme] += seconds;
    acc.runRecords[spec.scheme] +=
        static_cast<double>(spec.warmup + spec.instructions);
    acc.cycles += cycles;
    return r;
}

JobResult
sampledJob(const JobSpec &spec, TraceCache &cache, TracedTotals &acc,
           bool &generated)
{
    // The first acquire loads the trace from the disk tier (mmap,
    // digest check, v3 decode); every acquire inside runSampledJob
    // then hits memory.
    TraceCache::Acquired acq;
    {
        ScopedSpan s("trace_cache.acquire");
        acq = cache.acquire(spec.workload, spec.seed,
                            spec.warmup + spec.instructions);
    }
    generated = acq.generated;
    JobResult r;
    {
        ScopedSpan s("sample.runSampledJob");
        r = sample::runSampledJob(spec, &cache, 1);
    }
    std::lock_guard<std::mutex> guard(acc.lock);
    acc.detailRecords += r.metric("sample_windows") *
                         static_cast<double>(spec.sampleWindow) *
                         static_cast<double>(1 + sample::kWarmupWindows);
    acc.measuredRecords += static_cast<double>(spec.instructions);
    return r;
}

/** One sweep of the outside-in composition on kThreads workers. */
SweepOut
tracedSweep(const Plan &p, const Options &opt, uint64_t &nextOp,
            TracedTotals &acc)
{
    TraceCache &cache = TraceCache::global();
    if (p.disk)
        cache.clear();
    CollectSink collect;
    runner::JsonlSink jsonl(opt.workdir + "/sweep.jsonl");
    std::mutex sinkLock;
    const uint64_t opBase = nextOp;
    nextOp += p.jobs.size();

    SweepOut out;
    out.before = cache.snapshot();
    auto t0 = Clock::now();
    {
        ScopedSpan sweep("sweep");
        const uint32_t sweepId = sweep.id();
        runner::ThreadPool pool(kThreads);
        pool.forEach(p.jobs.size(), [&](size_t i) {
            const JobSpec &spec = p.jobs[i];
            ScopedSpan job("job", opBase + i + 1, sweepId);
            JobRecord rec{i, spec, {}};
            bool generated = false;
            if (spec.sampled())
                rec.result = sampledJob(spec, cache, acc, generated);
            else if (spec.mode == JobMode::Profile)
                rec.result = profileJob(spec, cache, acc, generated);
            else
                rec.result = pipelineJob(spec, cache, acc, generated);
            rec.result.wallSeconds = job.elapsed();
            rec.result.traceReplayed = !generated;
            job.setArgs("\"job\":\"" + json::escape(spec.label()) +
                        "\",\"trace\":\"" +
                        (generated ? "generate" : "replay") + "\"");
            ScopedSpan write("sinks.write");
            std::lock_guard<std::mutex> guard(sinkLock);
            jsonl.onJob(rec);
            collect.onJob(rec);
        });
    }
    out.wall = secondsSince(t0);
    out.after = cache.snapshot();
    jsonl.finish();
    out.lines = payloads(std::move(collect.records));
    return out;
}

/** sampled_disk: sample::profileStrata alone over each job's trace.
 * @return seconds for one sweep's jobs. */
double
probeStrata(const Plan &p)
{
    TraceCache &cache = TraceCache::global();
    double seconds = 0;
    for (const JobSpec &spec : p.jobs) {
        TraceCache::Acquired acq = cache.acquire(
            spec.workload, spec.seed, spec.warmup + spec.instructions);
        sample::WindowGrid grid = sample::makeWindowGrid(
            spec.warmup, spec.instructions, spec.sampleWindow);
        ScopedSpan s("probe.sample.profileStrata");
        sample::profileStrata(*acq.source, grid, 1);
        seconds += s.elapsed();
    }
    return seconds;
}

void
runTraced(const Plan &p, const Options &opt, Report &report,
          Expected &expected)
{
    Tracer &tracer = Tracer::get();

    resetTraces(p, opt);
    tracer.start();
    double generateSeconds = 0;
    {
        ScopedSpan setup("setup");
        generateSeconds = materialize(p, report);
    }
    tracer.stop();
    double generatedRecords = 0;
    for (const TraceKey &t : p.traces)
        generatedRecords += static_cast<double>(t.records);

    // SweepRunner over the resident traces: runner::runJob's result,
    // which the outside-in composition must reproduce.
    expected.setReference(runnerSweep(p, opt, false).lines,
                          "runJob reference");

    std::vector<double> untracedWalls, efficiency, tail;
    for (unsigned n = 0; n < kTracedSweeps; ++n) {
        SweepOut s = runnerSweep(p, opt, p.disk);
        guardResidency(p, s.before, s.after, report, "untraced sweep");
        expected.checkJobs(s.lines, "untraced sweep");
        untracedWalls.push_back(s.wall);
        double busy = 0;
        for (double j : s.jobSeconds)
            busy += j;
        efficiency.push_back(busy / (kThreads * s.wall));
        tail.push_back(
            *std::max_element(s.jobSeconds.begin(), s.jobSeconds.end()) /
            median(s.jobSeconds));
    }

    TracedTotals acc;
    uint64_t nextOp = 0;
    std::vector<double> tracedWalls;
    CacheDelta delta;
    size_t residentBytes = 0;
    const uint64_t from = nowNs();
    for (unsigned n = 0; n < kTracedSweeps; ++n) {
        tracer.start();
        SweepOut s = tracedSweep(p, opt, nextOp, acc);
        tracer.stop();
        guardResidency(p, s.before, s.after, report, "traced sweep");
        expected.checkJobs(s.lines, "traced sweep");
        tracedWalls.push_back(s.wall);
        delta.add(s.before, s.after);
        residentBytes = s.after.residentBytes;
        std::printf("perfbench: traced sweep %u: %.4f s\n", n + 1,
                    s.wall);
    }
    const uint64_t to = nowNs();

    tracer.start();
    std::vector<double> preds;
    MemProbe mem;
    TraceIoProbe io;
    double strataSeconds = 0;
    {
        ScopedSpan probe("probe");
        TraceCache &cache = TraceCache::global();
        if (opt.workload == "profile_zoo")
            preds = probePredictors(p.traces, cache, report);
        if (opt.workload == "pipeline_mix")
            mem = probeMem(p.traces, cache);
        if (p.disk) {
            io = probeTraceIo(p.traces, cache, diskDir(opt), opt.workdir,
                              report);
            strataSeconds = probeStrata(p);
        }
    }
    tracer.stop();

    const std::vector<Span> spans = tracer.spans();
    LayerTimes lt = layerTimes(spans, from, to);
    const double sweeps = kTracedSweeps;

    report.layer("workload.generate_s", generateSeconds);
    report.layer("workload.generate_records_per_s",
                 ratio(generatedRecords, generateSeconds));
    report.layer("trace_io.encode_records_per_s",
                 io.encodeRecordsPerSecond);
    report.layer("trace_io.decode_records_per_s",
                 io.decodeRecordsPerSecond);
    report.layer("trace_io.bytes_per_record", io.bytesPerRecord);

    report.layer("trace_cache.acquire_s",
                 lt.self["trace_cache.acquire"] / sweeps);
    report.layer("trace_cache.hit_ratio",
                 ratio(static_cast<double>(delta.hits),
                       static_cast<double>(delta.hits + delta.misses)));
    report.layer("trace_cache.disk_hits",
                 static_cast<double>(delta.diskHits));
    report.layer("trace_cache.generations",
                 static_cast<double>(delta.generations));
    report.layer("trace_cache.evictions",
                 static_cast<double>(delta.evictions));
    report.layer("trace_cache.resident_mb",
                 static_cast<double>(residentBytes) / (1 << 20));

    for (size_t f = 0; f < kFamilies.size(); ++f) {
        const std::string &fam = kFamilies[f];
        const char *span = predictorSpan(fam);
        report.layer(span + std::string(".records_per_s"),
                     ratio(static_cast<double>(acc.lanes[fam]),
                           lt.total[span]));
        report.layer(span + std::string(".batch_speedup"),
                     preds.empty() ? 0.0 : preds[f]);
    }
    report.layer("sim.profile_self_s",
                 lt.self["sim.profile_run"] / sweeps);

    double allRun = 0;
    for (const char *scheme : {"baseline", "l_stride", "hgvq"}) {
        report.layer(std::string("pipeline.") + scheme +
                         ".records_per_s",
                     ratio(acc.runRecords[scheme],
                           acc.runSeconds[scheme]));
        allRun += acc.runSeconds[scheme];
    }
    report.layer("pipeline.cycles_per_s", ratio(acc.cycles, allRun));
    report.layer("pipeline.vp_cost_ratio",
                 ratio(acc.runSeconds["hgvq"], acc.runSeconds["baseline"]));
    report.layer("mem.dcache_accesses_per_s", mem.accessesPerSecond);
    report.layer("mem.dcache_miss_rate", mem.missRate);

    double windows =
        p.disk ? lt.total["sample.runSampledJob"] / sweeps - strataSeconds
               : 0.0;
    report.layer("sample.strata_s", strataSeconds);
    report.layer("sample.windows_s", windows);
    report.layer("sample.detail_fraction",
                 ratio(acc.detailRecords, acc.measuredRecords));

    report.layer("runner.parallel_efficiency", median(efficiency));
    report.layer("runner.job_tail_ratio", median(tail));
    report.layer("sinks.write_us_per_job",
                 ratio(lt.total["sinks.write"] * 1e6,
                       static_cast<double>(lt.count["sinks.write"])));
    report.layer("trace.overhead_ratio",
                 ratio(median(tracedWalls), median(untracedWalls)));
    report.layer("unattributed_ratio",
                 ratio(lt.self["job"], lt.total["job"]));
}

} // namespace

void
runSweepWorkload(const Options &opt, Report &report)
{
    Plan p = makePlan(opt.workload, opt.seed);
    Expected expected(opt, report);
    if (opt.trace)
        runTraced(p, opt, report, expected);
    else
        runUntraced(p, opt, report, expected);
}

} // namespace perfbench
