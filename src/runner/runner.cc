#include "runner/runner.hh"

#include <chrono>
#include <memory>

#include "obs/obs.hh"
#include "pipeline/config.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "sim/profile.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace runner {

unsigned
defaultThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// ------------------------------------------------------- ThreadPool

ThreadPool::ThreadPool(unsigned threads)
    : nThreads(threads == 0 ? defaultThreads() : threads)
{}

void
ThreadPool::forEach(size_t count,
                    const std::function<void(size_t)> &task)
{
    if (count == 0)
        return;
    if (nThreads == 1) {
        for (size_t i = 0; i < count; ++i)
            task(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < count;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
            task(i);
        }
    };
    std::vector<std::thread> pool;
    unsigned spawn = static_cast<unsigned>(
        std::min<size_t>(nThreads, count));
    pool.reserve(spawn);
    // The calling thread is worker 0; spawn-1 helpers join it.
    for (unsigned t = 1; t < spawn; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &th : pool)
        th.join();
}

// ----------------------------------------------------------- runJob

namespace {

JobResult
runProfileJob(const JobSpec &spec, workload::TraceSource &src)
{
    auto pred =
        makePredictor(spec.predictor, spec.order, spec.tableEntries);

    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = spec.instructions;
    pcfg.warmupInstructions = spec.warmup;
    sim::ValueProfileRunner profile(pcfg);
    profile.addPredictor(*pred);
    profile.run(src);

    const sim::ProfileSeries &s = profile.results().front();
    JobResult r;
    r.metrics = {
        {"accuracy", s.accuracyAll.value()},
        {"coverage", s.coverage.value()},
        {"gated_accuracy", s.accuracyGated.value()},
    };
    return r;
}

JobResult
runPipelineJob(const JobSpec &spec, workload::TraceSource &src)
{
    auto scheme =
        makeScheme(spec.scheme, spec.order, spec.tableEntries);

    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               *scheme);
    pipeline::PipelineStats s =
        pipe.run(src, spec.instructions, spec.warmup);

    JobResult r;
    r.metrics = {
        {"ipc", s.ipc},
        {"cycles", static_cast<double>(s.cycles)},
        {"dcache_miss_rate", s.dcacheMissRate},
        {"branch_accuracy", s.branchAccuracy},
        {"vp_coverage", s.coverage.value()},
        {"vp_accuracy", s.gatedAccuracy.value()},
        {"miss_load_coverage", s.missLoadCoverage.value()},
        {"miss_load_accuracy", s.missLoadAccuracy.value()},
        {"avg_value_delay", s.valueDelay.mean()},
    };
    return r;
}

SampledJobRunner sampledRunner = nullptr;

/** @return this thread's simulation-stage total: the profile
 * runners' gather, predict and confidence stages plus the pipeline's
 * cycle loop. */
uint64_t
simStageNs(const obs::Registry &reg)
{
    return reg.timerNs("profile.gather") +
           reg.timerNs("profile.predict") +
           reg.timerNs("profile.confidence") +
           reg.timerNs("pipeline.sim");
}

} // anonymous namespace

void
setSampledJobRunner(SampledJobRunner fn)
{
    sampledRunner = fn;
}

JobResult
runJob(const JobSpec &spec, workload::TraceCache *cache,
       unsigned sampleThreads)
{
    spec.validate();
    if (spec.sampled()) {
        if (!sampledRunner) {
            fatal("job %s has a sample budget but no sampled runner "
                  "is installed (call sample::install() at startup)",
                  spec.label().c_str());
        }
        return sampledRunner(spec, cache,
                             sampleThreads == 0 ? 1 : sampleThreads);
    }
    auto t0 = std::chrono::steady_clock::now();

    // Jobs run whole on one thread, so this thread's timer totals
    // before/after the job delimit exactly what the job spent in each
    // instrumented stage.
    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    uint64_t fillNs0 = 0, simNs0 = 0;
    if (obsOn) {
        const obs::Registry &reg = obs::Registry::local();
        fillNs0 = reg.timerNs("profile.fill") +
                  reg.timerNs("pipeline.fill");
        simNs0 = simStageNs(reg);
    }

    // Resolve the dynamic stream: replay a shared materialized trace
    // when a cache is supplied, regenerate otherwise. Both streams
    // are record-identical, so the metrics cannot differ.
    std::unique_ptr<workload::TraceSource> src;
    bool replayed = false;
    bool fromDisk = false;
    double generateSeconds = 0.0;
    if (cache) {
        workload::TraceCache::Acquired acq = cache->acquire(
            spec.workload, spec.seed, spec.warmup + spec.instructions);
        src = std::move(acq.source);
        replayed = !acq.generated;
        fromDisk = acq.fromDisk;
        generateSeconds = acq.generateSeconds;
    } else {
        workload::Workload w =
            workload::makeWorkload(spec.workload, spec.seed);
        src = w.makeExecutor();
    }

    JobResult r = spec.mode == JobMode::Profile
                      ? runProfileJob(spec, *src)
                      : runPipelineJob(spec, *src);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    r.wallSeconds = dt.count();
    r.traceReplayed = replayed;
    r.traceFromDisk = fromDisk;
    r.traceGenerateSeconds = generateSeconds;
    if (obsOn) {
        const obs::Registry &reg = obs::Registry::local();
        r.obsFillSeconds =
            static_cast<double>(reg.timerNs("profile.fill") +
                                reg.timerNs("pipeline.fill") -
                                fillNs0) /
            1e9;
        r.obsSimSeconds =
            static_cast<double>(simStageNs(reg) - simNs0) / 1e9;
    }
    uint64_t total = spec.instructions + spec.warmup;
    r.instructionsPerSec =
        r.wallSeconds > 0 ? static_cast<double>(total) / r.wallSeconds
                          : 0.0;
    return r;
}

// ------------------------------------------------------ SweepRunner

SweepRunner::SweepRunner(const SweepSpec &spec) : jobList(spec.expand())
{}

SweepRunner::SweepRunner(std::vector<JobSpec> jobs)
    : jobList(std::move(jobs))
{}

void
SweepRunner::addSink(ResultSink &sink)
{
    sinks.push_back(&sink);
}

SweepSummary
SweepRunner::run(const SweepOptions &options)
{
    auto t0 = std::chrono::steady_clock::now();
    SweepSummary summary;
    summary.totalJobs = jobList.size();

    std::unique_ptr<Manifest> manifest;
    if (!options.manifestPath.empty())
        manifest = std::make_unique<Manifest>(options.manifestPath);

    // Decide up front which grid indices still need to run, so the
    // pool's shared queue only contains real work.
    std::vector<size_t> todo;
    todo.reserve(jobList.size());
    for (size_t i = 0; i < jobList.size(); ++i) {
        if (manifest && manifest->contains(jobList[i].key()))
            ++summary.skippedJobs;
        else
            todo.push_back(i);
    }

    workload::TraceCache *cache = nullptr;
    if (options.useTraceCache) {
        cache = &workload::TraceCache::global();
        if (options.traceCacheBytes != 0)
            cache->setMaxBytes(options.traceCacheBytes);
        if (!options.traceCacheDir.empty()) {
            if (options.traceCacheDiskBytes != 0) {
                cache->setDiskRoot(options.traceCacheDir,
                                   options.traceCacheDiskBytes);
            } else {
                cache->setDiskRoot(options.traceCacheDir);
            }
        }
    }

    const bool obsOn = GDIFF_OBS_ENABLED && obs::enabled();
    GDIFF_OBS_SPAN("sweep");

    std::mutex sinkLock;
    std::atomic<size_t> canceled{0};
    ThreadPool pool(options.threads);
    // Sampled jobs can parallelize their measured windows internally.
    // Give them the pool only when the sweep has nothing else to fill
    // it with — jobs and windows contending for the same cores would
    // oversubscribe without speeding anything up.
    unsigned windowThreads =
        todo.size() == 1 ? pool.threads() : 1;
    pool.forEach(todo.size(), [&](size_t t) {
        // Cancellation is checked at dispatch only: a job that
        // already started always finishes and reaches the sinks, so
        // the manifest never records a half-run job.
        if (options.cancel &&
            options.cancel->load(std::memory_order_relaxed)) {
            canceled.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        size_t index = todo[t];
        // Job execution is lock-free and fully isolated (the trace
        // cache shares immutable buffers only); only result delivery
        // serialises.
        uint64_t jobStart = obsOn ? obs::nowNs() : 0;
        JobRecord rec{index, jobList[index],
                      runJob(jobList[index], cache, windowThreads)};
        if (obsOn) {
            // One span per job on the worker's own track, annotated
            // with the job identity and how the trace cache served it.
            uint64_t jobEnd = obs::nowNs();
            obs::Registry &reg = obs::Registry::local();
            reg.addSpan("job", jobStart, jobEnd - jobStart,
                        {{"job", rec.spec.label()},
                         {"trace", rec.result.traceReplayed
                                       ? "replay"
                                       : "generate"}});
            reg.histogram("job.ms")->record(
                (jobEnd - jobStart) / 1'000'000);
        }
        std::lock_guard<std::mutex> guard(sinkLock);
        for (ResultSink *sink : sinks)
            sink->onJob(rec);
        if (manifest)
            manifest->markDone(rec.spec.key());
        ++summary.ranJobs;
        if (rec.result.traceReplayed) {
            ++summary.replayedJobs;
            if (rec.result.traceFromDisk)
                ++summary.diskLoadedJobs;
        } else if (cache) {
            ++summary.generatedTraces;
            summary.generateSeconds +=
                rec.result.traceGenerateSeconds;
        }
    });

    // Sinks still finish on cancellation: buffered sinks (table, CSV)
    // flush what completed, and the jsonl/manifest files were flushed
    // per job already.
    for (ResultSink *sink : sinks)
        sink->finish();

    summary.canceledJobs = canceled.load(std::memory_order_relaxed);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    summary.wallSeconds = dt.count();
    return summary;
}

} // namespace runner
} // namespace gdiff
