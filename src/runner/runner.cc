#include "runner/runner.hh"

#include <chrono>
#include <memory>

#include "obs/obs.hh"
#include "pipeline/config.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "sample/sample.hh"
#include "sim/profile.hh"
#include "util/worker_pool.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace runner {

unsigned
defaultThreads()
{
    return workers::count();
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
    // Shared with the helpers, which may start after this call
    // returns: a late one finds every index claimed and reads nothing
    // else, so it never touches @p task.
    struct Batch
    {
        const std::function<void(size_t)> &task;
        const size_t count;
        std::atomic<size_t> next{0}, done{0};
    };
    auto batch = std::make_shared<Batch>(task, count);
    // A task that throws ends the process, as a thread's would.
    auto drain = [](Batch &b) noexcept {
        size_t ran = 0;
        for (size_t i = b.next++; i < b.count; i = b.next++, ++ran)
            b.task(i);
        if (ran != 0 && b.done.fetch_add(ran) + ran == b.count)
            b.done.notify_one(); // only the caller waits
    };
    // The calling thread is worker 0; up to nThreads-1 helpers join
    // it (with one worker, none: the tasks run here in index order).
    // It drains the indices itself, so it waits only for the ones a
    // helper already claimed, never for a free pool worker.
    const size_t helpers = std::min<size_t>(nThreads, count) - 1;
    for (size_t h = 0; h < helpers; ++h)
        workers::post([batch, drain] { drain(*batch); });
    drain(*batch);
    for (size_t d = batch->done; d != count; d = batch->done)
        batch->done.wait(d);
}

// ----------------------------------------------------------- runJob

workload::TraceCache::Acquired
openStream(const JobSpec &spec, workload::TraceCache *cache)
{
    if (cache) {
        return cache->acquire(spec.workload, spec.seed,
                              spec.warmup + spec.instructions);
    }
    workload::TraceCache::Acquired acq;
    acq.source =
        workload::makeWorkload(spec.workload, spec.seed).makeExecutor();
    acq.generated = true;
    return acq;
}

const std::vector<MetricColumn> &
metricColumns(JobMode mode)
{
    static const std::vector<MetricColumn> profile = {
        {"accuracy", SampledAs::Interval},
        {"coverage", SampledAs::Interval},
        {"gated_accuracy", SampledAs::Interval},
    };
    static const std::vector<MetricColumn> pipeline = {
        {"ipc", SampledAs::Reciprocal},
        {"cycles", SampledAs::Total},
        {"dcache_miss_rate", SampledAs::Mean},
        {"branch_accuracy", SampledAs::Mean},
        {"vp_coverage", SampledAs::Interval},
        {"vp_accuracy", SampledAs::Interval},
        {"miss_load_coverage", SampledAs::Mean},
        {"miss_load_accuracy", SampledAs::Mean},
        {"avg_value_delay", SampledAs::Mean},
    };
    return mode == JobMode::Profile ? profile : pipeline;
}

namespace {

Measurement
runProfileJob(const JobSpec &spec, workload::TraceSource &src,
              const Stretch &stretch)
{
    auto pred =
        makePredictor(spec.predictor, spec.order, spec.tableEntries);

    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = stretch.records;
    pcfg.warmupInstructions = stretch.functionalWarmup + stretch.warmup;
    // JobSpec::validate() bounds a job's warm-up; a sampled window
    // warms as many records as it measures.
    pcfg.allowLongWarmup = true;
    sim::ValueProfileRunner profile(pcfg);
    profile.addPredictor(*pred);
    profile.run(src);

    const sim::ProfileSeries &s = profile.results().front();
    return {profile.measuredRecords(),
            {s.accuracyAll.value(), s.coverage.value(),
             s.accuracyGated.value()}};
}

Measurement
runPipelineJob(const JobSpec &spec, workload::TraceSource &src,
               const Stretch &stretch)
{
    auto scheme =
        makeScheme(spec.scheme, spec.order, spec.tableEntries);

    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               *scheme);
    pipeline::PipelineStats s =
        pipe.run(src, stretch.records, stretch.warmup,
                 stretch.retireToRetire, stretch.functionalWarmup);
    return {s.instructions,
            {s.ipc, static_cast<double>(s.cycles), s.dcacheMissRate,
             s.branchAccuracy, s.coverage.value(),
             s.gatedAccuracy.value(), s.missLoadCoverage.value(),
             s.missLoadAccuracy.value(), s.valueDelay.mean()}};
}

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

Measurement
measure(const JobSpec &spec, workload::TraceSource &src,
        const Stretch &stretch)
{
    // Each body lists its values in metricColumns() order.
    return spec.mode == JobMode::Profile
               ? runProfileJob(spec, src, stretch)
               : runPipelineJob(spec, src, stretch);
}

JobResult
runJob(const JobSpec &spec, workload::TraceCache *cache,
       unsigned sampleThreads)
{
    spec.validate();
    if (spec.sampled()) {
        return sample::runSampledJob(
            spec, cache, sampleThreads == 0 ? 1 : sampleThreads);
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

    // A replayed shared trace and a regenerated stream are
    // record-identical, so the metrics cannot differ.
    workload::TraceCache::Acquired acq = openStream(spec, cache);
    Measurement m =
        measure(spec, *acq.source, {spec.instructions, spec.warmup});
    JobResult r;
    const std::vector<MetricColumn> &columns = metricColumns(spec.mode);
    for (size_t c = 0; c < columns.size(); ++c)
        r.metrics.emplace_back(columns[c].name, m.values[c]);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    r.wallSeconds = dt.count();
    r.traceReplayed = !acq.generated;
    r.traceFromDisk = acq.fromDisk;
    r.traceGenerateSeconds = acq.generateSeconds;
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
