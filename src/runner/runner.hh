/**
 * @file
 * The parallel experiment-sweep runner.
 *
 * Every figure/table in the paper's evaluation is a grid of
 * *independent* simulations, so the runner treats the expanded grid
 * as a job pool: a fixed-size ThreadPool pulls jobs from a shared
 * atomic queue, runs each in a fully isolated simulation context
 * (its own workload, predictor/scheme, caches — constructed from the
 * JobSpec alone), and delivers results to the registered ResultSinks
 * under one lock.
 *
 * Determinism contract: a job's metrics depend only on its spec.
 * Nothing a job reads is shared or mutable, the seed comes from the
 * spec, and no job observes another job's completion. Therefore
 * --threads=1 and --threads=N produce bit-identical per-job metrics;
 * only completion order and wall-clock metadata differ. This is
 * pinned by tests/test_runner.cc.
 */

#ifndef GDIFF_RUNNER_RUNNER_HH
#define GDIFF_RUNNER_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "runner/job.hh"
#include "runner/manifest.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"
#include "workload/trace_cache.hh"

namespace gdiff {
namespace runner {

/** @return the default worker count: the process pool's size
 *  (hardware concurrency, min 1). */
unsigned defaultThreads();

/**
 * Runs a batch of independent tasks on the process's worker pool
 * (util/worker_pool.hh) through a shared atomic index: the calling
 * thread and up to threads()-1 pool workers each claim the next
 * unclaimed index (the degenerate but contention-free form of work
 * stealing for uniform job pools). It starts no thread of its own.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(unsigned threads);

    /** @return the actual worker count. */
    unsigned threads() const { return nThreads; }

    /**
     * Run @p task(i) for every i in [0, count), distributing indices
     * across the workers; blocks until all complete. The calling
     * thread runs indices until none is left, then waits only for
     * those a worker already claimed, so a call finishes on a busy
     * pool, from a pool worker, or nested in another call's task.
     * With one worker the tasks run inline on the calling thread in
     * index order.
     */
    void forEach(size_t count, const std::function<void(size_t)> &task);

  private:
    unsigned nThreads;
};

/**
 * Open @p spec's record stream at its first record. With @p cache the
 * stream replays the shared trace of (workload, seed, warmup +
 * instructions), and the result says how the cache served it. Without
 * one it is a fresh functional executor, reported as generated with
 * no generation time.
 */
workload::TraceCache::Acquired openStream(const JobSpec &spec,
                                          workload::TraceCache *cache);

/**
 * The records a job body runs over, from where its source stands. A
 * full job measures its spec's instructions after its warm-up. A
 * sampled window (src/sample/) warms in two stages and counts its
 * cycles retire to retire, so that window cycle counts tile the
 * continuous run (see pipeline::OooPipeline::run).
 */
struct Stretch
{
    uint64_t records = 0; ///< measured records
    uint64_t warmup = 0;  ///< detailed warm-up records before them
    /// untimed warm-up records before the detailed warm-up; the
    /// profile replay has no timing model, so it adds them to its
    /// warm-up
    uint64_t functionalWarmup = 0;
    /// pipeline mode: count cycles from the last warm-up retire
    bool retireToRetire = false;
};

/** What a job body measured. */
struct Measurement
{
    /// records measured: fewer than the stretch asked for when the
    /// stream ended early, 0 when it ended inside the warm-up
    uint64_t records = 0;
    /// one value per column of metricColumns(mode), in order
    std::vector<double> values;
};

/**
 * Run @p spec's predictor (profile mode) or scheme (pipeline mode)
 * over @p stretch of @p src. runJob() measures a full job with it,
 * and the sampler each of its windows.
 */
Measurement measure(const JobSpec &spec, workload::TraceSource &src,
                    const Stretch &stretch);

/** How a sampled job (src/sample/) reports a result column. */
enum class SampledAs
{
    Mean,     ///< the stratified mean
    Interval, ///< the mean and its 95% interval (`_ci_lo`, `_ci_hi`)
    /// estimated per record through the Total column that follows
    /// it, then inverted, with its interval and standard error
    /// (`_se`): IPC through cycles per instruction (CPI). The
    /// record-weighted CPI mean converges to the full run's cycles /
    /// instructions, where a mean of window IPCs would not
    /// (mean-of-ratios bias).
    Reciprocal,
    /// the per-record mean of the Reciprocal column before it, times
    /// the measured records: cycles
    Total,
};

/** One result column of a job mode. */
struct MetricColumn
{
    const char *name;
    SampledAs sampled;
};

/**
 * @return the result columns of @p mode, in result order. A full job
 * reports each column's value; a sampled job reports each column as
 * its SampledAs says, then its `sample_*` columns. The sampler
 * allocates windows by the spread of column 0 (per record, for a
 * Reciprocal column).
 */
const std::vector<MetricColumn> &metricColumns(JobMode mode);

/**
 * Execute one job in an isolated simulation context.
 *
 * With @p cache, the job's dynamic stream is resolved through the
 * shared trace cache: the first job per (workload, seed, budget)
 * triple materializes the trace, later jobs replay it read-only.
 * Metrics are bit-identical either way; only the wall-time metadata
 * differs. Without a cache the job regenerates its stream.
 *
 * A spec with a sample budget runs as sample::runSampledJob();
 * @p sampleThreads is how many workers it may use for its measured
 * windows (metrics are thread-count-invariant, so this is purely a
 * wall-clock knob). Full-trace jobs ignore it.
 */
JobResult runJob(const JobSpec &spec,
                 workload::TraceCache *cache = nullptr,
                 unsigned sampleThreads = 1);

/** Knobs for SweepRunner::run. */
struct SweepOptions
{
    unsigned threads = 0;      ///< worker count; 0 = hardware
    std::string manifestPath;  ///< resume manifest; empty = disabled
    /// resolve job streams through the shared trace cache
    bool useTraceCache = true;
    /// trace-cache byte cap applied before the sweep; 0 keeps the
    /// cache's current cap
    size_t traceCacheBytes = 0;
    /// persistent trace-cache directory attached to the shared cache
    /// before the sweep; empty keeps the cache's current disk tier
    /// (GDIFF_TRACE_CACHE_DIR, or none)
    std::string traceCacheDir;
    /// byte cap for the persistent tier; 0 = the tier's default
    size_t traceCacheDiskBytes = 0;
    /**
     * Cooperative cancellation (graceful SIGINT/SIGTERM drain): when
     * the pointee becomes true, workers stop *dispatching* new jobs
     * but every job already running completes, reaches the sinks,
     * and is journaled in the manifest — so an interrupted sweep
     * loses nothing and resumes cleanly. Non-owning; may be null.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** What a sweep did, for the caller's summary line. */
struct SweepSummary
{
    size_t totalJobs = 0;   ///< jobs in the expanded grid
    size_t ranJobs = 0;     ///< jobs executed this run
    size_t skippedJobs = 0; ///< jobs skipped via the resume manifest
    /// jobs never dispatched because SweepOptions::cancel fired
    size_t canceledJobs = 0;
    double wallSeconds = 0; ///< whole-sweep wall time
    /// @name trace-cache effect on this sweep
    /// @{
    size_t generatedTraces = 0;  ///< jobs that materialized a trace
    size_t replayedJobs = 0;     ///< jobs served from the cache
    /// jobs whose trace was loaded from the persistent disk tier (a
    /// subset of replayedJobs)
    size_t diskLoadedJobs = 0;
    double generateSeconds = 0;  ///< total trace-generation wall time
    /// @}
};

/** Expands a grid and runs it through the pool into the sinks. */
class SweepRunner
{
  public:
    /** @param spec the grid; expanded once, in stable order. */
    explicit SweepRunner(const SweepSpec &spec);

    /** @param jobs an explicit job list (pre-expanded grids). */
    explicit SweepRunner(std::vector<JobSpec> jobs);

    /** Register a sink (non-owning). Call before run(). */
    void addSink(ResultSink &sink);

    /** @return the expanded jobs, in grid order. */
    const std::vector<JobSpec> &jobs() const { return jobList; }

    /**
     * Run every job not already recorded in the manifest, deliver
     * each result to every sink, then finish() the sinks.
     */
    SweepSummary run(const SweepOptions &options = SweepOptions());

  private:
    std::vector<JobSpec> jobList;
    std::vector<ResultSink *> sinks;
};

} // namespace runner
} // namespace gdiff

#endif // GDIFF_RUNNER_RUNNER_HH
