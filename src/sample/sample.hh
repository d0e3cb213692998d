/**
 * @file
 * Sampled timing simulation with two-phase stratified sampling.
 *
 * Full-trace pipeline simulation caps every sweep at a few million
 * records per job. The sampled simulator trades a little statistical
 * uncertainty for a ~budget/instructions fraction of that work:
 *
 *  1. The measured region [warmup, warmup + instructions) of the
 *     trace is cut into equal candidate windows of
 *     JobSpec::sampleWindow records.
 *
 *  2. A cheap profiling pass streams the pc and value columns of the
 *     whole region once (no timing model; a disk-loaded trace decodes
 *     no other column) and fingerprints each window with the v3 codec's
 *     phase/period detector (workload::detectStridePeriod on the
 *     value and pc columns of the window's scan prefix). Windows with
 *     the same (value-period, pc-period) fingerprint — i.e. the same
 *     loop phase — form one stratum.
 *
 *  3. A pilot of up to two windows per stratum is timing-simulated,
 *     the remaining budget (sampleBudget / sampleWindow windows in
 *     total) is spread by Neyman allocation — proportional to each
 *     stratum's weight times its pilot standard deviation — and the
 *     chosen windows are simulated. Each window job fast-forwards to
 *     its offset with workload::SkipTraceSource (a walk over the
 *     shared cached trace's block index that decodes only the block
 *     the offset splits, not simulation), functionally warms
 *     caches/predictors over up to kFunctionalWarmup records,
 *     timing-warms kWarmupWindows window lengths, then measures.
 *
 *  4. The per-window metrics are combined by the stratified
 *     estimators (sample/estimator.hh) into point estimates with 95%
 *     confidence intervals, reported as `*_ci_lo` / `*_ci_hi` metric
 *     columns next to the usual names. IPC is estimated through CPI
 *     (record-weighted cycles-per-instruction, then inverted) so the
 *     sampled value converges to the full run's
 *     total-cycles/total-instructions, not a mean of window ratios.
 *
 * Determinism: window selection is seeded by JobSpec::sampleSeed,
 * window measurement depends only on the spec, and aggregation walks
 * windows in id order — so results are bit-identical across runs and
 * thread counts, like every other runner job.
 *
 * A budget >= instructions degrades to one full simulation and
 * reports zero-width intervals (there is nothing left to sample).
 *
 * The sampler is part of the runner (it builds into gdiff_runner):
 * runner::runJob() runs every spec with a sample budget through
 * runSampledJob(), and each window is a runner job body
 * (runner::measure) over a shorter runner::Stretch. The sampled
 * columns are runner::metricColumns().
 */

#ifndef GDIFF_SAMPLE_SAMPLE_HH
#define GDIFF_SAMPLE_SAMPLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runner/job.hh"
#include "workload/trace.hh"
#include "workload/trace_cache.hh"

namespace gdiff {
namespace sample {

/// records of a window's prefix the profiling pass fingerprints.
/// Long enough for detectStridePeriod to resolve any period it can
/// express (2L < prefix), short enough that the profiling pass stays
/// a small fraction of one full simulation: the period scan is
/// O(maxPeriod x prefix) per window, and at 2048 it alone would cost
/// as much as the measured windows.
inline constexpr uint32_t kScanPrefix = 512;

/// window-lengths of stream timing-simulated before each measured
/// window to warm caches and predictors. Too little and every window
/// starts cold, biasing sampled IPC low by more than its interval
/// width (the SMARTS cold-start problem); 4x keeps the bias well
/// under the CI at the default window size while still costing only
/// a small constant factor over the measured records.
inline constexpr uint64_t kWarmupWindows = 4;

/// records of stream *functionally* warmed before the detailed
/// warmup: caches, branch predictor, and VP tables train in program
/// order with no cycle modelling (OooPipeline::run's
/// functionalWarmup phase; profile-mode windows fold this span into
/// the untimed replay's warmup, which is already functional).
/// Structures like the D-cache converge over tens of thousands of
/// records on some kernels (gzip's sliding dictionary is the worst
/// case) — far more history than detailed warmup can affordably
/// replay, but nearly free to stream functionally. An absolute
/// count, not window-relative: state convergence is a property of
/// the machine, not of the sampling geometry.
inline constexpr uint64_t kFunctionalWarmup = 65'536;

/** The candidate-window geometry of one sampled job. */
struct WindowGrid
{
    uint64_t measuredStart = 0;   ///< first measured record (= warmup)
    uint64_t measuredRecords = 0; ///< region length (= instructions)
    uint64_t windowRecords = 0;   ///< records per window (= sampleWindow)

    /** @return candidate windows: ceil(measured / window). */
    uint64_t count() const
    {
        return (measuredRecords + windowRecords - 1) / windowRecords;
    }

    /** @return absolute record index where window @p w starts. */
    uint64_t start(uint64_t w) const
    {
        return measuredStart + w * windowRecords;
    }

    /** @return records window @p w measures (the last window is
     * clipped at the end of the region). */
    uint64_t length(uint64_t w) const
    {
        uint64_t end = measuredStart + measuredRecords;
        uint64_t s = start(w);
        return std::min(windowRecords, end - s);
    }

    /** @return detailed-warmup records for window @p w: up to
     * kWarmupWindows window lengths of stream immediately before it,
     * clipped at the start of the trace (window 0 of a warmup-less
     * job warms nothing). */
    uint64_t warmup(uint64_t w) const
    {
        return std::min(kWarmupWindows * windowRecords, start(w));
    }

    /** @return functional-warmup records for window @p w: up to
     * kFunctionalWarmup records of stream immediately before the
     * detailed warmup, clipped at the start of the trace. */
    uint64_t functionalWarmup(uint64_t w) const
    {
        return std::min(kFunctionalWarmup, start(w) - warmup(w));
    }
};

/** @return the grid for a validated sampled JobSpec. */
WindowGrid makeWindowGrid(uint64_t measuredStart,
                          uint64_t measuredRecords,
                          uint64_t windowRecords);

/** A window's loop-phase fingerprint (stratum membership key). */
struct StratumKey
{
    uint32_t valuePeriod = 1;
    uint32_t pcPeriod = 1;

    bool
    operator==(const StratumKey &o) const
    {
        return valuePeriod == o.valuePeriod && pcPeriod == o.pcPeriod;
    }
};

/**
 * The profiling pass: stream @p src once (it must start at record 0
 * of the job's trace) and fingerprint every window of @p grid.
 * Windows past the end of a short stream keep the default key.
 * The stream walk is sequential; the per-window period scans run on
 * up to @p threads workers (the result does not depend on the
 * schedule — each window's key is an independent function of its own
 * prefix).
 */
std::vector<StratumKey> profileStrata(workload::TraceSource &src,
                                      const WindowGrid &grid,
                                      unsigned threads = 1);

/**
 * Run @p spec (which must have a sample budget) as a sampled
 * simulation, resolving the shared trace through @p cache (strongly
 * recommended — without it every window regenerates the stream
 * functionally) and measuring windows on up to @p threads workers.
 * Metrics are bit-identical for any thread count.
 */
runner::JobResult runSampledJob(const runner::JobSpec &spec,
                                workload::TraceCache *cache,
                                unsigned threads);

/**
 * Does nothing: runner::runJob() runs sampled specs itself. Kept for
 * callers written when a binary had to register the sampler at
 * startup.
 */
inline void install() {}

} // namespace sample
} // namespace gdiff

#endif // GDIFF_SAMPLE_SAMPLE_HH
