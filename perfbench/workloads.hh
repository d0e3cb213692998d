/**
 * @file
 * The benchmark's workloads and the layer probes of the traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "predictors/value_predictor.hh"
#include "workload/trace.hh"
#include "workload/trace_cache.hh"

namespace perfbench {

/** @return true for profile_zoo, pipeline_mix and sampled_disk. */
bool isSweepWorkload(const std::string &name);

/** Run one of the batch sweep workloads, filling @p report. */
void runSweepWorkload(const Options &opt, Report &report);

/** Run serve_warm, filling @p report. */
void runServeWorkload(const Options &opt, Report &report);

/** @return the interned span name "predictors.<family>". */
const char *predictorSpan(const std::string &family);

/**
 * Forwards every call to a predictor and records a span around each
 * predictUpdateBatch() — the call ValueProfileRunner::run makes once
 * per trace chunk — so the predictor's time separates from the
 * profile runner's own.
 */
class TimedPredictor : public gdiff::predictors::ValuePredictor
{
  public:
    TimedPredictor(gdiff::predictors::ValuePredictor &inner,
                   const char *span)
        : inner(inner), span(span)
    {}

    std::string name() const override { return inner.name(); }
    bool predict(uint64_t pc, int64_t &value) override
    {
        return inner.predict(pc, value);
    }
    void update(uint64_t pc, int64_t actual) override
    {
        inner.update(pc, actual);
    }
    bool predictAhead(uint64_t pc, unsigned ahead,
                      int64_t &value) override
    {
        return inner.predictAhead(pc, ahead, value);
    }
    void predictBatch(const uint64_t *pcs, uint32_t n,
                      gdiff::predictors::PredictionBatch &out) override
    {
        inner.predictBatch(pcs, n, out);
    }
    void updateBatch(const uint64_t *pcs, const int64_t *actuals,
                     uint32_t n) override
    {
        inner.updateBatch(pcs, actuals, n);
    }
    void predictUpdateBatch(const uint64_t *pcs, const int64_t *actuals,
                            uint32_t n,
                            gdiff::predictors::PredictionBatch &out) override
    {
        ScopedSpan s(span);
        inner.predictUpdateBatch(pcs, actuals, n, out);
        laneCount += n;
    }

    /** @return value records predicted through the batch call. */
    uint64_t lanes() const { return laneCount; }

  private:
    gdiff::predictors::ValuePredictor &inner;
    const char *span;
    uint64_t laneCount = 0;
};

/** Forwards a trace source, with a span around each chunk delivery
 * (the trace cache's replay cursor). */
class TimedSource : public gdiff::workload::TraceSource
{
  public:
    explicit TimedSource(gdiff::workload::TraceSource &inner)
        : inner(inner)
    {}

    bool fill(gdiff::workload::TraceChunk &chunk) override
    {
        ScopedSpan s("trace_cache.replay");
        return inner.fill(chunk);
    }
    const gdiff::workload::TraceChunk *
    fillRef(gdiff::workload::TraceChunk &scratch) override
    {
        ScopedSpan s("trace_cache.replay");
        return inner.fillRef(scratch);
    }

  private:
    gdiff::workload::TraceSource &inner;
};

/** A trace the timed phase replays. */
struct TraceKey
{
    std::string workload;
    uint64_t seed = 0;
    uint64_t records = 0;
};

/**
 * Drive each family's batch call and its scalar predict/update loop
 * over the same value lanes of @p traces (resident in @p cache);
 * reports a problem if the two paths disagree on any prediction.
 * @return per kFamilies entry, scalar time / batch time.
 */
std::vector<double>
probePredictors(const std::vector<TraceKey> &traces,
                gdiff::workload::TraceCache &cache, Report &report);

/** D-cache probe result. */
struct MemProbe
{
    double accessesPerSecond = 0;
    double missRate = 0;
};

/** Drive mem::Cache (paper D-cache) with the load/store addresses of
 * @p traces. */
MemProbe probeMem(const std::vector<TraceKey> &traces,
                  gdiff::workload::TraceCache &cache);

/** trace_io probe result. */
struct TraceIoProbe
{
    double encodeRecordsPerSecond = 0;
    double decodeRecordsPerSecond = 0;
    double bytesPerRecord = 0;
};

/**
 * Decode each disk-tier entry under @p diskDir from memory, and
 * v3-encode each resident trace to a scratch file in @p workdir;
 * reports a problem if a decode fails or loses records.
 */
TraceIoProbe probeTraceIo(const std::vector<TraceKey> &traces,
                          gdiff::workload::TraceCache &cache,
                          const std::string &diskDir,
                          const std::string &workdir, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
