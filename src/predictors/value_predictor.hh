/**
 * @file
 * Abstract interface shared by every value predictor in the library
 * (the local baselines in this directory and the gdiff predictor in
 * src/core).
 *
 * The protocol mirrors the hardware: predict() is called when an
 * instruction is dispatched, update() when its value becomes
 * architecturally known (profile drivers call them back-to-back; the
 * OOO pipeline separates them by the real dispatch-to-writeback
 * latency, with in-flight instances in between).
 *
 * The scalar pair is the semantic specification. The profile drivers
 * (sim/profile) drive the *batch* protocol instead: whole lanes of
 * (pc, actual) pairs per call. Every batch entry point has a default
 * that loops the scalar calls, so a new predictor only ever
 * implements predict()/update(); a family overrides
 * predictUpdateBatch() with a fused loop only where that measurably
 * pays (see docs/INTERNALS.md §10). Batched and scalar paths are
 * required to be bit-identical — src/check's scalar-vs-batch differ
 * and the gdifffuzz --batch mode police that the same way
 * production-vs-oracle divergence is policed.
 */

#ifndef GDIFF_PREDICTORS_VALUE_PREDICTOR_HH
#define GDIFF_PREDICTORS_VALUE_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gdiff {

namespace workload {
struct TraceChunk;
}

namespace predictors {

/**
 * Per-lane outcome of a batch prediction call. Lanes are dense:
 * lane l is the l-th record the call predicted for.
 */
struct PredictionBatch
{
    std::vector<int64_t> value;    ///< predicted value (when predicted)
    std::vector<uint8_t> predicted;///< 1 if the lane was predicted

    /** Size for @p lanes lanes, zeroing predicted/value. */
    void
    reset(size_t lanes)
    {
        value.assign(lanes, 0);
        predicted.assign(lanes, 0);
    }

    size_t lanes() const { return predicted.size(); }
};

/** Abstract PC-indexed value predictor. */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** @return a short display name ("stride", "dfcm", "gdiff", ...). */
    virtual std::string name() const = 0;

    /**
     * Attempt a prediction for the value-producing instruction at pc.
     *
     * @param pc    instruction address.
     * @param value set to the predicted value on success.
     * @return true if the predictor produced a prediction.
     */
    virtual bool predict(uint64_t pc, int64_t &value) = 0;

    /**
     * Train on the actual produced value.
     *
     * @param pc     instruction address.
     * @param actual the value the instruction produced.
     */
    virtual void update(uint64_t pc, int64_t actual) = 0;

    /**
     * Predict with in-flight compensation: in an OOO pipeline the
     * table reflects the last *written-back* instance, while `ahead`
     * instances of this PC are still in flight. Computational
     * predictors can extrapolate across them (stride predictors
     * classically do); the default falls back to predict().
     *
     * @param pc    instruction address.
     * @param ahead number of in-flight instances of this PC.
     * @param value set to the prediction on success.
     */
    virtual bool
    predictAhead(uint64_t pc, unsigned ahead, int64_t &value)
    {
        (void)ahead;
        return predict(pc, value);
    }

    /// @name Batch protocol
    /// Semantics are defined by the scalar calls: each batch entry
    /// point must behave exactly as its default loop below. The fused
    /// form exists because the scalar protocol *interleaves* predict
    /// and update per record — prediction l must observe the training
    /// effect of lanes 0..l-1 — so a profitable batch implementation
    /// hoists table/state access per record, not per phase.
    /// @{

    /**
     * Predict lanes 0..n-1 without training: out lane l is the
     * prediction for pcs[l] against current state. Equivalent to n
     * predict() calls (no state changes).
     */
    virtual void
    predictBatch(const uint64_t *pcs, uint32_t n, PredictionBatch &out)
    {
        out.reset(n);
        for (uint32_t l = 0; l < n; ++l) {
            int64_t v = 0;
            if (predict(pcs[l], v)) {
                out.predicted[l] = 1;
                out.value[l] = v;
            }
        }
    }

    /**
     * Train lanes 0..n-1 in order. Equivalent to n update() calls.
     */
    virtual void
    updateBatch(const uint64_t *pcs, const int64_t *actuals, uint32_t n)
    {
        for (uint32_t l = 0; l < n; ++l)
            update(pcs[l], actuals[l]);
    }

    /**
     * The fused hot path: per lane l, predict for pcs[l], then train
     * on actuals[l] — exactly the profile drivers' per-record
     * protocol, so prediction l sees updates 0..l-1. Overrides must be
     * bit-identical to this default in predictions and entry state
     * (the scalar-vs-batch differ enforces it).
     */
    virtual void
    predictUpdateBatch(const uint64_t *pcs, const int64_t *actuals,
                       uint32_t n, PredictionBatch &out)
    {
        out.reset(n);
        for (uint32_t l = 0; l < n; ++l) {
            int64_t v = 0;
            if (predict(pcs[l], v)) {
                out.predicted[l] = 1;
                out.value[l] = v;
            }
            update(pcs[l], actuals[l]);
        }
    }
    /// @}
};

/**
 * Gather the dense value-producing lanes of @p chunk, considering
 * only records [0, limit): lane arrays receive the pc and produced
 * value, records[l] the chunk record index. Arrays must hold
 * TraceChunk::capacity elements. @return the lane count. The value
 * profile driver gathers once and feeds the lanes to every
 * predictor. The work is simd::compactFlaggedLanes, under the active
 * kernel set.
 */
uint32_t gatherValueLanes(const workload::TraceChunk &chunk,
                          uint32_t limit, uint64_t *pcs,
                          int64_t *values, uint32_t *records);

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_VALUE_PREDICTOR_HH
