/**
 * @file
 * The gdiff predictor — the paper's primary contribution (§3).
 *
 * Per-PC prediction-table entry: n stored differences plus a selected
 * distance. Operation:
 *
 *  - Prediction: if a distance k is selected, the prediction is
 *    queue[k] + diff[k] over the current visible window.
 *  - Update: compute the n differences between the produced value and
 *    the visible window; if any matches the stored difference at the
 *    same position, select that position as the distance; store the
 *    freshly computed differences either way. Learning takes two
 *    productions of the correlated pattern.
 *
 * The class supports three usage modes:
 *  - profile mode (ValuePredictor interface): predict()/update() with
 *    an internal GlobalValueQueue, optionally delay-shifted (§3.1);
 *  - external-window mode (predictWithWindow/trainWithWindow): the
 *    pipeline supplies SGVQ or HGVQ windows explicitly (§4-§5);
 *  - address mode is just profile mode fed with addresses (§6).
 */

#ifndef GDIFF_CORE_GDIFF_HH
#define GDIFF_CORE_GDIFF_HH

#include <array>
#include <cstdint>

#include "core/gvq.hh"
#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace core {

/** Configuration of a gdiff predictor instance. */
struct GDiffConfig
{
    /// queue window size n (the predictor's "order"); paper uses 8
    /// for profile studies and 32 for the pipeline studies
    unsigned order = 8;
    /// prediction-table entries; 0 = unlimited, paper default 8K
    size_t tableEntries = 8192;
    /// profile-mode value delay T (§3.1); ignored in external-window
    /// mode, where the window itself embodies the delay
    unsigned valueDelay = 0;
};

/** The gdiff global-stride value predictor. */
class GDiffPredictor : public predictors::ValuePredictor
{
  public:
    explicit GDiffPredictor(const GDiffConfig &config = GDiffConfig());

    std::string name() const override { return "gdiff"; }

    /// @name Profile-mode interface (internal queue)
    /// @{
    bool predict(uint64_t pc, int64_t &value) override;

    /**
     * Train on the produced value against the internal queue's
     * visible window, then push the value into the queue.
     */
    void update(uint64_t pc, int64_t actual) override;

    /**
     * Fused batch over the internal queue: linearizes the queue plus
     * the batch's own actuals into one oldest-first stream, resolves
     * the table entries a tile of lanes at a time, then per lane runs
     * the same predict and train steps as predict()/update() over
     * its window in that stream. Bit-identical to the scalar
     * predict/update interleave.
     */
    void predictUpdateBatch(const uint64_t *pcs,
                            const int64_t *actuals, uint32_t n,
                            predictors::PredictionBatch &out) override;
    /// @}

    /// @name External-window interface (pipeline SGVQ/HGVQ)
    /// @{
    /**
     * Predict using an externally supplied window (e.g. the HGVQ
     * dispatch window).
     * @return true if a prediction was made.
     */
    bool predictWithWindow(uint64_t pc, const ValueWindow &window,
                           int64_t &value);

    /** Train the table against an externally supplied window. */
    void trainWithWindow(uint64_t pc, const ValueWindow &window,
                         int64_t actual);
    /// @}

    /** @return the internal queue (profile mode). */
    GlobalValueQueue &queue() { return gvq; }

    /** @return aliasing conflict rate of the prediction table. */
    double tableConflictRate() const { return table.conflictRate(); }

    /**
     * @return the currently selected distance for pc, or -1 if none.
     * Exposed for correlation-distance studies (the paper's §3
     * companion analysis [2]).
     */
    int
    selectedDistance(uint64_t pc) const
    {
        const Entry *e = table.probe(pc);
        return e ? e->distance : -1;
    }

    /** @return the configuration in force. */
    const GDiffConfig &config() const { return cfg; }

  private:
    struct Entry
    {
        std::array<int64_t, maxOrder> diffs{};
        uint8_t diffCount = 0;   ///< valid stored diffs
        int16_t distance = -1;   ///< selected k, -1 = none
    };

    GDiffConfig cfg;
    predictors::PcIndexedTable<Entry> table;
    GlobalValueQueue gvq;
    std::vector<int64_t> extScratch; ///< batch: linearized stream
};

} // namespace core
} // namespace gdiff

#endif // GDIFF_CORE_GDIFF_HH
