/**
 * @file
 * Value-speculation schemes pluggable into the OOO timing model.
 *
 * A scheme answers dispatch-time prediction queries and is trained at
 * writeback time (in completion order, exactly as the hardware would
 * be). The base class owns the paper's 3-bit confidence mechanism and
 * the coverage/accuracy bookkeeping used by Figs. 13 and 16:
 *
 *  - coverage  = confident predictions / value-producing instructions
 *  - accuracy  = correct confident predictions / confident predictions
 *
 * Provided schemes:
 *  - NoPrediction          — the baseline machine
 *  - LocalScheme           — wraps any local ValuePredictor (stride,
 *                            DFCM) with dispatch/writeback timing
 *  - SgvqScheme (paper §4) — gdiff over a speculative GVQ pushed in
 *                            completion order
 *  - HgvqScheme (paper §5) — gdiff over the hybrid GVQ: slots pushed
 *                            in dispatch order with local-stride
 *                            values, overwritten at writeback
 */

#ifndef GDIFF_PIPELINE_VP_SCHEME_HH
#define GDIFF_PIPELINE_VP_SCHEME_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/gdiff.hh"
#include "core/gvq.hh"
#include "predictors/confidence.hh"
#include "predictors/stride.hh"
#include "predictors/table.hh"
#include "predictors/value_predictor.hh"
#include "stats/counter.hh"

namespace gdiff {
namespace pipeline {

/** Outcome of a dispatch-time prediction query. */
struct VpDecision
{
    bool predicted = false; ///< the predictor produced a value
    bool confident = false; ///< passes the confidence gate
    int64_t value = 0;      ///< the predicted value

    /// @name Scheme-private state carried from dispatch to writeback
    /// @{
    uint64_t token = 0; ///< e.g. the HGVQ slot id
    /// HGVQ's two component candidates, so each chooser component
    /// trains on its own outcome
    bool haveGdiff = false;
    bool haveFiller = false;
    int64_t gdiffValue = 0;
    int64_t fillerValue = 0;
    /// @}
};

/** Base class: confidence gating + statistics. */
class VpScheme
{
  public:
    explicit VpScheme(const predictors::ConfidenceConfig &conf_cfg =
                          predictors::ConfidenceConfig());
    virtual ~VpScheme() = default;

    /** @return scheme display name. */
    virtual std::string name() const = 0;

    /**
     * Dispatch-time query for a value-producing instruction.
     * Records coverage statistics.
     */
    VpDecision predictAtDispatch(uint64_t pc);

    /**
     * Writeback-time training, called in completion order.
     * Records accuracy statistics and trains confidence.
     */
    void writeback(uint64_t pc, const VpDecision &d, int64_t actual);

    /// @name Statistics (paper Figs. 13/16 metrics)
    /// @{
    const stats::Ratio &coverage() const { return cov; }
    const stats::Ratio &gatedAccuracy() const { return accGated; }
    const stats::Ratio &rawAccuracy() const { return accRaw; }
    /// @}

  protected:
    /**
     * Scheme-specific prediction: sets d.value when predicting, and
     * any scheme-private fields of d that its writeback needs.
     * @param ahead in-flight instances of this PC (dispatched, not
     *              yet written back) — the table staleness local
     *              computational predictors extrapolate across.
     * @return true if predicted.
     */
    virtual bool doPredict(uint64_t pc, unsigned ahead,
                           VpDecision &d) = 0;

    /** Scheme-specific training at writeback. */
    virtual void doWriteback(uint64_t pc, const VpDecision &d,
                             int64_t actual) = 0;

  private:
    predictors::ConfidenceTable conf;
    /// per-PC in-flight count (dispatched, not yet written back)
    predictors::PcIndexedTable<uint32_t> inflight;
    stats::Ratio cov;
    stats::Ratio accGated;
    stats::Ratio accRaw;
};

/** Baseline: never predicts. */
class NoPrediction : public VpScheme
{
  public:
    std::string name() const override { return "baseline"; }

  protected:
    bool
    doPredict(uint64_t, unsigned, VpDecision &) override
    {
        return false;
    }

    void doWriteback(uint64_t, const VpDecision &, int64_t) override {}
};

/** Wraps a local predictor (stride / DFCM) into the scheme protocol. */
class LocalScheme : public VpScheme
{
  public:
    /**
     * @param predictor owning pointer to the wrapped local predictor.
     * @param display   scheme name for reports.
     */
    LocalScheme(std::unique_ptr<predictors::ValuePredictor> predictor,
                std::string display);

    std::string name() const override { return display; }

  protected:
    bool doPredict(uint64_t pc, unsigned ahead,
                   VpDecision &d) override;
    void doWriteback(uint64_t pc, const VpDecision &d,
                     int64_t actual) override;

  private:
    std::unique_ptr<predictors::ValuePredictor> inner;
    std::string display;
};

/** gdiff over the speculative GVQ (paper §4, Fig. 13). */
class SgvqScheme : public VpScheme
{
  public:
    /** @param gdiff_cfg gdiff configuration (paper: order 32, 8K
     * table for the pipeline studies). */
    explicit SgvqScheme(const core::GDiffConfig &gdiff_cfg);

    std::string name() const override { return "gdiff(SGVQ)"; }

  protected:
    bool doPredict(uint64_t pc, unsigned ahead,
                   VpDecision &d) override;
    void doWriteback(uint64_t pc, const VpDecision &d,
                     int64_t actual) override;

  private:
    core::GDiffPredictor gd;
    core::GlobalValueQueue queue;
};

/**
 * gdiff over the hybrid GVQ (paper §5, Fig. 16).
 *
 * Slots are pushed at dispatch with in-flight-compensated
 * local-stride fillers and overwritten with real results at
 * writeback; gdiff's table trains against dispatch-anchored windows.
 * Prediction selects per PC between the gdiff (distance) candidate
 * and the local-stride candidate by component confidence — the
 * "efficient integration of two types of value localities" of §5,
 * realised as a standard hybrid chooser (see DESIGN.md §6.3).
 */
class HgvqScheme : public VpScheme
{
  public:
    /**
     * @param gdiff_cfg     gdiff configuration (paper: order 32).
     * @param local_entries local-stride filler table entries.
     * @param conf_cfg      confidence policy (paper default).
     */
    explicit HgvqScheme(const core::GDiffConfig &gdiff_cfg,
                        size_t local_entries = 8192,
                        const predictors::ConfidenceConfig &conf_cfg =
                            predictors::ConfidenceConfig());

    std::string name() const override { return "gdiff(HGVQ)"; }

  protected:
    bool doPredict(uint64_t pc, unsigned ahead,
                   VpDecision &d) override;
    void doWriteback(uint64_t pc, const VpDecision &d,
                     int64_t actual) override;

  private:
    core::GDiffPredictor gd;
    core::HybridGvq queue;
    predictors::StridePredictor localStride;
    /// per-component selection confidence (the hybrid chooser)
    predictors::ConfidenceTable gdiffConf;
    predictors::ConfidenceTable fillerConf;
};

} // namespace pipeline
} // namespace gdiff

#endif // GDIFF_PIPELINE_VP_SCHEME_HH
