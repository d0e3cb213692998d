/**
 * @file
 * Front-end control-flow prediction: gshare direction predictor, a
 * last-target BTB for indirect jumps, and a return address stack.
 *
 * The timing model is trace driven, so prediction outcomes only
 * decide whether the front end takes a redirect bubble; wrong-path
 * instructions are not simulated (see DESIGN.md for the deviation
 * note — wrong-path values never enter the speculative GVQ, so our
 * SGVQ execution variation comes from cache-miss reordering alone).
 */

#ifndef GDIFF_PIPELINE_BRANCH_PRED_HH
#define GDIFF_PIPELINE_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "pipeline/config.hh"
#include "stats/counter.hh"
#include "workload/trace.hh"

namespace gdiff {
namespace pipeline {

/** gshare + BTB + RAS front-end predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const PipelineConfig &config);

    /**
     * Predict and train on one control-flow instruction.
     *
     * @param r the dynamic instruction (must be a control transfer or
     *          conditional branch).
     * @return true if both direction and target were predicted
     *         correctly (no front-end redirect needed).
     */
    bool predictAndTrain(const workload::TraceRecord &r);

    /** @return conditional-branch direction accuracy. */
    const stats::Ratio &directionAccuracy() const { return dirAcc; }

    /** @return indirect-target (jr/jalr) prediction accuracy. */
    const stats::Ratio &indirectAccuracy() const { return indAcc; }

    /** @return overall redirect-free rate over all control ops. */
    const stats::Ratio &overallAccuracy() const { return allAcc; }

  private:
    unsigned historyBits;
    uint64_t history = 0;
    std::vector<uint8_t> counters; ///< 2-bit gshare counters

    struct BtbEntry
    {
        uint64_t tag = 0;
        uint64_t target = 0;
        bool valid = false;
    };
    std::vector<BtbEntry> btb;

    /// return-address stack: a ring of rasDepth entries. A push onto
    /// a full stack overwrites the oldest entry.
    std::vector<uint64_t> ras;
    unsigned rasTop = 0;   ///< slot the next push writes
    unsigned rasCount = 0; ///< live entries, at most ras.size()

    /** Push a return address, dropping the oldest when full. */
    void rasPush(uint64_t addr);

    stats::Ratio dirAcc;
    stats::Ratio indAcc;
    stats::Ratio allAcc;
};

} // namespace pipeline
} // namespace gdiff

#endif // GDIFF_PIPELINE_BRANCH_PRED_HH
