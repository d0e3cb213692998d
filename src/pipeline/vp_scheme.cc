#include "pipeline/vp_scheme.hh"

namespace gdiff {
namespace pipeline {

// ------------------------------------------------------------ VpScheme

VpScheme::VpScheme(const predictors::ConfidenceConfig &conf_cfg)
    : conf(conf_cfg)
{
}

VpDecision
VpScheme::predictAtDispatch(uint64_t pc)
{
    VpDecision d;
    uint32_t &outstanding = inflight.lookup(pc);
    d.predicted = doPredict(pc, outstanding, d);
    d.confident = d.predicted && conf.confident(pc);
    cov.record(d.confident);
    ++outstanding;
    return d;
}

void
VpScheme::writeback(uint64_t pc, const VpDecision &d, int64_t actual)
{
    uint32_t &outstanding = inflight.lookup(pc);
    if (outstanding > 0)
        --outstanding;
    if (d.predicted) {
        bool correct = (d.value == actual);
        accRaw.record(correct);
        if (d.confident)
            accGated.record(correct);
        conf.train(pc, correct);
    }
    doWriteback(pc, d, actual);
}

// --------------------------------------------------------- LocalScheme

LocalScheme::LocalScheme(
    std::unique_ptr<predictors::ValuePredictor> predictor,
    std::string display)
    : inner(std::move(predictor)), display(std::move(display))
{
}

bool
LocalScheme::doPredict(uint64_t pc, unsigned ahead, VpDecision &d)
{
    return inner->predictAhead(pc, ahead, d.value);
}

void
LocalScheme::doWriteback(uint64_t pc, const VpDecision &, int64_t actual)
{
    inner->update(pc, actual);
}

// ---------------------------------------------------------- SgvqScheme

SgvqScheme::SgvqScheme(const core::GDiffConfig &gdiff_cfg)
    : gd(gdiff_cfg), queue(gdiff_cfg.order, 0)
{
}

bool
SgvqScheme::doPredict(uint64_t pc, unsigned, VpDecision &d)
{
    return gd.predictWithWindow(pc, queue.visibleWindow(), d.value);
}

void
SgvqScheme::doWriteback(uint64_t pc, const VpDecision &, int64_t actual)
{
    // Writebacks arrive in completion order: the queue sees the
    // execution-order value sequence, with all its cache-miss-induced
    // variation (the paper's §4 problem).
    gd.trainWithWindow(pc, queue.visibleWindow(), actual);
    queue.push(actual);
}

// ---------------------------------------------------------- HgvqScheme

HgvqScheme::HgvqScheme(const core::GDiffConfig &gdiff_cfg,
                       size_t local_entries,
                       const predictors::ConfidenceConfig &conf_cfg)
    : VpScheme(conf_cfg), gd(gdiff_cfg),
      queue(gdiff_cfg.order,
            static_cast<size_t>(gdiff_cfg.order) + 256),
      localStride(local_entries)
{
}

bool
HgvqScheme::doPredict(uint64_t pc, unsigned ahead, VpDecision &d)
{
    // gdiff candidate: from the dispatch-ordered window, *before*
    // pushing this instruction's own slot.
    d.haveGdiff =
        gd.predictWithWindow(pc, queue.windowAtDispatch(), d.gdiffValue);

    // Local-stride candidate (in-flight-compensated): fills this
    // instruction's queue slot (overwritten with the real result at
    // writeback) and competes as a prediction source — the scheme
    // integrates local and global stride locality (paper §5).
    d.haveFiller = localStride.predictAhead(pc, ahead, d.fillerValue);

    d.token = queue.pushSpeculative(d.haveFiller ? d.fillerValue : 0);

    // Per-PC component choice: take the candidate whose component
    // confidence is currently higher (gdiff wins ties — it is the
    // added capability under study).
    if (d.haveGdiff &&
        (!d.haveFiller ||
         gdiffConf.level(pc) >= fillerConf.level(pc))) {
        d.value = d.gdiffValue;
        return true;
    }
    if (d.haveFiller) {
        d.value = d.fillerValue;
        return true;
    }
    return false;
}

void
HgvqScheme::doWriteback(uint64_t pc, const VpDecision &d, int64_t actual)
{
    queue.commitSlot(d.token, actual);
    // Train against the dispatch-ordered window anchored at this
    // instruction's own slot: execution variation cannot perturb it.
    gd.trainWithWindow(pc, queue.windowBeforeSlot(d.token), actual);
    localStride.update(pc, actual);

    // Each chooser component trains on its own candidate's outcome.
    if (d.haveGdiff)
        gdiffConf.train(pc, d.gdiffValue == actual);
    if (d.haveFiller)
        fillerConf.train(pc, d.fillerValue == actual);
}

} // namespace pipeline
} // namespace gdiff
