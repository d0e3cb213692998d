/**
 * @file
 * Naive reference-model oracles for differential checking.
 *
 * Each oracle is a straight transliteration of its predictor's update
 * rule as the paper (and DESIGN.md) states it: per-PC state lives in
 * ordinary std::map/std::vector containers, histories are kept as the
 * raw value sequences they logically are, and nothing is packed,
 * folded incrementally, or size-limited for speed. The production
 * predictors in src/predictors and src/core implement the *same
 * semantics* with tables, rolling hashes, and ring buffers — the
 * whole point of the check subsystem is that the two implementations
 * must agree prediction-by-prediction on any input stream
 * (src/check/differ.hh runs the comparison).
 *
 * Index/hash formulas (mix64 folding, table index masks) are part of
 * each predictor's specification — a tagless table's collisions are
 * architecturally visible — so the oracles recompute them from their
 * raw state on every access instead of maintaining them incrementally.
 *
 * To add an oracle for a new predictor: add one row to the family
 * table (runner/factory.cc), plus an oracle here — its update rule
 * transliterated against map-based state, a branch in makePair() and
 * its name in pairNames(); tests/test_check.cc picks the new pair up
 * automatically (see docs/INTERNALS.md §7).
 */

#ifndef GDIFF_CHECK_REFERENCE_HH
#define GDIFF_CHECK_REFERENCE_HH

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "predictors/value_predictor.hh"

namespace gdiff {
namespace check {

/** Last-value oracle: a map from PC to the last observed value. */
class RefLastValue : public predictors::ValuePredictor
{
  public:
    std::string name() const override { return "ref:last_value"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

  private:
    std::map<uint64_t, int64_t> last;
};

/**
 * 2-delta stride oracle: last value, current stride, and the
 * previously observed stride per PC; the predicted stride only
 * changes after the same new stride repeats.
 */
class RefStride2Delta : public predictors::ValuePredictor
{
  public:
    std::string name() const override { return "ref:stride"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

  private:
    struct State
    {
        int64_t last = 0;
        int64_t stride = 0;
        int64_t lastStride = 0;
    };

    std::map<uint64_t, State> state;
};

/**
 * FCM oracle (Sazeides & Smith): each PC keeps its raw value history;
 * the level-2 slot for (PC, history) holds the value that followed
 * that history last time. The level-2 index is recomputed from the
 * raw history on every access by the documented fold (16 bits per
 * item, truncated to the order, hashed with the PC).
 *
 * In stride mode it is the DFCM oracle (Goeman et al.): the history
 * is the raw sequence of strides between a PC's successive values,
 * the slot holds the stride that followed, and the prediction is the
 * PC's last value plus that stride.
 */
class RefFcm : public predictors::ValuePredictor
{
  public:
    /**
     * @param order          history length (1..4, as production).
     * @param level2_entries level-2 slots (power of two).
     * @param strides        DFCM: the items are strides.
     */
    explicit RefFcm(unsigned order = 3,
                    uint64_t level2_entries = 64 * 1024,
                    bool strides = false);

    std::string name() const override
    {
        return strides ? "ref:dfcm" : "ref:fcm";
    }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

  private:
    struct State
    {
        std::deque<int64_t> history; ///< raw items, newest at back
        uint64_t seen = 0;           ///< items observed
        std::optional<int64_t> last; ///< stride mode: last value
    };

    /** Level-2 index for pc's current raw history. */
    uint64_t slotOf(uint64_t pc, const State &s) const;

    unsigned order;
    uint64_t level2Entries;
    bool strides;
    std::map<uint64_t, State> level1;
    std::map<uint64_t, int64_t> level2; ///< slot index -> item
};

/**
 * Global-FCM oracle: one shared raw history of the last `order`
 * values produced by *any* instruction; a (PC, context) slot stores
 * the value that followed. The context hash and table index are
 * recomputed from the raw global history on every access.
 */
class RefGFcm : public predictors::ValuePredictor
{
  public:
    /**
     * @param order         global values in the context (1..4).
     * @param table_entries (PC, context) slots (power of two).
     */
    explicit RefGFcm(unsigned order = 4,
                     uint64_t table_entries = 64 * 1024);

    std::string name() const override { return "ref:gfcm"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

  private:
    /** Table index for pc under the current global context. */
    uint64_t slotOf(uint64_t pc) const;

    unsigned order;
    uint64_t tableEntries;
    std::deque<int64_t> global; ///< raw values, newest at back
    std::map<uint64_t, int64_t> table; ///< slot index -> value
};

/**
 * gdiff oracle (paper §3, profile mode): the global value queue is
 * the literal sequence of produced values; each PC's entry stores the
 * differences between its last produced value and the visible window
 * plus the selected distance. Prediction is queue[k] + diff[k];
 * training recomputes all differences, selects the nearest matching
 * position, and stores the fresh differences either way.
 */
class RefGDiff : public predictors::ValuePredictor
{
  public:
    /**
     * @param order window size n.
     * @param delay profile-mode value delay T (§3.1): the predictor
     *              cannot see the newest T values.
     */
    explicit RefGDiff(unsigned order = 8, unsigned delay = 0);

    std::string name() const override { return "ref:gdiff"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;

  private:
    struct Entry
    {
        std::vector<int64_t> diffs;
        int distance = -1;
    };

    /** The delay-shifted visible window, values[0] = most recent. */
    std::vector<int64_t> visibleWindow() const;

    unsigned order;
    unsigned delay;
    std::deque<int64_t> queue; ///< every produced value, newest at back
    std::map<uint64_t, Entry> entries;
};

/**
 * Wraps an oracle and deliberately corrupts its predictions once a
 * given number of updates have been observed — the mutation-sanity
 * probe proving the differential harness actually detects a wrong
 * model (and giving the shrinker a reproducible divergence to
 * minimize).
 */
class CorruptedOracle : public predictors::ValuePredictor
{
  public:
    /**
     * @param inner         the oracle to corrupt (owned).
     * @param corrupt_after updates before predictions start lying.
     */
    CorruptedOracle(std::unique_ptr<predictors::ValuePredictor> inner,
                    uint64_t corrupt_after = 0)
        : inner(std::move(inner)), corruptAfter(corrupt_after)
    {}

    std::string name() const override
    {
        return "corrupted:" + inner->name();
    }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        if (!inner->predict(pc, value))
            return false;
        if (updates >= corruptAfter) {
            // off-by-one: the subtlest possible lie (wrapping, so
            // INT64_MAX inputs stay defined behaviour)
            value = static_cast<int64_t>(
                static_cast<uint64_t>(value) + 1);
        }
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        inner->update(pc, actual);
        ++updates;
    }

  private:
    std::unique_ptr<predictors::ValuePredictor> inner;
    uint64_t corruptAfter;
    uint64_t updates = 0;
};

/** A production predictor and its reference oracle, ready to diff. */
struct PredictorPair
{
    std::string name;
    std::unique_ptr<predictors::ValuePredictor> production;
    std::unique_ptr<predictors::ValuePredictor> oracle;
};

/**
 * @return the checkable pair names: last, stride, fcm, dfcm, gfcm,
 * gdiff.
 */
const std::vector<std::string> &pairNames();

/**
 * Build a (production, oracle) pair by name. The production side is
 * the family-table row (runner/factory.hh) with unlimited per-PC
 * first-level tables, so the comparison is free of PC-aliasing
 * (fixed-size shared structures — the FCM level 2, the gFCM table —
 * are part of the semantics and are modelled by the oracles).
 *
 * @param name  one of pairNames(); the caller checks it (another
 *              name is a bug, and panics).
 * @param order history/window order; 0 picks the row's default
 *              (fcm and dfcm 3, gfcm 4, gdiff 8; ignored by last and
 *              stride). The caller checks it against the row's
 *              orderInRange() first.
 */
PredictorPair makePair(const std::string &name, unsigned order = 0);

} // namespace check
} // namespace gdiff

#endif // GDIFF_CHECK_REFERENCE_HH
