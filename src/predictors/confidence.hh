/**
 * @file
 * Per-PC confidence estimation (paper §4): a 3-bit saturating counter
 * per table entry, +2 on a correct prediction, -1 on an incorrect
 * one, confident at counts >= 4. The experiment drivers use this to
 * compute confidence-gated coverage and accuracy.
 *
 * A counter is one byte (bits is at most 8). The policy is compiled at
 * construction into a step table indexed by (count, outcome), where
 * the outcome is 0 with no prediction, 1 for a miss and 2 for a hit.
 * An entry holds the next count in its low byte and, above it, the
 * lane's increments to the scoring tallies. The profile runners'
 * scoring pass (scoreLanes) is then one table read, one byte store
 * and one add per lane, with no branch on the data.
 */

#ifndef GDIFF_PREDICTORS_CONFIDENCE_HH
#define GDIFF_PREDICTORS_CONFIDENCE_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "predictors/table.hh"
#include "predictors/value_predictor.hh"
#include "util/logging.hh"

namespace gdiff {
namespace predictors {

/** Policy parameters for a confidence table. */
struct ConfidenceConfig
{
    unsigned bits = 3;      ///< counter width, in [1, 8]
    unsigned upStep = 2;
    unsigned downStep = 1;
    unsigned threshold = 4; ///< at most 2^bits - 1
    size_t entries = 0; ///< 0 = unlimited (per-PC)
};

/** PC-indexed confidence counters. */
class ConfidenceTable
{
  public:
    explicit ConfidenceTable(const ConfidenceConfig &config =
                                 ConfidenceConfig())
        : cfg(config), table(cfg.entries)
    {
        GDIFF_ASSERT(cfg.bits >= 1 && cfg.bits <= 8,
                     "confidence counter width %u is outside [1, 8]",
                     cfg.bits);
        const unsigned max = (1u << cfg.bits) - 1;
        GDIFF_ASSERT(cfg.threshold <= max,
                     "confidence threshold %u exceeds the %u-bit "
                     "counter's maximum %u",
                     cfg.threshold, cfg.bits, max);
        for (unsigned count = 0; count < 256; ++count) {
            // count > max only fills the table, never a live counter
            const unsigned down =
                count < cfg.downStep ? 0 : count - cfg.downStep;
            const unsigned up = cfg.upStep >= max ||
                                        count >= max - cfg.upStep
                                    ? max
                                    : count + cfg.upStep;
            const uint64_t gated = count >= cfg.threshold;
            uint64_t *row = &step[count * kOutcomes];
            row[0] = count;
            row[1] = down | gated << kConfidentShift;
            row[2] = up | uint64_t(1) << kCorrectShift |
                     gated << kConfidentShift | gated << kBothShift;
            row[3] = 0; // pads the row to a power of two
        }
    }

    /** @return true if predictions for pc are currently confident. */
    bool
    confident(uint64_t pc) const
    {
        return level(pc) >= cfg.threshold;
    }

    /** @return the raw confidence counter value for pc. */
    unsigned
    level(uint64_t pc) const
    {
        const Entry *e = table.probe(pc);
        return e ? e->count : 0;
    }

    /**
     * Train on the outcome of a prediction for pc.
     * @param correct whether the prediction was correct.
     */
    void
    train(uint64_t pc, bool correct)
    {
        uint8_t &count = table.lookup(pc).count;
        count = static_cast<uint8_t>(step[count * kOutcomes + 1 + correct]);
    }

    /**
     * Tallies of one scoring pass over the measured lanes [from, n).
     * The marked fields count only lanes whose mark byte is set (the
     * address runner marks D-cache misses); they stay 0 without a
     * mark array.
     */
    struct Tally
    {
        uint64_t correct = 0;          ///< predicted and correct
        uint64_t confident = 0;        ///< predicted and confident
        uint64_t confidentCorrect = 0; ///< confident and correct
        uint64_t marked = 0;
        uint64_t markedConfident = 0;
        uint64_t markedConfidentCorrect = 0;
    };

    /**
     * The profile runners' scoring pass over one predicted batch. Per
     * lane l, in order: correct = predicted && value == actuals[l];
     * confident = predicted && confident(pcs[l]) before training;
     * then train(pcs[l], correct) if predicted — the per-record
     * `predicted && confident(pc)` / `if (predicted) train(...)`.
     * Lanes before @p from (warmup) train but are not tallied.
     *
     * Every lane looks up its entry, so an unpredicted lane's PC gets
     * a zero counter in unlimited mode. That is not visible: level()
     * reads an absent entry as 0.
     *
     * @param mark per-lane 0/1 bytes for the marked tallies, or
     *        nullptr.
     */
    Tally
    scoreLanes(const uint64_t *pcs, const int64_t *actuals,
               const PredictionBatch &batch, uint32_t from, uint32_t n,
               const uint8_t *mark = nullptr)
    {
        score<false>(pcs, actuals, batch, 0, from, nullptr);
        return mark ? score<true>(pcs, actuals, batch, from, n, mark)
                    : score<false>(pcs, actuals, batch, from, n, nullptr);
    }

    /** @return the policy in force. */
    const ConfidenceConfig &config() const { return cfg; }

  private:
    struct Entry
    {
        uint8_t count = 0;
    };

    /// outcomes a step-table row covers (the fourth pads the row)
    static constexpr unsigned kOutcomes = 4;
    /// @name 16-bit tally fields of a step entry, above the count byte
    /// @{
    static constexpr unsigned kCorrectShift = 16;
    static constexpr unsigned kConfidentShift = 32;
    static constexpr unsigned kBothShift = 48;
    /// @}

    /** Lanes [begin, end) of scoreLanes(), tallied. */
    template <bool Marked>
    Tally
    score(const uint64_t *pcs, const int64_t *actuals,
          const PredictionBatch &batch, uint32_t begin, uint32_t end,
          const uint8_t *mark)
    {
        const uint8_t *predicted = batch.predicted.data();
        const int64_t *value = batch.value.data();
        const uint64_t *steps = step.data();
        Tally t;
        // Entries are resolved a tile ahead: a counter is a byte, and
        // a byte store may alias anything, so a lookup inside the
        // loop would reload the table's state after every train. Over
        // a tile the summed count bytes stay below 2^14 and each
        // field below 2^16, so no field carries into the next.
        constexpr uint32_t kTile = 64;
        Entry *tile[kTile];
        for (uint32_t base = begin; base < end; base += kTile) {
            const uint32_t m = std::min(kTile, end - base);
            table.lookupLanes(pcs + base, m, tile);
            uint64_t sum = 0, markedSum = 0, marked = 0;
            for (uint32_t j = 0; j < m; ++j) {
                const uint32_t l = base + j;
                const unsigned p = predicted[l];
                const unsigned outcome =
                    p + (p & (value[l] == actuals[l]));
                uint8_t &count = tile[j]->count;
                const uint64_t s = steps[count * kOutcomes + outcome];
                count = static_cast<uint8_t>(s);
                sum += s;
                if constexpr (Marked) {
                    markedSum += s & (0 - uint64_t(mark[l]));
                    marked += mark[l];
                }
            }
            t.correct += field(sum, kCorrectShift);
            t.confident += field(sum, kConfidentShift);
            t.confidentCorrect += field(sum, kBothShift);
            if constexpr (Marked) {
                t.marked += marked;
                t.markedConfident += field(markedSum, kConfidentShift);
                t.markedConfidentCorrect += field(markedSum, kBothShift);
            }
        }
        return t;
    }

    static uint64_t
    field(uint64_t sum, unsigned shift)
    {
        return (sum >> shift) & 0xffff;
    }

    ConfidenceConfig cfg;
    /// the policy: entry count * kOutcomes + outcome
    std::array<uint64_t, 256 * kOutcomes> step;
    PcIndexedTable<Entry> table;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_CONFIDENCE_HH
