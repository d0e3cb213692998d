/**
 * @file
 * Local stride predictor (Gabbay & Mendelson; Lipasti & Shen).
 *
 * Each PC's entry tracks the last value and a stride, under the 2-delta
 * rule: the predicted stride only changes after the same new stride
 * has been observed twice in a row, which keeps one odd value (e.g. a
 * loop restart) from destroying a learned stride.
 */

#ifndef GDIFF_PREDICTORS_STRIDE_HH
#define GDIFF_PREDICTORS_STRIDE_HH

#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace predictors {

/**
 * Local (per-PC) 2-delta stride predictor.
 *
 * Unlike the other families, update() and predictUpdateBatch() keep
 * two bodies of the same rule: a branchy scalar one and a branchless
 * batch one (see predictUpdateBatch()).
 */
class StridePredictor : public ValuePredictor
{
  public:
    /** @param entries table entries (0 = unlimited). */
    explicit StridePredictor(size_t entries = 0) : table(entries) {}

    std::string name() const override { return "stride"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        return predictAhead(pc, 0, value);
    }

    bool
    predictAhead(uint64_t pc, unsigned ahead, int64_t &value) override
    {
        const Entry *e = table.probe(pc);
        if (!e || !e->seen)
            return false;
        // Extrapolate across the in-flight instances: the classic
        // stride-predictor answer to dispatch-time table staleness.
        value = static_cast<int64_t>(
            static_cast<uint64_t>(e->last) +
            static_cast<uint64_t>(e->stride) * (ahead + 1));
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        Entry &e = table.lookup(pc);
        if (!e.seen) {
            e.last = actual;
            e.seen = ~0ull;
            return;
        }
        int64_t new_stride = static_cast<int64_t>(
            static_cast<uint64_t>(actual) -
            static_cast<uint64_t>(e.last));
        if (new_stride == e.lastStride)
            e.stride = new_stride;
        e.lastStride = new_stride;
        e.last = actual;
    }

    /**
     * Fused batch: one lookup() per lane replaces the scalar
     * probe+lookup pair; the predict half reads the entry before the
     * train half mutates it, so prediction l sees exactly the state
     * updates 0..l-1 left behind.
     *
     * The body is branchless: the 2-delta rule's data-dependent
     * branch mispredicts badly on mixed strided/noisy streams, so
     * both conditional stores are mask-arithmetic selects keyed on
     * Entry::seen (0 or all-ones). A virgin entry has stride ==
     * lastStride == 0, so leaving both unselected reproduces the
     * scalar first-sight early-return exactly. update() keeps the
     * branchy body until the batch gate reads real lanes
     * (docs/INTERNALS.md §10).
     */
    void
    predictUpdateBatch(const uint64_t *pcs, const int64_t *actuals,
                       uint32_t n, PredictionBatch &out) override
    {
        out.reset(n);
        for (uint32_t l = 0; l < n; ++l) {
            Entry &e = table.lookup(pcs[l]);
            const int64_t actual = actuals[l];
            const uint64_t seen = e.seen;
            out.predicted[l] = static_cast<uint8_t>(seen & 1);
            // harmless when !seen: out.value is gated by predicted
            out.value[l] = static_cast<int64_t>(
                static_cast<uint64_t>(e.last) +
                static_cast<uint64_t>(e.stride));
            const uint64_t ns = static_cast<uint64_t>(actual) -
                                static_cast<uint64_t>(e.last);
            const uint64_t sm =
                seen & static_cast<uint64_t>(-static_cast<int64_t>(
                           static_cast<int64_t>(ns) == e.lastStride));
            e.stride = static_cast<int64_t>(
                (ns & sm) |
                (static_cast<uint64_t>(e.stride) & ~sm));
            e.lastStride = static_cast<int64_t>(
                (ns & seen) |
                (static_cast<uint64_t>(e.lastStride) & ~seen));
            e.last = actual;
            e.seen = ~0ull;
        }
    }

  private:
    struct Entry
    {
        int64_t last = 0;
        int64_t stride = 0;
        int64_t lastStride = 0;
        /// 0 = virgin, all-ones = trained — doubles as the select
        /// mask for the branchless batch loop
        uint64_t seen = 0;
    };

    PcIndexedTable<Entry> table;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_STRIDE_HH
