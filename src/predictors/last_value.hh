/**
 * @file
 * Last-value and last-N-value predictors (Lipasti et al.; Burtscher &
 * Zorn) — the simplest computational baselines.
 */

#ifndef GDIFF_PREDICTORS_LAST_VALUE_HH
#define GDIFF_PREDICTORS_LAST_VALUE_HH

#include <vector>

#include "predictors/table.hh"
#include "predictors/value_predictor.hh"

namespace gdiff {
namespace predictors {

/** Predicts that an instruction repeats its previous value. */
class LastValuePredictor : public ValuePredictor
{
  public:
    /** @param entries table entries (0 = unlimited). */
    explicit LastValuePredictor(size_t entries = 0)
        : table(entries)
    {}

    std::string name() const override { return "last_value"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        const Entry *e = table.probe(pc);
        if (!e || !e->seen)
            return false;
        value = e->last;
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        trainStep(table.lookup(pc), actual);
    }

    /**
     * Fused batch: one lookup() per lane, reading the entry before
     * training it. A lookup-allocated fresh entry has seen=false, so
     * the predict half matches the scalar probe exactly, and the
     * single lookup per trained record matches the scalar
     * probe-then-lookup counter trail.
     */
    void
    predictUpdateBatch(const uint64_t *pcs, const int64_t *actuals,
                       uint32_t n, PredictionBatch &out) override
    {
        out.reset(n);
        for (uint32_t l = 0; l < n; ++l) {
            Entry &e = table.lookup(pcs[l]);
            if (e.seen) {
                out.predicted[l] = 1;
                out.value[l] = e.last;
            }
            trainStep(e, actuals[l]);
        }
    }

  private:
    struct Entry
    {
        int64_t last = 0;
        bool seen = false;
    };

    /** The train rule: the entry remembers the value. */
    static void
    trainStep(Entry &e, int64_t actual)
    {
        e.last = actual;
        e.seen = true;
    }

    PcIndexedTable<Entry> table;
};

/**
 * Last-N-value predictor: keeps the N most recent distinct values per
 * PC and predicts the one that most recently repeated (a small MRU
 * vote, after Burtscher & Zorn's exploration of last-n prediction).
 */
class LastNValuePredictor : public ValuePredictor
{
  public:
    /**
     * @param n       history depth per PC.
     * @param entries table entries (0 = unlimited).
     */
    explicit LastNValuePredictor(unsigned n = 4, size_t entries = 0)
        : depth(n), table(entries)
    {}

    std::string name() const override { return "last_n"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        const Entry *e = table.probe(pc);
        if (!e || e->values.empty())
            return false;
        // Predict the MRU value that has repeated, else the MRU.
        for (const auto &v : e->values) {
            if (v.hits > 0) {
                value = v.value;
                return true;
            }
        }
        value = e->values.front().value;
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        Entry &e = table.lookup(pc);
        for (size_t i = 0; i < e.values.size(); ++i) {
            if (e.values[i].value == actual) {
                auto v = e.values[i];
                ++v.hits;
                e.values.erase(e.values.begin() +
                               static_cast<long>(i));
                e.values.insert(e.values.begin(), v);
                return;
            }
        }
        e.values.insert(e.values.begin(), Slot{actual, 0});
        if (e.values.size() > depth)
            e.values.pop_back();
    }

  private:
    struct Slot
    {
        int64_t value = 0;
        unsigned hits = 0;
    };

    struct Entry
    {
        std::vector<Slot> values;
    };

    unsigned depth;
    PcIndexedTable<Entry> table;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_LAST_VALUE_HH
