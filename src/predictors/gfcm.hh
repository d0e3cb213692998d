/**
 * @file
 * Global FCM: the context-based counterpart of gdiff in the paper's
 * §2 taxonomy, which classifies locality along two axes — {local,
 * global} history × {computational, context} model. The paper's
 * cited prior art covers order-1 global context (PI, Nakra et al.)
 * and dataflow-selected context (DDISC, Thomas & Franklin); this
 * class is the straightforward order-n member of that family:
 *
 * The global context is shared machine state: a rolling hash of the
 * last n values produced by *any* instruction. A table indexed by
 * (PC, global context) remembers the value that followed that
 * context last time; seeing the same neighbourhood of values again
 * predicts the same outcome.
 *
 * It completes the predictor zoo so the paper's central claim can be
 * tested in both directions: gdiff's win comes from the global
 * *computational* model, not merely from looking at global history.
 */

#ifndef GDIFF_PREDICTORS_GFCM_HH
#define GDIFF_PREDICTORS_GFCM_HH

#include <cstdint>
#include <vector>

#include "predictors/value_predictor.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/ring_history.hh"

namespace gdiff {
namespace predictors {

/**
 * Largest gFCM order: the context word holds one 16-bit fold per
 * global value, and a uint64_t holds four.
 */
inline constexpr unsigned gfcmMaxOrder = 4;

/** Configuration of the global-context predictor. */
struct GFcmConfig
{
    unsigned order = 4;             ///< global values hashed (1..4)
    size_t tableEntries = 64 * 1024;///< (PC, context) table, pow2
};

/** Order-n global context-based predictor. */
class GFcmPredictor : public ValuePredictor
{
  public:
    explicit GFcmPredictor(const GFcmConfig &config = GFcmConfig())
        : cfg(config), bits(ceilLog2(cfg.tableEntries)),
          table(cfg.tableEntries), folds(cfg.order)
    {
        GDIFF_ASSERT(isPowerOfTwo(cfg.tableEntries),
                     "gFCM table must be a power of two");
        GDIFF_ASSERT(cfg.order >= 1 && cfg.order <= gfcmMaxOrder,
                     "gFCM order %u out of range 1..%u", cfg.order,
                     gfcmMaxOrder);
        GDIFF_ASSERT(bits <= 32, "gFCM table too large");
    }

    std::string name() const override { return "gfcm"; }

    bool
    predict(uint64_t pc, int64_t &value) override
    {
        const Entry &e = table[indexOf(pc)];
        if (!e.valid)
            return false;
        value = e.value;
        return true;
    }

    void
    update(uint64_t pc, int64_t actual) override
    {
        Entry &e = table[indexOf(pc)];
        e.value = actual;
        e.valid = true;
        // The global context advances with *every* produced value.
        pushContext(static_cast<uint16_t>(
            mix64(static_cast<uint64_t>(actual)) & 0xffff));
    }

    void predictUpdateBatch(const uint64_t *pcs, const int64_t *actuals,
                            uint32_t n, PredictionBatch &out) override;

  private:
    struct Entry
    {
        int64_t value = 0;
        bool valid = false;
    };

    size_t
    indexOf(uint64_t pc) const
    {
        return static_cast<size_t>((mix64(pc >> 2) ^ contextMix) &
                                   mask(bits));
    }

    /**
     * Push one folded value into the global window and rebuild the
     * rolling hash from the retained folds (never-pushed slots read
     * as 0 — exactly the fold of the value-initialised history the
     * hash used to be built from, since mix64(0) == 0). The hash is
     * mixed once here, not in each indexOf() until the next push.
     */
    void
    pushContext(uint16_t fold)
    {
        folds.push(fold);
        uint64_t contextHash = 0;
        for (unsigned k = 0; k < cfg.order; ++k)
            contextHash = (contextHash << 16) | folds[k];
        contextMix = mix64(contextHash);
    }

    GFcmConfig cfg;
    unsigned bits;
    std::vector<Entry> table;
    RingHistory<uint16_t> folds;
    uint64_t contextMix = 0; ///< mix64 of the context hash
    /// predictUpdateBatch scratch: the folds the batch's contexts
    /// read, oldest first, and each lane's table index
    std::vector<uint16_t> laneFolds;
    std::vector<uint32_t> laneIndex;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_GFCM_HH
