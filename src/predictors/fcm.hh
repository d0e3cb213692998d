/**
 * @file
 * FCM and DFCM local context predictors.
 *
 * FCM (Sazeides & Smith): a first-level table holds each PC's recent
 * value history (hashed); a second-level table maps the history to
 * the value that followed it last time.
 *
 * DFCM (Goeman, Vandierendonck & De Bosschere, HPCA'01): identical
 * structure, but over *strides* instead of raw values — the
 * second-level table predicts the next stride, added to the last
 * value. This is the "local context" baseline used throughout the
 * paper (64K-entry second level).
 */

#ifndef GDIFF_PREDICTORS_FCM_HH
#define GDIFF_PREDICTORS_FCM_HH

#include <vector>

#include "predictors/table.hh"
#include "predictors/value_predictor.hh"
#include "util/bits.hh"

namespace gdiff {
namespace predictors {

/**
 * Largest FCM/DFCM order: the history holds one 16-bit fold per
 * item, and a uint64_t holds four.
 */
inline constexpr unsigned fcmMaxOrder = 4;

/** Configuration shared by FCM and DFCM. */
struct FcmConfig
{
    size_t level1Entries = 0;        ///< 0 = unlimited (per-PC)
    size_t level2Entries = 64 * 1024;///< must be a power of two
    unsigned order = 3;              ///< history length (1..fcmMaxOrder)
};

/**
 * Differential FCM: predicts last + stride(level2[hash(history of
 * strides)]).
 */
class DfcmPredictor : public ValuePredictor
{
  public:
    explicit DfcmPredictor(const FcmConfig &config = FcmConfig());

    std::string name() const override { return "dfcm"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;
    void predictUpdateBatch(const uint64_t *pcs,
                            const int64_t *actuals, uint32_t n,
                            PredictionBatch &out) override;

  private:
    struct L1Entry
    {
        int64_t last = 0;
        uint64_t history = 0;
        unsigned seen = 0; ///< values observed (saturates at order+1)
    };

    struct L2Entry
    {
        int64_t stride = 0;
        bool valid = false;
    };

    uint64_t foldHistory(uint64_t pc, uint64_t history) const;
    uint64_t pushHistory(uint64_t history, int64_t stride) const;

    FcmConfig cfg;
    unsigned l2Bits;
    PcIndexedTable<L1Entry> level1;
    std::vector<L2Entry> level2;
};

/**
 * Classic FCM over raw values: level2[hash(history of values)] is the
 * predicted next value.
 */
class FcmPredictor : public ValuePredictor
{
  public:
    explicit FcmPredictor(const FcmConfig &config = FcmConfig());

    std::string name() const override { return "fcm"; }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;
    void predictUpdateBatch(const uint64_t *pcs,
                            const int64_t *actuals, uint32_t n,
                            PredictionBatch &out) override;

  private:
    struct L1Entry
    {
        uint64_t history = 0;
        unsigned seen = 0;
    };

    struct L2Entry
    {
        int64_t value = 0;
        bool valid = false;
    };

    uint64_t foldHistory(uint64_t pc, uint64_t history) const;
    uint64_t pushHistory(uint64_t history, int64_t value) const;

    FcmConfig cfg;
    unsigned l2Bits;
    PcIndexedTable<L1Entry> level1;
    std::vector<L2Entry> level2;
};

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_FCM_HH
