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
 *
 * Both are one class template over the context item, so each rule
 * (history roll, level-2 index, predict step, train step) is written
 * once and the scalar and batch paths share it.
 */

#ifndef GDIFF_PREDICTORS_FCM_HH
#define GDIFF_PREDICTORS_FCM_HH

#include <array>
#include <type_traits>
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

/** Second-level entries of FCM and DFCM: the paper's 64K. */
inline constexpr size_t fcmLevel2Entries = 64 * 1024;
static_assert(isPowerOfTwo(fcmLevel2Entries),
              "the level-2 index is a mask of the hash");

/** Configuration shared by FCM and DFCM. */
struct FcmConfig
{
    size_t level1Entries = 0; ///< 0 = unlimited (per-PC)
    unsigned order = 3;       ///< history length (1..fcmMaxOrder)
};

/**
 * Local context predictor over a per-PC stream of items: level 2,
 * indexed by (PC, hash of the last `order` items), holds the item
 * that followed that history last time.
 *
 * @tparam Differential false for FCM: the item is the value itself,
 *         and a prediction is the stored item. true for DFCM: the
 *         item is the stride from the PC's last value, a prediction
 *         is last + the stored stride, and a PC's first value only
 *         seeds last.
 */
template <bool Differential>
class LocalContextPredictor : public ValuePredictor
{
  public:
    explicit LocalContextPredictor(const FcmConfig &config = FcmConfig());

    std::string name() const override
    {
        return Differential ? "dfcm" : "fcm";
    }

    bool predict(uint64_t pc, int64_t &value) override;
    void update(uint64_t pc, int64_t actual) override;
    void predictUpdateBatch(const uint64_t *pcs,
                            const int64_t *actuals, uint32_t n,
                            PredictionBatch &out) override;

  private:
    /** FCM's level-1 entry. */
    struct ValueEntry
    {
        uint64_t history = 0;
        unsigned seen = 0; ///< values observed (saturates at warm + 1)
    };

    /** DFCM's level-1 entry: also the base its strides are from. */
    struct StrideEntry : ValueEntry
    {
        int64_t last = 0;
    };

    using L1Entry =
        std::conditional_t<Differential, StrideEntry, ValueEntry>;

    struct L2Entry
    {
        int64_t item = 0; ///< the item that followed the history
        bool valid = false;
    };

    /**
     * One FCM lane as level 2 sees it: the slot its PC and history
     * index, and whether the history is warm (holds `order` items).
     */
    struct ValueLane
    {
        uint32_t idx;
        bool warm;
    };

    /**
     * DFCM's lane: also the base its strides are from (the last
     * value), which a prediction adds to the slot's stride.
     */
    struct StrideLane : ValueLane
    {
        uint64_t base;
    };

    using Lane = std::conditional_t<Differential, StrideLane, ValueLane>;

    /** A PC and its mix64, the PC's half of the level-2 index. */
    struct PcHash
    {
        uint64_t pc = 0;
        uint64_t hash = 0; ///< mix64(pc); mix64(0) == 0
    };

    uint64_t indexOf(uint64_t pc, uint64_t history);
    Lane laneOf(uint64_t pc, const L1Entry &e);
    static uint64_t itemOf(const Lane &c, int64_t actual);
    bool predictStep(const Lane &c, const L2Entry &l2,
                     int64_t &value) const;
    Lane trainLevel1(uint64_t pc, L1Entry &e, int64_t actual);
    void trainLevel2(const Lane &c, L2Entry &l2, int64_t actual) const;

    /// values seen once the history holds `order` items: level 2 is
    /// read and trained from then on
    unsigned warm;
    uint64_t histMask; ///< 16 bits per item, `order` items
    PcIndexedTable<L1Entry> level1;
    std::vector<L2Entry> level2;
    /// direct-mapped by instruction slot; a zeroed entry is valid
    std::array<PcHash, 256> pcHashes{};
};

extern template class LocalContextPredictor<false>;
extern template class LocalContextPredictor<true>;

/** Classic FCM over raw values. */
using FcmPredictor = LocalContextPredictor<false>;

/** Differential FCM over strides: the paper's local context baseline. */
using DfcmPredictor = LocalContextPredictor<true>;

} // namespace predictors
} // namespace gdiff

#endif // GDIFF_PREDICTORS_FCM_HH
