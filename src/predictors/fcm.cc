#include "predictors/fcm.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gdiff {
namespace predictors {

namespace {

/**
 * Append one item to a history. Each item is folded to 16 bits and
 * the history truncated (by @p hist_mask) so it depends on *exactly*
 * the last `order` items — essential for context prediction:
 * periodic streams must produce periodic (repeating) history values.
 */
uint64_t
rollHistory(uint64_t history, uint64_t item, uint64_t hist_mask)
{
    return ((history << 16) | (mix64(item) & 0xffff)) & hist_mask;
}

/**
 * Software-pipeline lookahead (and ring size, so a power of two) for
 * the fused batch loop: lane l's work is overlapped with the level-1
 * half and the second-level prefetch of lane l + kDist.
 *
 * The distance gives the randomly indexed, megabyte-scale
 * second-level line time to arrive; 16 and 32 read no faster.
 * Issuing one prefetch per lane also keeps the miss queue smoothly
 * loaded — a tile-at-a-time variant that bursts 32 prefetches back
 * to back overflowed the handful of outstanding-miss buffers the
 * hardware has and benched ~25% slower on FCM. The hashes run inline
 * in the pipeline stage: AVX2 has no 64-bit multiply, so a
 * vectorized whole-lane mix64 prepass costs about what the scalar
 * multiplies do and adds a full extra pass over the lane arrays.
 */
constexpr uint32_t kDist = 8;

} // anonymous namespace

template <bool Differential>
LocalContextPredictor<Differential>::LocalContextPredictor(
    const FcmConfig &config)
    : warm(config.order + Differential), histMask(mask(16 * config.order)),
      level1(config.level1Entries), level2(fcmLevel2Entries)
{
    GDIFF_ASSERT(config.order >= 1 && config.order <= fcmMaxOrder,
                 "FCM order out of range (16 history bits per item)");
}

/**
 * The level-2 index of (pc, history). Per-PC slots keep high-churn
 * noise instructions from evicting other instructions' learned
 * contexts (a standard DFCM implementation refinement). mix64 keeps
 * the hash order-sensitive: rotations of a periodic context must
 * land in different entries. The PC's half comes from pcHashes,
 * which holds it for the PCs a stream keeps returning to.
 */
template <bool Differential>
inline uint64_t
LocalContextPredictor<Differential>::indexOf(uint64_t pc,
                                             uint64_t history)
{
    PcHash &memo = pcHashes[(pc >> 2) & (pcHashes.size() - 1)];
    if (memo.pc != pc) [[unlikely]] {
        memo.pc = pc;
        memo.hash = mix64(pc);
    }
    return (mix64(history) ^ memo.hash) & (fcmLevel2Entries - 1);
}

/** @return what level 2 needs of @p e, as it stands, for @p pc. */
template <bool Differential>
inline typename LocalContextPredictor<Differential>::Lane
LocalContextPredictor<Differential>::laneOf(uint64_t pc, const L1Entry &e)
{
    Lane c;
    c.idx = static_cast<uint32_t>(indexOf(pc, e.history));
    c.warm = e.seen >= warm;
    if constexpr (Differential)
        c.base = static_cast<uint64_t>(e.last);
    return c;
}

/**
 * @return the item @p actual brings to lane @p c's context: the
 * value itself for FCM, the stride from the lane's base for DFCM.
 */
template <bool Differential>
inline uint64_t
LocalContextPredictor<Differential>::itemOf(const Lane &c, int64_t actual)
{
    uint64_t item = static_cast<uint64_t>(actual);
    if constexpr (Differential)
        item -= c.base;
    return item;
}

/**
 * The predict rule: once the history holds `order` items and its
 * level-2 slot is valid, the prediction is base + the slot's item,
 * where base is 0 for FCM and the last value for DFCM. @p value is
 * written either way, so the batch needs no branch on it.
 * @return true if the lane predicts.
 */
template <bool Differential>
inline bool
LocalContextPredictor<Differential>::predictStep(const Lane &c,
                                                 const L2Entry &l2,
                                                 int64_t &value) const
{
    uint64_t base = 0;
    if constexpr (Differential)
        base = c.base;
    value = static_cast<int64_t>(base + static_cast<uint64_t>(l2.item));
    return c.warm & l2.valid;
}

/**
 * The train rule's level-1 half: @return the lane as @p e stood
 * before @p actual (laneOf()), and roll the item that followed into
 * the history. DFCM's first value has no stride yet and only seeds
 * last (its lane is not warm).
 */
template <bool Differential>
inline typename LocalContextPredictor<Differential>::Lane
LocalContextPredictor<Differential>::trainLevel1(uint64_t pc, L1Entry &e,
                                                 int64_t actual)
{
    const Lane c = laneOf(pc, e);
    if constexpr (Differential) {
        e.last = actual;
        if (e.seen == 0) {
            e.seen = 1;
            return c;
        }
    }
    e.history = rollHistory(e.history, itemOf(c, actual), histMask);
    if (e.seen <= warm)
        ++e.seen;
    return c;
}

/** The train rule's level-2 half: a warm lane's slot learns its item. */
template <bool Differential>
inline void
LocalContextPredictor<Differential>::trainLevel2(const Lane &c,
                                                 L2Entry &l2,
                                                 int64_t actual) const
{
    if (c.warm) {
        l2.item = static_cast<int64_t>(itemOf(c, actual));
        l2.valid = true;
    }
}

template <bool Differential>
bool
LocalContextPredictor<Differential>::predict(uint64_t pc, int64_t &value)
{
    const L1Entry *e = level1.probe(pc);
    if (!e)
        return false;
    const Lane c = laneOf(pc, *e);
    int64_t guess = 0;
    if (!predictStep(c, level2[c.idx], guess))
        return false;
    value = guess;
    return true;
}

template <bool Differential>
void
LocalContextPredictor<Differential>::update(uint64_t pc, int64_t actual)
{
    const Lane c = trainLevel1(pc, level1.lookup(pc), actual);
    trainLevel2(c, level2[c.idx], actual);
}

/**
 * Fused batch loop, software-pipelined kDist lanes deep.
 *
 * The pipeline stage for lane a runs the level-1 half of the train
 * rule — one lookup() and trainLevel1(), in lane order, so the
 * table's lookup/conflict/ownership sequence and every entry's
 * history are exactly the scalar ones — keeps the lane in the ring
 * and prefetches its level-2 slot. kDist lanes later the work stage
 * runs the predict step and the level-2 half on that slot, also in
 * lane order. The two halves touch disjoint state, and a lane's
 * level-1 half fixes everything its level-2 half reads, so running
 * the first kDist lanes ahead changes no result, and the prefetched
 * slot is always the one the work stage reads.
 */
template <bool Differential>
void
LocalContextPredictor<Differential>::predictUpdateBatch(
    const uint64_t *pcs, const int64_t *actuals, uint32_t n,
    PredictionBatch &out)
{
    out.reset(n);
    uint8_t *const predicted = out.predicted.data();
    int64_t *const value = out.value.data();
    L2Entry *const l2base = level2.data();
    Lane ring[kDist];
    // Two loops call each stage. Left to the compiler, the stages
    // stayed out of line and the loop ran ~25% slower.
    auto stage = [&](uint32_t a) __attribute__((always_inline)) {
        Lane &c = ring[a & (kDist - 1)];
        c = trainLevel1(pcs[a], level1.lookup(pcs[a]), actuals[a]);
        __builtin_prefetch(&l2base[c.idx], 1);
    };
    auto work = [&](uint32_t l) __attribute__((always_inline)) {
        const Lane &c = ring[l & (kDist - 1)];
        L2Entry &l2 = l2base[c.idx];
        predicted[l] = predictStep(c, l2, value[l]);
        trainLevel2(c, l2, actuals[l]);
    };
    const uint32_t lead = std::min(kDist, n);
    for (uint32_t a = 0; a < lead; ++a)
        stage(a);
    for (uint32_t l = 0; l + kDist < n; ++l) {
        work(l);
        stage(l + kDist);
    }
    for (uint32_t l = n - lead; l < n; ++l)
        work(l);
}

template class LocalContextPredictor<false>;
template class LocalContextPredictor<true>;

} // namespace predictors
} // namespace gdiff
