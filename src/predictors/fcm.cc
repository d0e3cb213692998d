#include "predictors/fcm.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/simd.hh"

namespace gdiff {
namespace predictors {

namespace {

/**
 * Append one item to an order-n history. Each item is folded to 16
 * bits and the history truncated so it depends on *exactly* the last
 * `order` items — essential for context prediction: periodic streams
 * must produce periodic (repeating) history values.
 */
uint64_t
rollHistory(uint64_t history, uint64_t item, unsigned order)
{
    uint64_t folded = mix64(item) & 0xffff;
    return ((history << 16) | folded) & mask(16 * order);
}

/**
 * Software-pipeline lookahead (and ring size, so a power of two) for
 * the fused batch loops: lane l's work is overlapped with the lookup,
 * history hash, and second-level prefetch for lane l + kDist.
 *
 * The distance trades prefetch coverage (larger = more time for the
 * randomly indexed, megabyte-scale second-level line to arrive)
 * against snapshot staleness (a PC recurring within the window rolls
 * its history after the snapshot, wasting that prefetch). Issuing
 * one prefetch per lane also keeps the miss queue smoothly loaded —
 * a tile-at-a-time variant that bursts 32 prefetches back to back
 * overflowed the handful of outstanding-miss buffers the hardware
 * has and benched ~25% slower on FCM. Both hashes run inline in the
 * pipeline stage: AVX2 has no 64-bit multiply, so a vectorized
 * whole-lane mix64 prepass costs about what the scalar multiplies do
 * and adds a full extra pass over the lane arrays.
 */
constexpr uint32_t kDist = 8;

} // anonymous namespace

// ---------------------------------------------------------------- DFCM

DfcmPredictor::DfcmPredictor(const FcmConfig &config)
    : cfg(config), l2Bits(ceilLog2(cfg.level2Entries)),
      level1(cfg.level1Entries),
      level2(cfg.level2Entries)
{
    GDIFF_ASSERT(isPowerOfTwo(cfg.level2Entries),
                 "DFCM level-2 size must be a power of two");
    GDIFF_ASSERT(cfg.order >= 1 && cfg.order <= fcmMaxOrder,
                 "DFCM order out of range (16 history bits per item)");
}

uint64_t
DfcmPredictor::foldHistory(uint64_t pc, uint64_t history) const
{
    // The second level is indexed by (PC, history): per-PC slots keep
    // high-churn noise instructions from evicting other instructions'
    // learned contexts (a standard DFCM implementation refinement).
    // mix64 keeps the hash order-sensitive: rotations of a periodic
    // context must land in different entries.
    return (mix64(history) ^ mix64(pc)) & mask(l2Bits);
}

uint64_t
DfcmPredictor::pushHistory(uint64_t history, int64_t stride) const
{
    return rollHistory(history, static_cast<uint64_t>(stride),
                       cfg.order);
}

bool
DfcmPredictor::predict(uint64_t pc, int64_t &value)
{
    const L1Entry *e = level1.probe(pc);
    if (!e || e->seen <= cfg.order)
        return false;
    const L2Entry &l2 = level2[foldHistory(pc, e->history)];
    if (!l2.valid)
        return false;
    value = static_cast<int64_t>(static_cast<uint64_t>(e->last) +
                                 static_cast<uint64_t>(l2.stride));
    return true;
}

void
DfcmPredictor::update(uint64_t pc, int64_t actual)
{
    L1Entry &e = level1.lookup(pc);
    if (e.seen == 0) {
        e.last = actual;
        e.seen = 1;
        return;
    }
    int64_t stride = static_cast<int64_t>(
        static_cast<uint64_t>(actual) - static_cast<uint64_t>(e.last));
    if (e.seen > cfg.order) {
        // Train the second level with the stride that followed the
        // current history.
        L2Entry &l2 = level2[foldHistory(pc, e.history)];
        l2.stride = stride;
        l2.valid = true;
    }
    e.history = pushHistory(e.history, stride);
    e.last = actual;
    if (e.seen <= cfg.order + 1)
        ++e.seen;
}

/**
 * Fused batch loop, software-pipelined kDist lanes deep.
 *
 * The pipeline stage for lane a runs one lookup() — in lane order,
 * so the table's lookup/conflict/ownership sequence is exactly the
 * scalar one — snapshots the entry's history, and prefetches the
 * second-level line that history hashes to. kDist lanes later the
 * work stage consumes the snapshot. A PC recurring within the window
 * invalidates its snapshot (an earlier lane rolled the history); the
 * work stage detects that by value and recomputes the index, so a
 * stale snapshot only ever wastes its prefetch. Entry pointers stay
 * valid across the window in both table modes: the limited table is
 * never resized, and unlimited entries live in a deque, whose
 * elements never move (predictors/table.hh).
 */
void
DfcmPredictor::predictUpdateBatch(const uint64_t *pcs,
                                  const int64_t *actuals, uint32_t n,
                                  PredictionBatch &out)
{
    out.reset(n);
    const uint64_t histMask = mask(16 * cfg.order);
    const uint64_t idxMask = mask(l2Bits);
    L2Entry *const l2base = level2.data();
    L1Entry *ringE[kDist];
    uint64_t ringHist[kDist];
    uint64_t ringIdx[kDist];
    const uint32_t pro = std::min(kDist, n);
    for (uint32_t i = 0; i < pro; ++i) {
        L1Entry &e = level1.lookup(pcs[i]);
        ringE[i] = &e;
        ringHist[i] = e.history;
        ringIdx[i] =
            (mix64(e.history) ^ mix64(pcs[i])) & idxMask;
        __builtin_prefetch(&l2base[ringIdx[i]], 1);
    }
    for (uint32_t l = 0; l < n; ++l) {
        const uint32_t slot = l & (kDist - 1);
        L1Entry &e = *ringE[slot];
        const int64_t actual = actuals[l];
        if (e.seen == 0) {
            e.last = actual;
            e.seen = 1;
        } else {
            int64_t stride = static_cast<int64_t>(
                static_cast<uint64_t>(actual) -
                static_cast<uint64_t>(e.last));
            if (e.seen > cfg.order) {
                // Predict and train share the pre-push history, so
                // one index serves the scalar pair's two. out.value
                // is written unconditionally (gated by predicted),
                // keeping the hot path branchless.
                uint64_t idx = ringIdx[slot];
                if (e.history != ringHist[slot])
                    idx = (mix64(e.history) ^ mix64(pcs[l])) &
                          idxMask;
                L2Entry &l2 = l2base[idx];
                out.predicted[l] =
                    static_cast<uint8_t>(l2.valid);
                out.value[l] = static_cast<int64_t>(
                    static_cast<uint64_t>(e.last) +
                    static_cast<uint64_t>(l2.stride));
                l2.stride = stride;
                l2.valid = true;
            }
            e.history =
                ((e.history << 16) |
                 (mix64(static_cast<uint64_t>(stride)) & 0xffff)) &
                histMask;
            e.last = actual;
            if (e.seen <= cfg.order + 1)
                ++e.seen;
        }
        const uint32_t a = l + kDist;
        if (a < n) {
            L1Entry &ne = level1.lookup(pcs[a]);
            ringE[slot] = &ne;
            ringHist[slot] = ne.history;
            ringIdx[slot] =
                (mix64(ne.history) ^ mix64(pcs[a])) & idxMask;
            __builtin_prefetch(&l2base[ringIdx[slot]], 1);
        }
    }
}

// ----------------------------------------------------------------- FCM

FcmPredictor::FcmPredictor(const FcmConfig &config)
    : cfg(config), l2Bits(ceilLog2(cfg.level2Entries)),
      level1(cfg.level1Entries),
      level2(cfg.level2Entries)
{
    GDIFF_ASSERT(isPowerOfTwo(cfg.level2Entries),
                 "FCM level-2 size must be a power of two");
    GDIFF_ASSERT(cfg.order >= 1 && cfg.order <= fcmMaxOrder,
                 "FCM order out of range (16 history bits per item)");
}

uint64_t
FcmPredictor::foldHistory(uint64_t pc, uint64_t history) const
{
    return (mix64(history) ^ mix64(pc)) & mask(l2Bits);
}

uint64_t
FcmPredictor::pushHistory(uint64_t history, int64_t value) const
{
    return rollHistory(history, static_cast<uint64_t>(value),
                       cfg.order);
}

bool
FcmPredictor::predict(uint64_t pc, int64_t &value)
{
    const L1Entry *e = level1.probe(pc);
    if (!e || e->seen < cfg.order)
        return false;
    const L2Entry &l2 = level2[foldHistory(pc, e->history)];
    if (!l2.valid)
        return false;
    value = l2.value;
    return true;
}

void
FcmPredictor::update(uint64_t pc, int64_t actual)
{
    L1Entry &e = level1.lookup(pc);
    if (e.seen >= cfg.order) {
        L2Entry &l2 = level2[foldHistory(pc, e.history)];
        l2.value = actual;
        l2.valid = true;
    }
    e.history = pushHistory(e.history, actual);
    if (e.seen <= cfg.order)
        ++e.seen;
}

/**
 * Fused batch loop, software-pipelined kDist lanes deep — the same
 * scheme as the DFCM loop above; see its comment for the snapshot
 * staleness and pointer-stability arguments.
 */
void
FcmPredictor::predictUpdateBatch(const uint64_t *pcs,
                                 const int64_t *actuals, uint32_t n,
                                 PredictionBatch &out)
{
    out.reset(n);
    const uint64_t histMask = mask(16 * cfg.order);
    const uint64_t idxMask = mask(l2Bits);
    L2Entry *const l2base = level2.data();
    L1Entry *ringE[kDist];
    uint64_t ringHist[kDist];
    uint64_t ringIdx[kDist];
    const uint32_t pro = std::min(kDist, n);
    for (uint32_t i = 0; i < pro; ++i) {
        L1Entry &e = level1.lookup(pcs[i]);
        ringE[i] = &e;
        ringHist[i] = e.history;
        ringIdx[i] =
            (mix64(e.history) ^ mix64(pcs[i])) & idxMask;
        __builtin_prefetch(&l2base[ringIdx[i]], 1);
    }
    for (uint32_t l = 0; l < n; ++l) {
        const uint32_t slot = l & (kDist - 1);
        L1Entry &e = *ringE[slot];
        if (e.seen >= cfg.order) {
            uint64_t idx = ringIdx[slot];
            if (e.history != ringHist[slot])
                idx = (mix64(e.history) ^ mix64(pcs[l])) &
                      idxMask;
            L2Entry &l2 = l2base[idx];
            out.predicted[l] = static_cast<uint8_t>(l2.valid);
            out.value[l] = l2.value;
            l2.value = actuals[l];
            l2.valid = true;
        }
        e.history =
            ((e.history << 16) |
             (mix64(static_cast<uint64_t>(actuals[l])) & 0xffff)) &
            histMask;
        if (e.seen <= cfg.order)
            ++e.seen;
        const uint32_t a = l + kDist;
        if (a < n) {
            L1Entry &ne = level1.lookup(pcs[a]);
            ringE[slot] = &ne;
            ringHist[slot] = ne.history;
            ringIdx[slot] =
                (mix64(ne.history) ^ mix64(pcs[a])) & idxMask;
            __builtin_prefetch(&l2base[ringIdx[slot]], 1);
        }
    }
}

} // namespace predictors
} // namespace gdiff
