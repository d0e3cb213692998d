#include "core/gdiff.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/simd.hh"
#include "util/simd_inline.hh"

namespace gdiff {
namespace core {

namespace {

int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

/**
 * gdiff's predict rule (paper §3): with distance k selected, and k
 * inside both the window and the stored differences, the prediction
 * is window[k] + diffs[k]. Written without a branch on the entry:
 * a miss reads position 0 instead (or a zero for an empty window)
 * and masks the sum away. Whether a lane predicts is data-dependent
 * and hangs on the entry's loads, so a branch there mispredicts on
 * a mixed stream; the batch sweep then pays none.
 * @return true if e predicts; value is the prediction, or 0.
 */
template <typename Entry>
inline bool
predictStep(const Entry &e, const ValueWindow &window, int64_t &value)
{
    static constexpr int64_t empty = 0;
    // distance -1 (none selected) wraps far past both counts.
    const unsigned k = static_cast<unsigned>(e.distance);
    const unsigned live =
        window.count < e.diffCount ? window.count : e.diffCount;
    const uint64_t hit = 0 - static_cast<uint64_t>(k < live);
    const unsigned at = k & static_cast<unsigned>(hit);
    const int64_t *newest = window.count ? window.newest : &empty;
    value = static_cast<int64_t>(
        static_cast<uint64_t>(
            wrapAdd(newest[-static_cast<ptrdiff_t>(at)], e.diffs[at])) &
        hit);
    return hit != 0;
}

/**
 * gdiff's train rule (paper §3, Fig. 5): the differences between
 * actual and each window position, the nearest-first comparators
 * against the stored differences still live (positions below both
 * counts), and the store, fused into one kernel of the set Kernels
 * (util/simd_inline.hh) over the window where it lives. On a match
 * the nearest matching position becomes the distance; either way
 * the fresh differences replace the old ones, and on no match the
 * distance is left alone. Stored differences beyond diffCount are
 * never read.
 */
template <typename Kernels, typename Entry>
inline void
trainStep(Entry &e, const ValueWindow &window, int64_t actual)
{
    const unsigned n = window.count;
    const unsigned live = n < e.diffCount ? n : e.diffCount;
    const uint64_t eq = Kernels::diffMatchStore(actual, window.newest,
                                                e.diffs.data(), n) &
                        mask(live);
    if (eq)
        e.distance = static_cast<int16_t>(__builtin_ctzll(eq));
    e.diffCount = static_cast<uint8_t>(n);
}

/**
 * The batch sweep over one tile of lanes. The stream is the queue's
 * history then the batch's actuals, oldest first; lane j's entry is
 * entries[j], and its window's newest value is stream[top0 + j],
 * holding clamp(top0 + j + 1, 0, order) values. A nonzero Order is
 * that order as a constant, for a tile whose windows are all full
 * (top0 + 1 >= Order): every window then holds Order values and the
 * train step's kernel unrolls.
 */
template <typename Kernels, unsigned Order, typename Entry>
inline void
sweepLanes(Entry *const *entries, const int64_t *actuals,
           const int64_t *stream, int64_t top0, uint32_t lanes,
           unsigned order, uint8_t *predicted, int64_t *value)
{
    for (uint32_t j = 0; j < lanes; ++j) {
        const int64_t top = top0 + j;
        ValueWindow window; // empty before the stream's first value
        if constexpr (Order != 0) {
            window.newest = stream + top;
            window.count = Order;
        } else if (top >= 0) {
            window.newest = stream + top;
            window.count = top < static_cast<int64_t>(order)
                               ? static_cast<unsigned>(top) + 1
                               : order;
        }
        Entry &e = *entries[j];
        predicted[j] = predictStep(e, window, value[j]);
        trainStep<Kernels>(e, window, actuals[j]);
    }
}

#if GDIFF_HAVE_AVX2_KERNELS
template <typename Entry>
GDIFF_AVX2_CLONE void
trainStepAvx2(Entry &e, const ValueWindow &window, int64_t actual)
{
    trainStep<simd::Avx2Kernels>(e, window, actual);
}

template <unsigned Order, typename Entry>
GDIFF_AVX2_CLONE void
sweepLanesAvx2(Entry *const *entries, const int64_t *actuals,
               const int64_t *stream, int64_t top0, uint32_t lanes,
               unsigned order, uint8_t *predicted, int64_t *value)
{
    sweepLanes<simd::Avx2Kernels, Order>(entries, actuals, stream, top0,
                                         lanes, order, predicted, value);
}
#endif

/** sweepLanes() with the kernel set simd::activeMode() names. */
template <unsigned Order, typename Entry>
void
sweepTile(bool avx2, Entry *const *entries, const int64_t *actuals,
          const int64_t *stream, int64_t top0, uint32_t lanes,
          unsigned order, uint8_t *predicted, int64_t *value)
{
#if GDIFF_HAVE_AVX2_KERNELS
    if (avx2) {
        sweepLanesAvx2<Order>(entries, actuals, stream, top0, lanes,
                              order, predicted, value);
        return;
    }
#else
    (void)avx2;
#endif
    sweepLanes<simd::PortableKernels, Order>(
        entries, actuals, stream, top0, lanes, order, predicted, value);
}

} // anonymous namespace

GDiffPredictor::GDiffPredictor(const GDiffConfig &config)
    : cfg(config), table(cfg.tableEntries),
      gvq(cfg.order, cfg.valueDelay)
{
}

bool
GDiffPredictor::predictWithWindow(uint64_t pc, const ValueWindow &window,
                                  int64_t &value)
{
    const Entry *e = table.probe(pc);
    int64_t guess = 0;
    if (!e || !predictStep(*e, window, guess))
        return false;
    value = guess;
    return true;
}

void
GDiffPredictor::trainWithWindow(uint64_t pc, const ValueWindow &window,
                                int64_t actual)
{
    Entry &e = table.lookup(pc);
#if GDIFF_HAVE_AVX2_KERNELS
    if (simd::activeMode() == simd::Mode::Avx2) {
        trainStepAvx2(e, window, actual);
        return;
    }
#endif
    trainStep<simd::PortableKernels>(e, window, actual);
}

bool
GDiffPredictor::predict(uint64_t pc, int64_t &value)
{
    return predictWithWindow(pc, gvq.visibleWindow(), value);
}

void
GDiffPredictor::update(uint64_t pc, int64_t actual)
{
    trainWithWindow(pc, gvq.visibleWindow(), actual);
    gvq.push(actual);
}

void
GDiffPredictor::predictUpdateBatch(const uint64_t *pcs,
                                   const int64_t *actuals, uint32_t n,
                                   predictors::PredictionBatch &out)
{
    out.reset(n);
    const unsigned delay = cfg.valueDelay;

    // Linearize the stream oldest first: the queue's retained
    // history, then the batch's actuals. Lane l's visible window (the
    // `order` values ending delay+1 before its own position) then
    // ends at stream[h + l - 1 - delay] and runs down from there, as
    // a queue window does, and the queue is pushed once at the end
    // instead of once per lane.
    extScratch.resize(static_cast<size_t>(cfg.order) + delay + n);
    int64_t *const stream = extScratch.data();
    const size_t h = gvq.copyRecent(stream);
    std::copy_n(actuals, n, stream + h);

    const bool avx2 = simd::activeMode() == simd::Mode::Avx2;
    // The profile studies' order, 8 (paper §3), gets a sweep with the
    // order as a constant once the windows are full.
    constexpr unsigned profileOrder = GDiffConfig{}.order;
    // Tiles of lanes: resolve the tile's entries in one pass, then
    // sweep them in lane order (lookups depend only on the PCs).
    constexpr uint32_t kTile = 64;
    Entry *tile[kTile];
    for (uint32_t base = 0; base < n; base += kTile) {
        const uint32_t m = std::min(kTile, n - base);
        table.lookupLanes(pcs + base, m, tile);
        const int64_t top0 = static_cast<int64_t>(h) + base - 1 -
                             static_cast<int64_t>(delay);
        uint8_t *predicted = out.predicted.data() + base;
        int64_t *value = out.value.data() + base;
        if (cfg.order == profileOrder && top0 + 1 >= profileOrder)
            sweepTile<profileOrder>(avx2, tile, actuals + base, stream,
                                    top0, m, cfg.order, predicted,
                                    value);
        else
            sweepTile<0>(avx2, tile, actuals + base, stream, top0, m,
                         cfg.order, predicted, value);
    }

    gvq.pushRange(actuals, n);
}

} // namespace core
} // namespace gdiff
