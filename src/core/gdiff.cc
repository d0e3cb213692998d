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
 * The batch sweep over one tile of lanes, written once over a kernel
 * set (util/simd_inline.hh). Lane j's entry is entries[j]; its window
 * is the newest-first stream at windows - j, position k at
 * (windows - j)[k], holding clamp(avail0 + j, 0, order) values. Per
 * lane it does what predictFrom() then trainOn() do, with the
 * difference pass, the comparators and the store fused into one
 * kernel over memory that is already in position order.
 */
template <typename Kernels, typename Entry>
inline void
sweepLanes(Entry *const *entries, const int64_t *actuals,
           const int64_t *windows, uint32_t lanes, unsigned order,
           int64_t avail0, uint8_t *predicted, int64_t *value)
{
    for (uint32_t j = 0; j < lanes; ++j) {
        Entry &e = *entries[j];
        const int64_t *w = windows - j;
        const int64_t avail = avail0 + j;
        const unsigned count =
            avail <= 0 ? 0u
                       : (avail < static_cast<int64_t>(order)
                              ? static_cast<unsigned>(avail)
                              : order);
        const unsigned lim = count < e.diffCount ? count : e.diffCount;
        // distance -1 (none selected) wraps far past lim.
        const unsigned k = static_cast<unsigned>(e.distance);
        if (k < lim) {
            predicted[j] = 1;
            value[j] = wrapAdd(w[k], e.diffs[k]);
        }
        const uint64_t eq =
            Kernels::diffMatchStore(actuals[j], w, e.diffs.data(),
                                    count) &
            mask(lim);
        if (eq)
            e.distance = static_cast<int16_t>(__builtin_ctzll(eq));
        e.diffCount = static_cast<uint8_t>(count);
    }
}

#if GDIFF_HAVE_AVX2_KERNELS
template <typename Entry>
GDIFF_AVX2_CLONE void
sweepLanesAvx2(Entry *const *entries, const int64_t *actuals,
               const int64_t *windows, uint32_t lanes, unsigned order,
               int64_t avail0, uint8_t *predicted, int64_t *value)
{
    sweepLanes<simd::Avx2Kernels>(entries, actuals, windows, lanes,
                                  order, avail0, predicted, value);
}
#endif

} // anonymous namespace

GDiffPredictor::GDiffPredictor(const GDiffConfig &config)
    : cfg(config), table(cfg.tableEntries, cfg.hashIndex),
      gvq(cfg.order, cfg.valueDelay)
{
}

bool
GDiffPredictor::predictFrom(const Entry &e, const ValueWindow &window,
                            int64_t &value)
{
    if (e.distance < 0)
        return false;
    unsigned k = static_cast<unsigned>(e.distance);
    if (k >= window.count || k >= e.diffCount)
        return false;
    value = wrapAdd(window[k], e.diffs[k]);
    return true;
}

void
GDiffPredictor::trainOn(Entry &e, const ValueWindow &window,
                        int64_t actual)
{
    // Compute the fresh differences against the window where it
    // lives (position k at window.newest[-k]).
    std::array<int64_t, maxOrder> cur;
    unsigned n = window.count;
    simd::diffAgainstWindow(actual, window.newest, cur.data(), n);

    // Detect a match against the stored differences; select the
    // closest matching distance (paper Fig. 5's parallel comparators
    // with nearest-first priority).
    unsigned compare = n < e.diffCount ? n : e.diffCount;
    int match = simd::firstEqual(cur.data(), e.diffs.data(), compare);
    if (match >= 0)
        e.distance = static_cast<int16_t>(match);
    // Either way, the freshly calculated differences are stored
    // (paper §3: on no match the new diffs replace the old ones and
    // the distance field is left alone). Stored diffs beyond
    // diffCount are never read, so only the live prefix is written.
    std::copy_n(cur.data(), n, e.diffs.data());
    e.diffCount = static_cast<uint8_t>(n);
}

bool
GDiffPredictor::predictWithWindow(uint64_t pc, const ValueWindow &window,
                                  int64_t &value)
{
    const Entry *e = table.probe(pc);
    return e && predictFrom(*e, window, value);
}

void
GDiffPredictor::trainWithWindow(uint64_t pc, const ValueWindow &window,
                                int64_t actual)
{
    trainOn(table.lookup(pc), window, actual);
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
    const unsigned order = cfg.order;
    const unsigned delay = cfg.valueDelay;

    // Linearize the stream newest-first: the batch's actuals, then
    // the queue's retained history. Lane l's visible window (the
    // `order` values ending delay+1 before its own position) is then
    // the run starting at rev[n - l + delay], in position order, and
    // the queue is pushed once at the end instead of once per lane.
    extScratch.resize(static_cast<size_t>(order) + delay + n);
    int64_t *const rev = extScratch.data();
    std::reverse_copy(actuals, actuals + n, rev);
    const size_t h = gvq.copyRecent(rev + n);
    std::reverse(rev + n, rev + n + h);

#if GDIFF_HAVE_AVX2_KERNELS
    const bool avx2 = simd::activeMode() == simd::Mode::Avx2;
#endif
    // Tiles of lanes: resolve the tile's entries in one pass, then
    // sweep them in lane order (lookups depend only on the PCs).
    constexpr uint32_t kTile = 64;
    Entry *tile[kTile];
    for (uint32_t base = 0; base < n; base += kTile) {
        const uint32_t m = std::min(kTile, n - base);
        table.lookupLanes(pcs + base, m, tile);
        const int64_t *windows = rev + (n - base + delay);
        const int64_t avail0 = static_cast<int64_t>(h) + base -
                               static_cast<int64_t>(delay);
        uint8_t *predicted = out.predicted.data() + base;
        int64_t *value = out.value.data() + base;
#if GDIFF_HAVE_AVX2_KERNELS
        if (avx2) {
            sweepLanesAvx2(tile, actuals + base, windows, m, order,
                           avail0, predicted, value);
            continue;
        }
#endif
        sweepLanes<simd::PortableKernels>(tile, actuals + base, windows,
                                          m, order, avail0, predicted,
                                          value);
    }

    gvq.pushRange(actuals, n);
}

} // namespace core
} // namespace gdiff
