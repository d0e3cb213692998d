#include "predictors/gfcm.hh"

#include <algorithm>
#include <cstring>

#include "util/simd.hh"

namespace gdiff {
namespace predictors {

namespace {

/**
 * Prefetch lookahead of the table pass, in lanes: far enough ahead
 * for a randomly indexed line of a megabyte-scale table to arrive,
 * and one prefetch per lane, so the miss queue is loaded evenly (see
 * fcm.cc's kDist).
 */
constexpr uint32_t kAhead = 12;

} // anonymous namespace

/**
 * Fused batch loop in two passes.
 *
 * The context a lane indexes with is a function of the *values* of
 * the lanes before it, never of the table: pushContext() folds each
 * actual to 16 bits and hashes the last `order` folds. So every
 * lane's index is known before any table access, and the loop-carried
 * chain of the scalar pair (predict, update, rebuild the context) is
 * only a chain through the stream, which pass 1 walks alone.
 *
 * Pass 1 lays the folds out oldest first: the carried window
 * (never-pushed slots read 0), then one fold per lane. pushContext()
 * shifts each of the window's `order` folds in 16 bits at a time,
 * newest first, so the hash holds the oldest fold in the low bits.
 * In this layout that is the little-endian word at lane l's window
 * start, masked to `order` folds. Pass 2 then walks
 * the table in lane order, reading each entry before writing it, with
 * a prefetch kAhead lanes ahead. A lane whose entry was never written
 * reads value 0 (values are only ever stored with valid), so
 * out.value needs no select. Last, the lanes' folds are pushed and
 * the context is left as the scalar loop leaves it.
 */
void
GFcmPredictor::predictUpdateBatch(const uint64_t *pcs,
                                  const int64_t *actuals, uint32_t n,
                                  PredictionBatch &out)
{
    out.reset(n);
    if (n == 0)
        return;
    const unsigned order = cfg.order;
    const uint64_t hashMask = mask(16 * order);

    // Pass 1: folds, then every lane's index. The context of lane l
    // is read from the word of folds l..l+3; the padding covers the
    // last word (the carried context, lane n's) and the vector
    // kernel's reads.
    if (laneFolds.size() < n + order + 4) {
        laneFolds.resize(n + order + 4);
        laneIndex.resize(n);
    }
    uint16_t *f = laneFolds.data();
    for (unsigned i = 0; i < order; ++i)
        f[i] = folds[order - 1 - i];
    simd::foldValues(actuals, n, f + order);
    uint32_t *idx = laneIndex.data();
    simd::contextIndices(pcs, f, n, hashMask, mask(bits), idx);

    // Pass 2: the table, in lane order.
    Entry *const t = table.data();
    const uint32_t pro = std::min(kAhead, n);
    for (uint32_t l = 0; l < pro; ++l)
        __builtin_prefetch(&t[idx[l]], 1);
    for (uint32_t l = 0; l < n; ++l) {
        if (l + kAhead < n)
            __builtin_prefetch(&t[idx[l + kAhead]], 1);
        Entry &e = t[idx[l]];
        out.predicted[l] = static_cast<uint8_t>(e.valid);
        out.value[l] = e.value;
        e.value = actuals[l];
        e.valid = true;
    }

    folds.pushRange(f + order, n);
    uint64_t word;
    std::memcpy(&word, f + n, sizeof(word));
    contextMix = mix64(word & hashMask);
}

} // namespace predictors
} // namespace gdiff
