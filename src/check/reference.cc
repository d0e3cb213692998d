#include "check/reference.hh"

#include "core/gdiff.hh"
#include "predictors/fcm.hh"
#include "predictors/gfcm.hh"
#include "runner/factory.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace gdiff {
namespace check {

namespace {

/** Two's-complement wrapping add (the predictors' arithmetic). */
int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

/** Two's-complement wrapping subtract. */
int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

/**
 * The context fold both FCM variants specify: each item contributes
 * its low 16 hash bits, oldest first, truncated to `order` items.
 */
uint64_t
foldRawHistory(const std::deque<int64_t> &items, unsigned order)
{
    uint64_t h = 0;
    for (int64_t v : items) {
        h = ((h << 16) | (mix64(static_cast<uint64_t>(v)) & 0xffff)) &
            mask(16 * order);
    }
    return h;
}

} // anonymous namespace

// ---------------------------------------------------- RefLastValue

bool
RefLastValue::predict(uint64_t pc, int64_t &value)
{
    auto it = last.find(pc);
    if (it == last.end())
        return false;
    value = it->second;
    return true;
}

void
RefLastValue::update(uint64_t pc, int64_t actual)
{
    last[pc] = actual;
}

// ------------------------------------------------- RefStride2Delta

bool
RefStride2Delta::predict(uint64_t pc, int64_t &value)
{
    auto it = state.find(pc);
    if (it == state.end())
        return false;
    value = wrapAdd(it->second.last, it->second.stride);
    return true;
}

void
RefStride2Delta::update(uint64_t pc, int64_t actual)
{
    auto it = state.find(pc);
    if (it == state.end()) {
        state[pc].last = actual;
        return;
    }
    State &s = it->second;
    int64_t new_stride = wrapSub(actual, s.last);
    // 2-delta rule: the predicted stride only changes once the same
    // new stride has been seen twice in a row.
    if (new_stride == s.lastStride)
        s.stride = new_stride;
    s.lastStride = new_stride;
    s.last = actual;
}

// ----------------------------------------------------------- RefFcm

RefFcm::RefFcm(unsigned order, uint64_t level2_entries, bool strides)
    : order(order), level2Entries(level2_entries), strides(strides)
{
    GDIFF_ASSERT(order >= 1 && order <= predictors::fcmMaxOrder,
                 "FCM oracle order out of range");
    GDIFF_ASSERT(isPowerOfTwo(level2Entries),
                 "FCM oracle level-2 size must be a power of two");
}

uint64_t
RefFcm::slotOf(uint64_t pc, const State &s) const
{
    uint64_t folded = foldRawHistory(s.history, order);
    return (mix64(folded) ^ mix64(pc)) & mask(ceilLog2(level2Entries));
}

bool
RefFcm::predict(uint64_t pc, int64_t &value)
{
    auto it = level1.find(pc);
    if (it == level1.end() || it->second.seen < order)
        return false;
    auto l2 = level2.find(slotOf(pc, it->second));
    if (l2 == level2.end())
        return false;
    // A stride history of at least one item implies a last value.
    value = strides ? wrapAdd(*it->second.last, l2->second) : l2->second;
    return true;
}

void
RefFcm::update(uint64_t pc, int64_t actual)
{
    State &s = level1[pc];
    int64_t item = actual;
    if (strides) {
        // The first value has no stride yet: it is only the base of
        // the next one.
        if (!s.last) {
            s.last = actual;
            return;
        }
        item = wrapSub(actual, *s.last);
        s.last = actual;
    }
    // Once the history is warm, remember the item that followed it.
    if (s.seen >= order)
        level2[slotOf(pc, s)] = item;
    s.history.push_back(item);
    if (s.history.size() > order)
        s.history.pop_front();
    ++s.seen;
}

// ---------------------------------------------------------- RefGFcm

RefGFcm::RefGFcm(unsigned order, uint64_t table_entries)
    : order(order), tableEntries(table_entries)
{
    GDIFF_ASSERT(order >= 1 && order <= predictors::gfcmMaxOrder,
                 "gFCM oracle order %u out of range 1..%u", order,
                 predictors::gfcmMaxOrder);
    GDIFF_ASSERT(isPowerOfTwo(tableEntries),
                 "gFCM oracle table size must be a power of two");
}

uint64_t
RefGFcm::slotOf(uint64_t pc) const
{
    // The context covers exactly `order` positions; positions older
    // than anything yet produced read as zero (tables power up
    // zeroed), matching the production predictor's ring semantics.
    uint64_t ctx = 0;
    for (unsigned k = 0; k < order; ++k) {
        int64_t v = k < global.size() ? global[global.size() - 1 - k]
                                      : 0;
        ctx = (ctx << 16) |
              (mix64(static_cast<uint64_t>(v)) & 0xffff);
    }
    return (mix64(pc >> 2) ^ mix64(ctx)) &
           mask(ceilLog2(tableEntries));
}

bool
RefGFcm::predict(uint64_t pc, int64_t &value)
{
    auto it = table.find(slotOf(pc));
    if (it == table.end())
        return false;
    value = it->second;
    return true;
}

void
RefGFcm::update(uint64_t pc, int64_t actual)
{
    // Store under the *current* context, then advance the global
    // history — the next prediction sees the new neighbourhood.
    table[slotOf(pc)] = actual;
    global.push_back(actual);
    if (global.size() > order)
        global.pop_front();
}

// --------------------------------------------------------- RefGDiff

RefGDiff::RefGDiff(unsigned order, unsigned delay)
    : order(order), delay(delay)
{
    GDIFF_ASSERT(order >= 1 && order <= core::maxOrder,
                 "gdiff oracle order out of range");
}

std::vector<int64_t>
RefGDiff::visibleWindow() const
{
    // values[k] is the value produced delay+k+1 productions ago: the
    // newest `delay` values are hidden (§3.1's value-delay model).
    std::vector<int64_t> w;
    size_t avail = queue.size() > delay ? queue.size() - delay : 0;
    size_t count = avail < order ? avail : order;
    for (size_t k = 0; k < count; ++k)
        w.push_back(queue[queue.size() - 1 - delay - k]);
    return w;
}

bool
RefGDiff::predict(uint64_t pc, int64_t &value)
{
    auto it = entries.find(pc);
    if (it == entries.end() || it->second.distance < 0)
        return false;
    const Entry &e = it->second;
    std::vector<int64_t> w = visibleWindow();
    size_t k = static_cast<size_t>(e.distance);
    if (k >= w.size() || k >= e.diffs.size())
        return false;
    value = wrapAdd(w[k], e.diffs[k]);
    return true;
}

void
RefGDiff::update(uint64_t pc, int64_t actual)
{
    Entry &e = entries[pc];
    std::vector<int64_t> w = visibleWindow();

    // Fresh differences between the produced value and the window.
    std::vector<int64_t> cur;
    cur.reserve(w.size());
    for (int64_t v : w)
        cur.push_back(wrapSub(actual, v));

    // Select the nearest position whose fresh difference matches the
    // stored one; on no match the distance is left alone (paper §3).
    size_t compare = cur.size() < e.diffs.size() ? cur.size()
                                                 : e.diffs.size();
    for (size_t i = 0; i < compare; ++i) {
        if (cur[i] == e.diffs[i]) {
            e.distance = static_cast<int>(i);
            break;
        }
    }
    e.diffs = std::move(cur);

    queue.push_back(actual);
    // Values older than the deepest window position can never be
    // seen again; dropping them keeps the oracle O(order) per record.
    while (queue.size() > static_cast<size_t>(order) + delay)
        queue.pop_front();
}

// ------------------------------------------------------- pair zoo

const std::vector<std::string> &
pairNames()
{
    static const std::vector<std::string> names = {
        "last", "stride", "fcm", "dfcm", "gfcm", "gdiff"};
    return names;
}

PredictorPair
makePair(const std::string &name, unsigned order)
{
    const runner::PredictorFamily *family = runner::findPredictor(name);
    const unsigned o = family && !order ? family->defaultOrder : order;
    PredictorPair pair;
    pair.name = name;
    if (name == "last") {
        pair.oracle = std::make_unique<RefLastValue>();
    } else if (name == "stride") {
        pair.oracle = std::make_unique<RefStride2Delta>();
    } else if (name == "fcm" || name == "dfcm") {
        pair.oracle = std::make_unique<RefFcm>(
            o, predictors::fcmLevel2Entries, name == "dfcm");
    } else if (name == "gfcm") {
        pair.oracle = std::make_unique<RefGFcm>(
            o, predictors::GFcmConfig().tableEntries);
    } else if (name == "gdiff") {
        pair.oracle =
            std::make_unique<RefGDiff>(o, core::GDiffConfig().valueDelay);
    }
    GDIFF_ASSERT(pair.oracle, "unknown predictor pair '%s'", name.c_str());
    pair.production = family->make(o, 0);
    return pair;
}

} // namespace check
} // namespace gdiff
