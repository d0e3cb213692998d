/**
 * @file
 * Global value queues: the history structures behind the gdiff
 * predictor (paper §3-§5).
 *
 *  - GlobalValueQueue: the architectural GVQ, with an optional
 *    value-delay T that hides the newest T values from the visible
 *    window (the profile-mode delay model of paper §3.1).
 *  - HybridGvq: the HGVQ of paper §5 — slots are pushed with
 *    speculative (locally predicted) values at dispatch, in dispatch
 *    order, and overwritten with real results at writeback. Slot ids
 *    let in-flight instructions address their own dispatch position.
 */

#ifndef GDIFF_CORE_GVQ_HH
#define GDIFF_CORE_GVQ_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/logging.hh"
#include "util/ring_history.hh"

namespace gdiff {
namespace core {

/** Maximum supported gdiff order (queue window size). */
inline constexpr unsigned maxOrder = 64;

/**
 * A view of the n most recent visible queue values, read where they
 * live: window position k (the value produced k+1 value-productions
 * before the reference point) is at newest[-k]. count may be < order
 * while the queue warms up, and newest is only dereferenced for
 * k < count. A view taken from a queue is valid until the queue's
 * next push.
 */
struct ValueWindow
{
    const int64_t *newest = nullptr;
    unsigned count = 0;

    /** @return window position k (k < count). */
    int64_t
    operator[](unsigned k) const
    {
        return newest[-static_cast<ptrdiff_t>(k)];
    }
};

/**
 * The architectural global value queue of paper §3, with the
 * profile-mode value-delay parameter T of §3.1: the visible window
 * covers ages T+1 .. T+order, modelling a predictor that cannot see
 * the T most recently produced values.
 */
class GlobalValueQueue
{
  public:
    /**
     * @param order window size n visible to the predictor.
     * @param delay value delay T (0 = ideal profile model).
     */
    explicit GlobalValueQueue(unsigned order, unsigned delay = 0)
        : order_(order), delay_(delay),
          hist(checkedCapacity(order, delay))
    {
    }

    /** Append a newly produced value. */
    void push(int64_t v) { hist.push(v); }

    /** push() each of v[0..n) in order. */
    void pushRange(const int64_t *v, size_t n) { hist.pushRange(v, n); }

    /** @return the delay-shifted visible window. */
    ValueWindow
    visibleWindow() const
    {
        size_t have = hist.size() > delay_ ? hist.size() - delay_ : 0;
        ValueWindow w;
        w.count = static_cast<unsigned>(have > order_ ? order_ : have);
        if (w.count > 0)
            w.newest = hist.at(delay_);
        return w;
    }

    /** @return the configured window size n. */
    unsigned order() const { return order_; }

    /** @return the configured value delay T. */
    unsigned delay() const { return delay_; }

    /**
     * Copy the retained history into @p dst oldest-first (dst must
     * hold order+delay values). Together with the values a batch is
     * about to push, this linearizes the queue into a flat stream so
     * the batched gdiff paths can address any lane's visible window
     * with plain pointer arithmetic instead of per-lane ring walks.
     *
     * @return the number of values copied (== current ring size).
     */
    size_t
    copyRecent(int64_t *dst) const
    {
        const size_t have = hist.size();
        if (have > 0) // oldest at at(have - 1), newer ones above it
            std::copy_n(hist.at(have - 1), have, dst);
        return have;
    }

    /** @return total values ever pushed. */
    uint64_t totalPushes() const { return hist.totalPushes(); }

    /** Forget all history. */
    void clear() { hist.clear(); }

  private:
    /** Validate the order before the ring is constructed. */
    static size_t
    checkedCapacity(unsigned order, unsigned delay)
    {
        GDIFF_ASSERT(order >= 1 && order <= maxOrder,
                     "GVQ order %u out of range", order);
        return static_cast<size_t>(order) + delay;
    }

    unsigned order_;
    unsigned delay_;
    RingHistory<int64_t> hist;
};

/**
 * The hybrid global value queue (HGVQ) of paper §5.
 *
 * At dispatch, a slot is pushed carrying a speculative value (the
 * local-stride prediction); the returned slot id travels with the
 * instruction. At writeback the slot is overwritten with the real
 * result. Both the prediction window (at dispatch) and the training
 * window (at writeback, anchored at the instruction's own slot) are
 * taken in *dispatch order*, which is what removes the execution
 * variation that plagues the speculative GVQ.
 */
class HybridGvq
{
  public:
    /**
     * @param order    window size n visible to the predictor.
     * @param capacity ring capacity; must cover order plus the
     *        maximum number of in-flight producers (ROB size).
     */
    explicit HybridGvq(unsigned order, size_t capacity = 256)
        : order_(order), hist(capacity)
    {
        GDIFF_ASSERT(order >= 1 && order <= maxOrder,
                     "HGVQ order %u out of range", order);
        GDIFF_ASSERT(capacity >= order, "HGVQ capacity < order");
    }

    /**
     * Push a slot at dispatch with a speculative value.
     * @return the slot id (0-based dispatch sequence number).
     */
    uint64_t
    pushSpeculative(int64_t v)
    {
        hist.push(v);
        return hist.totalPushes() - 1;
    }

    /**
     * Overwrite a slot with the instruction's real result at
     * writeback. A slot that has already fallen out of the ring is
     * silently dropped (it can no longer influence any window).
     */
    void
    commitSlot(uint64_t slot, int64_t v)
    {
        uint64_t newest = hist.totalPushes() - 1;
        GDIFF_ASSERT(slot <= newest, "commit of future slot");
        hist.replace(static_cast<size_t>(newest - slot), v);
    }

    /** @return the window of the n slots dispatched most recently
     * (used for prediction at dispatch). */
    ValueWindow
    windowAtDispatch() const
    {
        return windowEndingAt(hist.totalPushes());
    }

    /**
     * @return the window of the n slots that immediately precede the
     * given slot (used for table training at writeback).
     */
    ValueWindow
    windowBeforeSlot(uint64_t slot) const
    {
        return windowEndingAt(slot);
    }

    /** @return the configured window size n. */
    unsigned order() const { return order_; }

    /** @return total slots ever pushed. */
    uint64_t totalPushes() const { return hist.totalPushes(); }

  private:
    /**
     * Window of the `order` slots before absolute position `end`
     * (exclusive): at most `order` slots, none before slot 0, and
     * none that has left the ring.
     */
    ValueWindow
    windowEndingAt(uint64_t end) const
    {
        uint64_t newest = hist.totalPushes();
        GDIFF_ASSERT(end <= newest, "window past the queue head");
        uint64_t age = newest - end; // age of slot end - 1
        ValueWindow w;
        if (age >= hist.size())
            return w; // every slot before end has been evicted
        uint64_t n = hist.size() - age;
        if (n > end)
            n = end;
        if (n > order_)
            n = order_;
        w.count = static_cast<unsigned>(n);
        if (w.count > 0)
            w.newest = hist.at(static_cast<size_t>(age));
        return w;
    }

    unsigned order_;
    RingHistory<int64_t> hist;
};

} // namespace core
} // namespace gdiff

#endif // GDIFF_CORE_GVQ_HH
