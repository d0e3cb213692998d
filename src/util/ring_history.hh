/**
 * @file
 * A fixed-capacity most-recent-first history buffer.
 *
 * This is the storage idiom behind the global value queue (GVQ): a
 * bounded window over a stream where entry 0 is the most recently
 * pushed element and entry k is the element pushed k steps earlier.
 */

#ifndef GDIFF_UTIL_RING_HISTORY_HH
#define GDIFF_UTIL_RING_HISTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace gdiff {

/**
 * Bounded most-recent-first history of T.
 *
 * push() is O(1); operator[](k) returns the element pushed k pushes
 * ago (0 = newest). Until the buffer fills, out-of-range entries read
 * as value-initialised T (matching hardware tables that power up
 * zeroed).
 *
 * The storage is mirrored: every slot is kept twice, at i and at
 * i + capacity, so the elements of ages k, k+1, ... up to age
 * capacity-1 sit at descending addresses from at(k) with no index
 * wrap. A window over the history is then one pointer, which is how
 * the gdiff paths read it (window position j at top[-j]).
 */
template <typename T>
class RingHistory
{
  public:
    /** @param capacity maximum number of retained elements (> 0). */
    explicit RingHistory(size_t capacity)
        : cap(capacity), buf(2 * capacity), head(0), count(0)
    {
        GDIFF_ASSERT(capacity > 0, "RingHistory needs capacity > 0");
    }

    /** Append a new most-recent element, evicting the oldest. */
    void
    push(const T &v)
    {
        if (++head == cap)
            head = 0;
        buf[head] = v;
        buf[head + cap] = v;
        if (count < cap)
            ++count;
        ++pushes;
    }

    /**
     * Append @p n elements in order (v[n-1] ends up newest): the same
     * contents and totalPushes() as n push() calls, but only the last
     * capacity() of them are written — the rest would be evicted.
     */
    void
    pushRange(const T *v, size_t n)
    {
        const size_t skip = n > cap ? n - cap : 0;
        for (size_t i = skip; i < n; ++i)
            push(v[i]);
        pushes += skip;
    }

    /**
     * @param k age of the requested element (0 = newest).
     * @return the element pushed k pushes ago, or a value-initialised
     *         T if fewer than k+1 elements have ever been pushed.
     */
    T
    operator[](size_t k) const
    {
        if (k >= count)
            return T();
        return buf[head + cap - k];
    }

    /**
     * @param k age of an element (k < capacity()).
     * @return a pointer p to the slot of age k, with the slot of age
     *         k + j at p[-j] for every k + j < capacity(). Slots of
     *         age >= size() hold stale or value-initialised data.
     */
    const T *
    at(size_t k) const
    {
        GDIFF_ASSERT(k < cap, "RingHistory age %zu past capacity", k);
        return &buf[head + cap - k];
    }

    /**
     * Overwrite the element of age k in place (used by the hybrid
     * global value queue to replace a speculative fill with the real
     * execution result). Out-of-range ages are ignored: the slot has
     * already been evicted from the window.
     *
     * @param k age of the element to overwrite (0 = newest).
     * @param v replacement value.
     * @return true if the slot was still in the window.
     */
    bool
    replace(size_t k, const T &v)
    {
        if (k >= count)
            return false;
        size_t idx = head + cap - k;
        buf[idx] = v;
        buf[idx >= cap ? idx - cap : idx + cap] = v;
        return true;
    }

    /** @return number of valid elements (<= capacity()). */
    size_t size() const { return count; }

    /** @return the fixed capacity. */
    size_t capacity() const { return cap; }

    /** @return true if no element has been pushed yet. */
    bool empty() const { return count == 0; }

    /**
     * @return the absolute number of pushes so far, usable as a
     * monotonically increasing sequence number for age arithmetic.
     */
    uint64_t totalPushes() const { return pushes; }

    /** Forget all contents (window becomes empty). */
    void
    clear()
    {
        count = 0;
        head = 0;
    }

  private:
    size_t cap;
    std::vector<T> buf; ///< 2 * cap: slot i mirrored at i + cap
    size_t head;        ///< slot of the newest element, in [0, cap)
    size_t count;
    uint64_t pushes = 0;
};

} // namespace gdiff

#endif // GDIFF_UTIL_RING_HISTORY_HH
