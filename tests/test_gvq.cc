/**
 * @file
 * Global-value-queue tests: delay-shifted windows (paper §3.1) and
 * the hybrid GVQ's slot/commit semantics (paper §5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "core/gvq.hh"
#include "util/random.hh"

namespace gdiff {
namespace core {
namespace {

TEST(Gvq, WindowIsMostRecentFirst)
{
    GlobalValueQueue q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    ValueWindow w = q.visibleWindow();
    ASSERT_EQ(w.count, 3u);
    EXPECT_EQ(w[0], 30);
    EXPECT_EQ(w[1], 20);
    EXPECT_EQ(w[2], 10);
}

TEST(Gvq, WindowCapsAtOrder)
{
    GlobalValueQueue q(2);
    for (int i = 1; i <= 5; ++i)
        q.push(i);
    ValueWindow w = q.visibleWindow();
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w[0], 5);
    EXPECT_EQ(w[1], 4);
}

TEST(Gvq, DelayHidesNewestValues)
{
    // order 3, delay 2: the window shows ages 3,4,5.
    GlobalValueQueue q(3, 2);
    for (int i = 1; i <= 6; ++i)
        q.push(i);
    ValueWindow w = q.visibleWindow();
    ASSERT_EQ(w.count, 3u);
    EXPECT_EQ(w[0], 4); // age 3
    EXPECT_EQ(w[1], 3);
    EXPECT_EQ(w[2], 2);
}

TEST(Gvq, DelayedWindowEmptyUntilEnoughHistory)
{
    GlobalValueQueue q(3, 2);
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.visibleWindow().count, 0u);
    q.push(3);
    ValueWindow w = q.visibleWindow();
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w[0], 1);
}

TEST(Gvq, ClearForgets)
{
    GlobalValueQueue q(2);
    q.push(1);
    q.clear();
    EXPECT_EQ(q.visibleWindow().count, 0u);
}

TEST(GvqDeath, OrderOutOfRange)
{
    EXPECT_DEATH(GlobalValueQueue q(0), "order");
    EXPECT_DEATH(GlobalValueQueue q(maxOrder + 1), "order");
}

// --------------------------------------------------------------- HGVQ

TEST(HybridGvq, SlotIdsAreSequential)
{
    HybridGvq h(4, 16);
    EXPECT_EQ(h.pushSpeculative(100), 0u);
    EXPECT_EQ(h.pushSpeculative(200), 1u);
    EXPECT_EQ(h.pushSpeculative(300), 2u);
}

TEST(HybridGvq, DispatchWindowSeesSpeculativeValues)
{
    HybridGvq h(4, 16);
    h.pushSpeculative(100);
    h.pushSpeculative(200);
    ValueWindow w = h.windowAtDispatch();
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w[0], 200);
    EXPECT_EQ(w[1], 100);
}

TEST(HybridGvq, CommitOverwritesSlot)
{
    HybridGvq h(4, 16);
    uint64_t s0 = h.pushSpeculative(100);
    h.pushSpeculative(200);
    h.commitSlot(s0, 111); // real value arrives at writeback
    ValueWindow w = h.windowAtDispatch();
    EXPECT_EQ(w[1], 111);
    EXPECT_EQ(w[0], 200); // untouched speculative slot
}

TEST(HybridGvq, WindowBeforeSlotAnchorsInDispatchOrder)
{
    HybridGvq h(2, 16);
    h.pushSpeculative(10); // slot 0
    h.pushSpeculative(20); // slot 1
    uint64_t s2 = h.pushSpeculative(30); // slot 2
    h.pushSpeculative(40); // slot 3 (dispatched later)

    // The training window of slot 2 must see slots 1 and 0 — never
    // slot 3, which dispatched after it.
    ValueWindow w = h.windowBeforeSlot(s2);
    ASSERT_EQ(w.count, 2u);
    EXPECT_EQ(w[0], 20);
    EXPECT_EQ(w[1], 10);
}

TEST(HybridGvq, WindowBeforeSlotSeesCommittedValues)
{
    HybridGvq h(2, 16);
    uint64_t s0 = h.pushSpeculative(10);
    uint64_t s1 = h.pushSpeculative(20);
    h.commitSlot(s0, 11); // slot 0's real result arrives first
    ValueWindow w = h.windowBeforeSlot(s1);
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w[0], 11);
}

TEST(HybridGvq, EvictedSlotsDropFromWindows)
{
    HybridGvq h(4, 4); // tiny ring
    for (int i = 0; i < 8; ++i)
        h.pushSpeculative(i * 10);
    // Slots 0..3 have been evicted; a window anchored at slot 5 can
    // only reach slots 4 (value 40): slots 3,2 are gone.
    ValueWindow w = h.windowBeforeSlot(5);
    ASSERT_EQ(w.count, 1u);
    EXPECT_EQ(w[0], 40);
}

TEST(HybridGvq, CommitOfEvictedSlotIsSilentlyDropped)
{
    HybridGvq h(2, 2);
    uint64_t s0 = h.pushSpeculative(1);
    h.pushSpeculative(2);
    h.pushSpeculative(3); // evicts slot 0
    h.commitSlot(s0, 99); // must not crash or corrupt
    ValueWindow w = h.windowAtDispatch();
    EXPECT_EQ(w[0], 3);
    EXPECT_EQ(w[1], 2);
}

TEST(HybridGvqDeath, CommitOfFutureSlot)
{
    HybridGvq h(2, 8);
    h.pushSpeculative(1);
    EXPECT_DEATH(h.commitSlot(5, 1), "future");
}

// ------------------------------------- windows vs element-wise models
//
// Windows are views into the queues' mirrored rings: position k of a
// window is read at newest[-k] with no index wrap. These check every
// position against models that never share that layout.

TEST(RingHistoryWindow, PointerWalkMatchesIndexOperator)
{
    Xorshift64Star rng(91);
    for (size_t cap : {1u, 2u, 3u, 64u, 65u, 288u}) {
        RingHistory<int64_t> ring(cap);
        for (int step = 0; step < 1500; ++step) {
            if (rng.below(4) == 0 && !ring.empty()) {
                ring.replace(rng.below(ring.size()),
                             static_cast<int64_t>(rng.next()));
            } else {
                ring.push(static_cast<int64_t>(rng.next()));
            }
            if (step % 7 != 0)
                continue;
            size_t k = rng.below(cap);
            const int64_t *p = ring.at(k);
            for (size_t j = 0; k + j < ring.size(); ++j)
                ASSERT_EQ(p[-static_cast<ptrdiff_t>(j)], ring[k + j])
                    << "cap " << cap << " age " << k + j;
        }
    }
}

TEST(RingHistoryWindow, PushRangeMatchesPushLoop)
{
    Xorshift64Star rng(93);
    for (size_t cap : {1u, 3u, 8u, 65u}) {
        RingHistory<int64_t> a(cap), b(cap);
        for (size_t n : {0u, 1u, 2u, 7u, 64u, 65u, 300u}) {
            std::vector<int64_t> v(n);
            for (auto &x : v)
                x = static_cast<int64_t>(rng.next());
            a.pushRange(v.data(), n);
            for (int64_t x : v)
                b.push(x);
            ASSERT_EQ(a.size(), b.size()) << cap << " " << n;
            ASSERT_EQ(a.totalPushes(), b.totalPushes());
            for (size_t k = 0; k < cap; ++k)
                ASSERT_EQ(a[k], b[k]) << cap << " " << n << " " << k;
            if (!a.empty()) {
                const int64_t *p = a.at(0);
                for (size_t j = 0; j < a.size(); ++j)
                    ASSERT_EQ(p[-static_cast<ptrdiff_t>(j)], b[j]);
            }
        }
    }
}

TEST(GvqWindow, MatchesReferenceForEveryOrderAndDelay)
{
    Xorshift64Star rng(92);
    for (unsigned order = 1; order <= maxOrder; ++order) {
        for (unsigned delay : {0u, 1u, 7u}) {
            GlobalValueQueue q(order, delay);
            std::deque<int64_t> ref; // newest first, every push kept
            for (unsigned i = 0; i < 2 * (order + delay) + 5; ++i) {
                int64_t v = static_cast<int64_t>(rng.next());
                q.push(v);
                ref.push_front(v);
                ValueWindow w = q.visibleWindow();
                size_t have = ref.size() > delay ? ref.size() - delay : 0;
                ASSERT_EQ(w.count, std::min<size_t>(order, have));
                for (unsigned k = 0; k < w.count; ++k)
                    ASSERT_EQ(w[k], ref[delay + k])
                        << "order " << order << " delay " << delay;
            }
            // copyRecent linearizes the retained ring oldest-first.
            std::vector<int64_t> flat(order + delay);
            size_t n = q.copyRecent(flat.data());
            ASSERT_EQ(n, static_cast<size_t>(order + delay));
            for (size_t j = 0; j < n; ++j)
                ASSERT_EQ(flat[j], ref[n - 1 - j]);
        }
    }
}

/**
 * Reference HGVQ: every slot ever pushed, by absolute id, with the
 * ring's retention rule applied explicitly.
 */
struct HgvqModel
{
    size_t capacity;
    std::vector<int64_t> slots;

    bool
    retained(uint64_t slot) const
    {
        return slots.size() - 1 - slot < capacity;
    }

    void
    commit(uint64_t slot, int64_t v)
    {
        if (retained(slot))
            slots[slot] = v;
    }

    /** The `order` retained slots before `end`, newest first. */
    std::vector<int64_t>
    window(uint64_t end, unsigned order) const
    {
        std::vector<int64_t> w;
        for (uint64_t s = end; s > 0 && w.size() < order; --s) {
            if (!retained(s - 1))
                break;
            w.push_back(slots[s - 1]);
        }
        return w;
    }
};

void
expectWindow(const ValueWindow &w, const std::vector<int64_t> &ref,
             const char *what, unsigned order, uint64_t anchor)
{
    ASSERT_EQ(w.count, ref.size())
        << what << " order " << order << " anchor " << anchor;
    for (unsigned k = 0; k < w.count; ++k)
        ASSERT_EQ(w[k], ref[k])
            << what << " order " << order << " anchor " << anchor
            << " position " << k;
}

TEST(HybridGvqWindow, MatchesReferenceForEveryOrder)
{
    Xorshift64Star rng(93);
    for (unsigned order = 1; order <= maxOrder; ++order) {
        // The pipeline's non-power-of-two ring, and a ring no larger
        // than the window, where evictions cut every window short.
        for (size_t capacity : {size_t(order) + 256, size_t(order)}) {
            HybridGvq q(order, capacity);
            HgvqModel model{capacity, {}};
            std::vector<uint64_t> inFlight;
            for (int step = 0; step < 700; ++step) {
                if (inFlight.empty() || rng.below(5) < 3) {
                    int64_t v = static_cast<int64_t>(rng.next());
                    uint64_t slot = q.pushSpeculative(v);
                    ASSERT_EQ(slot, model.slots.size());
                    model.slots.push_back(v);
                    inFlight.push_back(slot);
                } else {
                    // Commit an in-flight slot, oldest ones included:
                    // those may already have left the ring.
                    size_t i = rng.below(inFlight.size());
                    uint64_t slot = inFlight[i];
                    inFlight.erase(inFlight.begin() +
                                   static_cast<ptrdiff_t>(i));
                    int64_t v = static_cast<int64_t>(rng.next());
                    q.commitSlot(slot, v);
                    model.commit(slot, v);
                    expectWindow(q.windowBeforeSlot(slot),
                                 model.window(slot, order), "before",
                                 order, slot);
                }
                uint64_t total = q.totalPushes();
                expectWindow(q.windowAtDispatch(),
                             model.window(total, order), "dispatch",
                             order, total);
                uint64_t anchor = rng.below(total + 1);
                expectWindow(q.windowBeforeSlot(anchor),
                             model.window(anchor, order), "anchor",
                             order, anchor);
            }
        }
    }
}

} // namespace
} // namespace core
} // namespace gdiff
