/**
 * @file
 * Baseline-predictor tests: last-value, last-N, stride (2-delta),
 * FCM/DFCM, PI, Markov, confidence, and the shared table machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "predictors/confidence.hh"
#include "predictors/fcm.hh"
#include "predictors/last_value.hh"
#include "predictors/markov.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "predictors/table.hh"
#include "util/random.hh"

namespace gdiff {
namespace predictors {
namespace {

constexpr uint64_t pcA = 0x400000;
constexpr uint64_t pcB = 0x400100;

/** Feed a sequence and count correct predictions (predict-then-update). */
template <typename P>
unsigned
score(P &p, uint64_t pc, const std::vector<int64_t> &values)
{
    unsigned correct = 0;
    for (int64_t v : values) {
        int64_t guess = 0;
        if (p.predict(pc, guess) && guess == v)
            ++correct;
        p.update(pc, v);
    }
    return correct;
}

// --------------------------------------------------------- last value

TEST(LastValue, NoPredictionBeforeFirstUpdate)
{
    LastValuePredictor p;
    int64_t v;
    EXPECT_FALSE(p.predict(pcA, v));
}

TEST(LastValue, PredictsRepeats)
{
    LastValuePredictor p;
    // 9 repeats after the first value -> 9 correct.
    EXPECT_EQ(score(p, pcA, std::vector<int64_t>(10, 42)), 9u);
}

TEST(LastValue, PerPcIsolation)
{
    LastValuePredictor p;
    p.update(pcA, 1);
    p.update(pcB, 2);
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_EQ(v, 1);
    ASSERT_TRUE(p.predict(pcB, v));
    EXPECT_EQ(v, 2);
}

// ------------------------------------------------------------- last N

TEST(LastN, RecoversAlternatingPattern)
{
    LastNValuePredictor p(4);
    // Alternating 5,9,5,9... : after warmup the MRU-repeated value is
    // predicted; it matches half the time at worst and the predictor
    // must at least keep predicting known values.
    std::vector<int64_t> seq;
    for (int i = 0; i < 20; ++i)
        seq.push_back(i % 2 ? 9 : 5);
    score(p, pcA, seq);
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_TRUE(v == 5 || v == 9);
}

TEST(LastN, DepthBounded)
{
    LastNValuePredictor p(2);
    p.update(pcA, 1);
    p.update(pcA, 2);
    p.update(pcA, 3); // evicts 1
    int64_t v;
    ASSERT_TRUE(p.predict(pcA, v));
    EXPECT_EQ(v, 3); // no repeats seen; MRU is predicted
}

// -------------------------------------------------------------- stride

TEST(Stride, LearnsConstantStride)
{
    StridePredictor p;
    std::vector<int64_t> seq;
    for (int i = 0; i < 12; ++i)
        seq.push_back(100 + 7 * i);
    // 2-delta: needs two equal strides; the remaining 9 are correct.
    EXPECT_EQ(score(p, pcA, seq), 9u);
}

TEST(Stride, StrideZeroIsLastValue)
{
    StridePredictor p;
    EXPECT_EQ(score(p, pcA, std::vector<int64_t>(8, -3)), 7u);
}

TEST(Stride, TwoDeltaSurvivesOneGlitch)
{
    StridePredictor p;
    std::vector<int64_t> seq = {0, 7, 14, 21, 999, 1006, 1013, 1020};
    // 2-delta keeps stride 7 across the glitch, so everything from
    // the glitch's successor onward is correct again: 21 (learned),
    // then 1006, 1013, 1020. Only 999 itself is lost.
    unsigned correct = score(p, pcA, seq);
    EXPECT_EQ(correct, 4u);
}

TEST(Stride, SimpleVariantTracksImmediately)
{
    StridePredictor p(0, false);
    std::vector<int64_t> seq = {0, 5, 10, 15};
    // Simple stride learns after one interval: predicts 10 and 15.
    EXPECT_EQ(score(p, pcA, seq), 2u);
}

TEST(Stride, NegativeStride)
{
    StridePredictor p;
    std::vector<int64_t> seq;
    for (int i = 0; i < 10; ++i)
        seq.push_back(1000 - 13 * i);
    EXPECT_EQ(score(p, pcA, seq), 7u);
}

// ---------------------------------------------------------------- FCM

TEST(Dfcm, LearnsPeriodicStridePattern)
{
    DfcmPredictor p;
    // Period-3 stride pattern: +1,+2,+4 repeating. A stride predictor
    // fails; DFCM captures it once each stride context repeats.
    std::vector<int64_t> seq;
    int64_t v = 0;
    const int64_t strides[3] = {1, 2, 4};
    for (int i = 0; i < 60; ++i) {
        seq.push_back(v);
        v += strides[i % 3];
    }
    unsigned correct = score(p, pcA, seq);
    EXPECT_GT(correct, 45u); // near-perfect after warmup

    StridePredictor s;
    EXPECT_LT(score(s, pcA, seq), 10u);
}

TEST(Dfcm, ConstantSequence)
{
    DfcmPredictor p;
    EXPECT_GT(score(p, pcA, std::vector<int64_t>(30, 5)), 24u);
}

TEST(Fcm, LearnsPeriodicValues)
{
    FcmPredictor p;
    std::vector<int64_t> seq;
    const int64_t vals[4] = {3, 14, 15, 92};
    for (int i = 0; i < 80; ++i)
        seq.push_back(vals[i % 4]);
    EXPECT_GT(score(p, pcA, seq), 65u);
}

TEST(Fcm, RandomValuesUnpredictable)
{
    FcmPredictor p;
    std::vector<int64_t> seq;
    uint64_t x = 12345;
    for (int i = 0; i < 100; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        seq.push_back(static_cast<int64_t>(x >> 8));
    }
    EXPECT_LT(score(p, pcA, seq), 5u);
}

// ----------------------------------------------------------------- PI

TEST(Pi, TracksGlobalNeighbourDifference)
{
    PiPredictor p;
    // Two interleaved PCs: B's value is always A's value + 10.
    unsigned correct_b = 0;
    for (int i = 0; i < 20; ++i) {
        int64_t a = i * 3;
        p.update(pcA, a);
        int64_t guess = 0;
        if (p.predict(pcB, guess) && guess == a + 10)
            ++correct_b;
        p.update(pcB, a + 10);
    }
    EXPECT_GE(correct_b, 18u);
}

// -------------------------------------------------------------- Markov

TEST(Markov, LearnsSuccessorPairs)
{
    MarkovPredictor m(1024, 4);
    // Cyclic address sequence: successor is deterministic.
    const uint64_t addrs[3] = {0x1000, 0x2000, 0x3000};
    unsigned correct = 0, predicted = 0;
    for (int i = 0; i < 30; ++i) {
        uint64_t a = addrs[i % 3];
        uint64_t guess = 0;
        if (m.predict(guess)) {
            ++predicted;
            correct += (guess == a);
        }
        m.update(a);
    }
    EXPECT_GT(predicted, 20u);
    EXPECT_EQ(correct, predicted); // deterministic successors
}

TEST(Markov, NoPredictionWithoutHistory)
{
    MarkovPredictor m(64, 4);
    uint64_t v;
    EXPECT_FALSE(m.predict(v));
    m.update(0x10);
    EXPECT_FALSE(m.predict(v)); // successor of 0x10 still unknown
}

TEST(Markov, TagMissGatesCoverage)
{
    MarkovPredictor m(64, 4);
    m.update(0x10);
    m.update(0x20); // successor(0x10) = 0x20
    m.update(0x999); // last = 0x999, never seen as a tag
    uint64_t v;
    EXPECT_FALSE(m.predict(v));
}

// ---------------------------------------------------------- confidence

TEST(Confidence, PaperPolicyGating)
{
    ConfidenceTable c;
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 2
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 4
    EXPECT_TRUE(c.confident(pcA));
    c.train(pcA, false); // 3
    EXPECT_FALSE(c.confident(pcA));
    c.train(pcA, true);  // 5
    EXPECT_TRUE(c.confident(pcA));
}

TEST(Confidence, SaturatesAtSeven)
{
    ConfidenceTable c;
    for (int i = 0; i < 10; ++i)
        c.train(pcA, true);
    // Three misses from saturation (7) leave the counter at 4: still
    // confident; a fourth drops below threshold.
    c.train(pcA, false);
    c.train(pcA, false);
    c.train(pcA, false);
    EXPECT_TRUE(c.confident(pcA));
    c.train(pcA, false);
    EXPECT_FALSE(c.confident(pcA));
}

// --------------------------------------------------------------- table

TEST(Table, UnlimitedModeIsolatesPcs)
{
    PcIndexedTable<int> t(0);
    t.lookup(pcA) = 1;
    t.lookup(pcB) = 2;
    EXPECT_EQ(*t.probe(pcA), 1);
    EXPECT_EQ(*t.probe(pcB), 2);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(Table, UnlimitedProbeMissingReturnsNull)
{
    PcIndexedTable<int> t(0);
    EXPECT_EQ(t.probe(0x1234), nullptr);
    // A probe inserts nothing, for the extreme pcs too.
    for (uint64_t pc : {uint64_t(0), ~uint64_t(0), uint64_t(0x40)})
        EXPECT_EQ(t.probe(pc), nullptr);
    EXPECT_EQ(t.lookups(), 0u);
    t.lookup(0) = 5;
    EXPECT_EQ(t.probe(~uint64_t(0)), nullptr);
    EXPECT_EQ(t.probe(0x40), nullptr);
    ASSERT_NE(t.probe(0), nullptr);
    EXPECT_EQ(*t.probe(0), 5);
}

TEST(Table, UnlimitedModeMatchesMapModel)
{
    // Random inserts and probes against std::unordered_map, over a
    // key set with the extreme pcs and enough distinct keys to force
    // many rehashes of the open-addressing slots.
    Xorshift64Star rng(17);
    PcIndexedTable<int64_t> t(0);
    std::unordered_map<uint64_t, int64_t> model;
    std::vector<uint64_t> keys = {0, ~uint64_t(0), 4, ~uint64_t(0) - 3};
    for (int i = 0; i < 3000; ++i)
        keys.push_back(i % 2 ? rng.next()
                             : 0x400000 + 4 * rng.below(4096));
    for (int step = 0; step < 60000; ++step) {
        uint64_t pc = keys[rng.below(keys.size())];
        switch (rng.below(3)) {
          case 0: {
            int64_t v = static_cast<int64_t>(rng.next());
            t.lookup(pc) = v;
            model[pc] = v;
            break;
          }
          case 1:
            // lookup() of a new pc value-initialises its entry
            EXPECT_EQ(t.lookup(pc), model[pc]);
            break;
          default: {
            const int64_t *e = t.probe(pc);
            auto it = model.find(pc);
            ASSERT_EQ(e != nullptr, it != model.end()) << pc;
            if (e) {
                EXPECT_EQ(*e, it->second);
            }
          }
        }
    }
    for (uint64_t pc : keys) {
        const int64_t *e = t.probe(pc);
        auto it = model.find(pc);
        ASSERT_EQ(e != nullptr, it != model.end()) << pc;
        if (e) {
            EXPECT_EQ(*e, it->second);
        }
    }
    EXPECT_GT(model.size(), 2000u);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(Table, UnlimitedReferencesSurviveGrowth)
{
    // Batch loops hold entry references across later lookups
    // (predictors/fcm.cc), so entries must never move.
    PcIndexedTable<uint64_t> t(0);
    uint64_t &first = t.lookup(0x400000);
    first = 42;
    std::vector<uint64_t *> refs;
    for (uint64_t i = 0; i < 5000; ++i) {
        uint64_t &e = t.lookup(0x500000 + 4 * i);
        e = i;
        refs.push_back(&e);
    }
    EXPECT_EQ(&t.lookup(0x400000), &first);
    EXPECT_EQ(first, 42u);
    for (uint64_t i = 0; i < refs.size(); ++i) {
        EXPECT_EQ(refs[i], t.probe(0x500000 + 4 * i));
        EXPECT_EQ(*refs[i], i);
    }
}

TEST(Table, LimitedModeAliases)
{
    PcIndexedTable<int> t(4); // indices from (pc >> 2) & 3
    uint64_t pc1 = 0x400000;
    uint64_t pc2 = 0x400010; // same index mod 4
    t.lookup(pc1) = 7;
    EXPECT_EQ(t.conflicts(), 0u);
    t.lookup(pc2);
    EXPECT_EQ(t.conflicts(), 1u);
    EXPECT_GT(t.conflictRate(), 0.0);
}

TEST(Table, LimitedModeDistinctIndicesNoConflict)
{
    PcIndexedTable<int> t(4);
    t.lookup(0x400000);
    t.lookup(0x400004);
    t.lookup(0x400008);
    EXPECT_EQ(t.conflicts(), 0u);
}

TEST(Table, LookupLanesMatchesLookupLoop)
{
    // Both modes: the same entries, in order, and the same lookup and
    // conflict counts as one lookup() per lane.
    Xorshift64Star rng(77);
    std::vector<uint64_t> pcs(3000);
    for (auto &pc : pcs)
        pc = rng.below(4) == 0 ? rng.next() : 0x400000 + 4 * rng.below(700);
    pcs[5] = 0;
    pcs[6] = ~uint64_t(0);
    for (size_t entries : {size_t(0), size_t(64)}) {
        PcIndexedTable<uint64_t> a(entries), b(entries);
        std::vector<uint64_t *> lanes(pcs.size());
        for (size_t base = 0; base < pcs.size(); base += 64) {
            size_t m = std::min<size_t>(64, pcs.size() - base);
            a.lookupLanes(pcs.data() + base, m, lanes.data() + base);
            for (size_t i = base; i < base + m; ++i)
                ++*lanes[i];
        }
        for (uint64_t pc : pcs)
            ++b.lookup(pc);
        EXPECT_EQ(a.lookups(), b.lookups()) << entries;
        EXPECT_EQ(a.conflicts(), b.conflicts()) << entries;
        for (size_t i = 0; i < pcs.size(); ++i) {
            ASSERT_EQ(lanes[i], a.probe(pcs[i])) << entries << " " << i;
            ASSERT_EQ(*lanes[i], *b.probe(pcs[i])) << entries << " " << i;
        }
    }
}

TEST(TableDeath, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(PcIndexedTable<int> t(1000), "power of two");
}

} // namespace
} // namespace predictors
} // namespace gdiff
