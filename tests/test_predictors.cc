/**
 * @file
 * Baseline-predictor tests: last-value, last-N, stride (2-delta),
 * FCM/DFCM, PI, Markov, confidence, and the shared table machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "predictors/confidence.hh"
#include "predictors/fcm.hh"
#include "predictors/last_value.hh"
#include "predictors/markov.hh"
#include "predictors/pi.hh"
#include "predictors/stride.hh"
#include "predictors/table.hh"
#include "predictors/value_predictor.hh"
#include "util/random.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

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

TEST(Fcm, PcsSharingAHashMemoSlotKeepTheirContexts)
{
    // 256 instructions apart, two PCs share a slot of the PC-hash
    // memo, and each still indexes level 2 with its own hash: after
    // the same context (5, 6) one sees 7 and the other 8, and both
    // are predicted once every context has been seen.
    FcmPredictor p(FcmConfig{0, 2});
    const uint64_t pcs[2] = {pcA, pcA + 256 * 4};
    const int64_t tail[2] = {7, 8};
    unsigned correct = 0;
    for (int i = 0; i < 60; ++i) {
        for (int k = 0; k < 2; ++k) {
            const int64_t v = i % 3 == 2 ? tail[k] : 5 + i % 3;
            int64_t guess = 0;
            if (p.predict(pcs[k], guess) && guess == v && i >= 6)
                ++correct;
            p.update(pcs[k], v);
        }
    }
    EXPECT_EQ(correct, 2u * 54);
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

/** The saturating-counter policy, written out arithmetically. */
unsigned
modelStep(const ConfidenceConfig &c, unsigned count, bool correct)
{
    const unsigned max = (1u << c.bits) - 1;
    if (correct)
        return count + c.upStep > max ? max : count + c.upStep;
    return count < c.downStep ? 0 : count - c.downStep;
}

/** Policies beyond the paper's: every width, other steps and
 * thresholds, limited tables. */
std::vector<ConfidenceConfig>
confidencePolicies()
{
    std::vector<ConfidenceConfig> out;
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const unsigned max = (1u << bits) - 1;
        out.push_back({bits, 1, 1, max, 0});
        out.push_back({bits, max, max, 0, 0});
        out.push_back({bits, 3, 2, max / 2 + 1, 64});
        out.push_back({bits, 1000, 7, max, 0});
    }
    out.push_back(ConfidenceConfig());
    out.push_back({3, 2, 1, 4, 64});
    return out;
}

TEST(Confidence, MatchesSaturatingCounterModel)
{
    for (const ConfidenceConfig &cfg : confidencePolicies()) {
        ConfidenceTable t(cfg);
        std::unordered_map<uint64_t, unsigned> model;
        Xorshift64Star rng(cfg.bits * 131 + cfg.upStep);
        for (int i = 0; i < 3000; ++i) {
            // Distinct PCs per limited-table entry, so no aliasing.
            const uint64_t pc = 0x400000 + 4 * rng.below(48);
            const bool correct = rng.below(3) != 0;
            unsigned &m = model[pc];
            ASSERT_EQ(t.level(pc), m) << "bits " << cfg.bits;
            ASSERT_EQ(t.confident(pc), m >= cfg.threshold);
            t.train(pc, correct);
            m = modelStep(cfg, m, correct);
        }
    }
}

TEST(ConfidenceDeath, CounterWidthOutsideOneToEightRejected)
{
    for (unsigned bits : {0u, 9u, 32u, 40u}) {
        ConfidenceConfig cfg;
        cfg.bits = bits;
        cfg.threshold = 0;
        EXPECT_DEATH(ConfidenceTable t(cfg), "outside \\[1, 8\\]")
            << bits;
    }
}

TEST(ConfidenceDeath, ThresholdAboveCounterMaximumRejected)
{
    ConfidenceConfig cfg;
    cfg.bits = 3;
    cfg.threshold = 8;
    EXPECT_DEATH(ConfidenceTable t(cfg), "exceeds the 3-bit");
}

// --------------------------------------------------------------- table

/**
 * Keys for the unlimited mode's two paths: both edges of the direct
 * window and the slots next to them, misaligned text-range PCs, PCs
 * below textBase, 0, ~0, and random 64-bit keys.
 */
std::vector<uint64_t>
windowEdgeKeys(Xorshift64Star &rng)
{
    using Table = PcIndexedTable<int64_t>;
    const uint64_t base = isa::textBase;
    const uint64_t end = base + isa::instBytes * Table::directSlots;
    std::vector<uint64_t> keys = {
        base,     base + 4, end - 4, end,   end + 4,
        base + 1, base + 2, base + 3, end - 1, end - 3,
        base - 4, base - 1, 4,       0,     ~uint64_t(0),
        ~uint64_t(0) - 3, uint64_t(1) << 63};
    for (int i = 0; i < 400; ++i) {
        switch (rng.below(4)) {
          case 0:
            keys.push_back(base + 4 * rng.below(Table::directSlots));
            break;
          case 1:
            keys.push_back(base + rng.below(4 * Table::directSlots));
            break;
          case 2:
            keys.push_back(rng.below(base));
            break;
          default:
            keys.push_back(rng.next());
        }
    }
    return keys;
}

/** @return how many of @p model's keys lie outside the direct
 * window, i.e. belong in an unlimited table's map. */
template <typename Map>
size_t
outsideWindow(const Map &model)
{
    size_t n = 0;
    for (const auto &kv : model) {
        const uint64_t off = kv.first - isa::textBase;
        n += off % isa::instBytes != 0 ||
             off / isa::instBytes >= PcIndexedTable<int>::directSlots;
    }
    return n;
}

TEST(Table, UnlimitedModeIsolatesPcs)
{
    PcIndexedTable<int> t(0);
    t.lookup(pcA) = 1;
    t.lookup(pcB) = 2;
    EXPECT_EQ(*t.probe(pcA), 1);
    EXPECT_EQ(*t.probe(pcB), 2);
}

TEST(Table, UnlimitedProbeMissingReturnsNull)
{
    PcIndexedTable<int> t(0);
    EXPECT_EQ(t.probe(0x1234), nullptr);
    // A probe inserts nothing, for the extreme pcs too.
    for (uint64_t pc : {uint64_t(0), ~uint64_t(0), uint64_t(0x40)})
        EXPECT_EQ(t.probe(pc), nullptr);
    t.lookup(0) = 5;
    EXPECT_EQ(t.probe(~uint64_t(0)), nullptr);
    EXPECT_EQ(t.probe(0x40), nullptr);
    ASSERT_NE(t.probe(0), nullptr);
    EXPECT_EQ(*t.probe(0), 5);
}

TEST(Table, UnlimitedModeMatchesMapModel)
{
    // Random inserts and probes against std::unordered_map, over a
    // key set with the extreme pcs, both edges of the direct window,
    // and enough distinct keys to force many rehashes of the map's
    // open-addressing slots and growths of the direct array.
    Xorshift64Star rng(17);
    PcIndexedTable<int64_t> t(0);
    std::unordered_map<uint64_t, int64_t> model;
    std::vector<uint64_t> keys = windowEdgeKeys(rng);
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
    // Exactly the PCs outside the window went to the map.
    EXPECT_EQ(t.mapEntries(), outsideWindow(model));
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
    // The same across growths of the direct array, which reaches
    // each new highest instruction slot.
    std::vector<uint64_t> slots;
    for (uint64_t slot = 1; slot < PcIndexedTable<int>::directSlots;
         slot = slot * 3 + 1)
        slots.push_back(slot);
    slots.push_back(PcIndexedTable<int>::directSlots - 1);
    std::vector<uint64_t *> direct;
    for (uint64_t slot : slots) {
        uint64_t &e = t.lookup(isa::indexToPc(static_cast<uint32_t>(slot)));
        e = slot;
        direct.push_back(&e);
    }
    EXPECT_EQ(&t.lookup(0x400000), &first);
    EXPECT_EQ(first, 42u);
    for (uint64_t i = 0; i < refs.size(); ++i) {
        EXPECT_EQ(refs[i], t.probe(0x500000 + 4 * i));
        EXPECT_EQ(*refs[i], i);
    }
    for (size_t i = 0; i < slots.size(); ++i) {
        const uint64_t pc =
            isa::indexToPc(static_cast<uint32_t>(slots[i]));
        EXPECT_EQ(direct[i], t.probe(pc));
        EXPECT_EQ(*direct[i], slots[i]);
    }
    EXPECT_EQ(t.mapEntries(), refs.size());
}

TEST(Table, LimitedModeAliases)
{
    // Tagless: two PCs with the same index share one entry, so a
    // write through one is read through the other.
    PcIndexedTable<int> t(4); // indices from (pc >> 2) & 3
    uint64_t pc1 = 0x400000;
    uint64_t pc2 = 0x400010; // same index mod 4
    t.lookup(pc1) = 7;
    EXPECT_EQ(&t.lookup(pc2), &t.lookup(pc1));
    EXPECT_EQ(t.lookup(pc2), 7);
    EXPECT_EQ(*t.probe(pc2), 7);
    t.lookup(pc2) = 9;
    EXPECT_EQ(*t.probe(pc1), 9);
}

TEST(Table, LimitedModeDistinctIndicesNoConflict)
{
    // Distinct indices keep separate entries.
    PcIndexedTable<int> t(4);
    const uint64_t pcs[] = {0x400000, 0x400004, 0x400008, 0x40000c};
    for (int i = 0; i < 4; ++i)
        t.lookup(pcs[i]) = 10 + i;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(*t.probe(pcs[i]), 10 + i) << i;
}

TEST(Table, LookupLanesMatchesLookupLoop)
{
    // Both modes: the same entries, in order, as one lookup() per
    // lane.
    Xorshift64Star rng(77);
    const std::vector<uint64_t> edges = windowEdgeKeys(rng);
    std::vector<uint64_t> pcs(3000);
    for (auto &pc : pcs) {
        switch (rng.below(3)) {
          case 0:
            pc = rng.next();
            break;
          case 1:
            pc = edges[rng.below(edges.size())];
            break;
          default:
            pc = 0x400000 + 4 * rng.below(700);
        }
    }
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
        EXPECT_EQ(a.mapEntries(), b.mapEntries()) << entries;
        for (size_t i = 0; i < pcs.size(); ++i) {
            ASSERT_EQ(lanes[i], a.probe(pcs[i])) << entries << " " << i;
            ASSERT_EQ(*lanes[i], *b.probe(pcs[i])) << entries << " " << i;
        }
    }
}

TEST(Table, KernelValueLanesTakeTheDirectPath)
{
    // Verify the traffic rather than assume it: every value lane of
    // the profile kernels resolves through the direct window, so the
    // map of an unlimited table stays empty.
    for (const char *name : {"mcf", "gzip", "parser", "gap"}) {
        workload::Workload w = workload::makeWorkload(name, 1);
        auto exec = w.makeExecutor();
        auto scratch = std::make_unique<workload::TraceChunk>();
        std::vector<uint64_t> pcs(workload::TraceChunk::capacity);
        std::vector<int64_t> values(workload::TraceChunk::capacity);
        std::vector<uint32_t> records(workload::TraceChunk::capacity);
        PcIndexedTable<uint8_t> t(0);
        std::vector<uint8_t *> lanes(workload::TraceChunk::capacity);
        uint64_t seen = 0, lanesSeen = 0;
        while (seen < 200'000) {
            const workload::TraceChunk *c = exec->fillRef(*scratch);
            ASSERT_NE(c, nullptr) << name;
            const uint32_t n = gatherValueLanes(
                *c, c->size, pcs.data(), values.data(), records.data());
            t.lookupLanes(pcs.data(), n, lanes.data());
            seen += c->size;
            lanesSeen += n;
        }
        EXPECT_GT(lanesSeen, 0u) << name;
        EXPECT_EQ(t.mapEntries(), 0u) << name;
    }
}

TEST(TableDeath, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(PcIndexedTable<int> t(1000), "power of two");
}

} // namespace
} // namespace predictors
} // namespace gdiff
