/**
 * @file
 * gdiff predictor tests, including the paper's worked example
 * (Figs. 6-7): instruction b's values are predicted from instruction
 * a's values two producers earlier with a constant difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "core/gdiff.hh"
#include "util/random.hh"
#include "util/simd.hh"

namespace gdiff {
namespace core {
namespace {

constexpr uint64_t pcA = 0x400000;
constexpr uint64_t pcB = 0x400010;
constexpr uint64_t pcX = 0x400020; // uncorrelated noise producers
constexpr uint64_t pcY = 0x400030;

GDiffConfig
unlimited(unsigned order = 8, unsigned delay = 0)
{
    GDiffConfig c;
    c.order = order;
    c.tableEntries = 0;
    c.valueDelay = delay;
    return c;
}

TEST(GDiff, PaperFig6Fig7Example)
{
    // Paper Fig. 6: a: load r1 ... b: add r3, r1, #4 in a loop with
    // two uncorrelated producers in between. a produces (1, 8, 3, 2),
    // b produces (5, 12, 7, 6). After two iterations the predictor
    // learns distance 2 / diff 4 and predicts b correctly from then
    // on (Fig. 7 walks the 7 = 3 + 4 case).
    GDiffPredictor p(unlimited());
    const int64_t a_vals[4] = {1, 8, 3, 2};
    const int64_t b_vals[4] = {5, 12, 7, 6};
    const int64_t x_vals[4] = {900, 17, -4, 333}; // no correlation
    const int64_t y_vals[4] = {-8, 5551, 2, 71};

    int64_t guess = 0;
    // Iteration 1: nothing known.
    p.update(pcA, a_vals[0]);
    p.update(pcX, x_vals[0]);
    p.update(pcY, y_vals[0]);
    EXPECT_FALSE(p.predict(pcB, guess));
    p.update(pcB, b_vals[0]);

    // Iteration 2: b's diffs recorded last time; now the match at
    // distance 2 (value 8 in the queue) selects the distance.
    p.update(pcA, a_vals[1]);
    p.update(pcX, x_vals[1]);
    p.update(pcY, y_vals[1]);
    p.update(pcB, b_vals[1]);

    // Iterations 3 and 4: predictions must be exact (3+4=7, 2+4=6).
    for (int i = 2; i < 4; ++i) {
        p.update(pcA, a_vals[i]);
        p.update(pcX, x_vals[i]);
        p.update(pcY, y_vals[i]);
        ASSERT_TRUE(p.predict(pcB, guess)) << "iteration " << i;
        EXPECT_EQ(guess, b_vals[i]) << "iteration " << i;
        p.update(pcB, b_vals[i]);
    }
}

TEST(GDiff, LearnsInTwoProductions)
{
    // The paper notes the learning time is two dynamic productions.
    GDiffPredictor p(unlimited());
    int64_t guess;

    p.update(pcA, 100);
    p.update(pcB, 107); // first production: records diffs
    EXPECT_FALSE(p.predict(pcB, guess));

    p.update(pcA, 200);
    p.update(pcB, 207); // second production: distance selected

    p.update(pcA, 300);
    ASSERT_TRUE(p.predict(pcB, guess));
    EXPECT_EQ(guess, 307);
}

TEST(GDiff, SpillFillDiffZero)
{
    // A reload equals a recent producer exactly (diff 0): the parser
    // Fig. 1/2 pattern.
    GDiffPredictor p(unlimited());
    int64_t guess;
    for (int i = 0; i < 6; ++i) {
        int64_t noisy = 1000 + 37 * i * i; // no local pattern needed
        p.update(pcA, noisy);
        p.update(pcX, -i);
        if (i >= 2) {
            ASSERT_TRUE(p.predict(pcB, guess));
            EXPECT_EQ(guess, noisy);
        }
        p.update(pcB, noisy); // the fill reload
    }
}

TEST(GDiff, CorrelationBeyondOrderIsInvisible)
{
    // Correlated value sits 5 producers back but the order is 4.
    GDiffPredictor p(unlimited(4));
    int64_t guess;
    unsigned correct = 0;
    for (int i = 0; i < 10; ++i) {
        p.update(pcA, 50 * i);
        for (int k = 0; k < 4; ++k)
            p.update(pcX + static_cast<uint64_t>(k) * 4,
                     1000000 + i * 7919 + k * 131);
        if (p.predict(pcB, guess) && guess == 50 * i + 3)
            ++correct;
        p.update(pcB, 50 * i + 3);
    }
    EXPECT_EQ(correct, 0u);
}

TEST(GDiff, ValueDelayHidesShortCorrelations)
{
    // Distance-1 correlation, delay 2: the correlated value is always
    // inside the hidden zone, so gdiff cannot use it.
    GDiffPredictor p(unlimited(8, 2));
    int64_t guess;
    unsigned correct = 0;
    for (int i = 0; i < 20; ++i) {
        p.update(pcA, 17 * i * i);
        if (p.predict(pcB, guess) && guess == 17 * i * i + 5)
            ++correct;
        p.update(pcB, 17 * i * i + 5);
    }
    EXPECT_LE(correct, 2u);
}

TEST(GDiff, ValueDelayShiftsLoopCarriedDistance)
{
    // Two producers per iteration with constant per-iteration strides.
    // At delay T the predictor sees ages T+1..T+8, which still contain
    // the previous iterations' values, so stride locality survives —
    // the mechanism behind the paper's Fig. 10 tail.
    GDiffPredictor p(unlimited(8, 4));
    int64_t guess;
    unsigned correct = 0;
    for (int i = 0; i < 30; ++i) {
        if (p.predict(pcA, guess) && guess == 10 * i)
            ++correct;
        p.update(pcA, 10 * i);
        p.update(pcB, 10 * i + 3);
    }
    EXPECT_GE(correct, 20u);
}

TEST(GDiff, DistanceRelearnsAfterPatternShift)
{
    GDiffPredictor p(unlimited());
    int64_t guess;
    // Phase 1: b = a + 1 at distance 1.
    for (int i = 0; i < 5; ++i) {
        p.update(pcA, 11 * i * i + 1);
        p.update(pcB, 11 * i * i + 2);
    }
    // Phase 2: b decouples from a and couples to y at distance 1.
    unsigned tail_correct = 0;
    for (int i = 0; i < 6; ++i) {
        p.update(pcA, -9999 + 7777 * i * i * i);
        p.update(pcY, 3 * i * i + 100);
        bool predicted = p.predict(pcB, guess);
        if (predicted && guess == 3 * i * i + 140)
            ++tail_correct;
        p.update(pcB, 3 * i * i + 140);
    }
    EXPECT_GE(tail_correct, 3u); // relearned within two productions
}

TEST(GDiff, TaglessTableAliasing)
{
    GDiffConfig cfg;
    cfg.order = 4;
    cfg.tableEntries = 4; // tiny: pcA and pcA+16 collide
    GDiffPredictor p(cfg);
    p.update(pcA, 1);
    p.update(pcA + 16, 2);
    EXPECT_GT(p.tableConflictRate(), 0.0);
}

TEST(GDiff, UnlimitedTableNeverConflicts)
{
    GDiffPredictor p(unlimited());
    for (uint64_t i = 0; i < 100; ++i)
        p.update(pcA + i * 4, static_cast<int64_t>(i));
    EXPECT_DOUBLE_EQ(p.tableConflictRate(), 0.0);
}

TEST(GDiff, ExternalWindowInterface)
{
    GDiffPredictor p(unlimited(4));
    const int64_t hist[] = {30, 50}; // oldest first: w[0] = 50
    ValueWindow w{hist + 1, 2};

    // Train twice with the correlated value at window position 1.
    p.trainWithWindow(pcB, w, 37); // diffs recorded
    p.trainWithWindow(pcB, w, 37); // match -> distance selected

    int64_t guess = 0;
    ASSERT_TRUE(p.predictWithWindow(pcB, w, guess));
    EXPECT_EQ(guess, 37); // window[0] + stored diff

    // A shorter window than the learned distance suppresses the
    // prediction rather than reading garbage.
    ValueWindow short_w;
    short_w.count = 0;
    EXPECT_FALSE(p.predictWithWindow(pcB, short_w, guess));
}

TEST(GDiff, PrefersClosestMatchingDistance)
{
    // Identical values at distances 0 and 3: the selected distance
    // must be 0 (nearest-first priority).
    GDiffPredictor p(unlimited(4));
    const int64_t hist[] = {10, 888, 777, 10}; // w[0] = 10, w[3] = 10
    ValueWindow w{hist + 3, 4};
    p.trainWithWindow(pcB, w, 15);
    p.trainWithWindow(pcB, w, 15);
    int64_t guess = 0;
    ASSERT_TRUE(p.predictWithWindow(pcB, w, guess));
    EXPECT_EQ(guess, 15);

    // Move only the distant copy: prediction must follow position 0.
    const int64_t hist2[] = {-555, 888, 777, 10}; // w2[3] = -555
    ValueWindow w2{hist2 + 3, 4};
    ASSERT_TRUE(p.predictWithWindow(pcB, w2, guess));
    EXPECT_EQ(guess, 15);
}

TEST(GDiff, WrapsAroundOnOverflow)
{
    GDiffPredictor p(unlimited(2));
    int64_t big = std::numeric_limits<int64_t>::max() - 1;
    p.update(pcA, big);
    p.update(pcB, big + 0); // diff 0 path, no UB
    p.update(pcA, big);
    p.update(pcB, big);
    int64_t guess;
    p.update(pcA, big);
    ASSERT_TRUE(p.predict(pcB, guess));
    EXPECT_EQ(guess, big);
}

TEST(GDiff, BatchMatchesScalarAcrossShapes)
{
    // The batch sweep (oldest-first stream, tiles of 64 lanes) against
    // predict()/update() for orders around the 4-wide
    // kernel step, value delays, both table modes, chunk sizes that
    // split tiles and the queue's warm-up, and both kernel sets.
    Xorshift64Star rng(5);
    std::vector<uint64_t> pcs(3000);
    std::vector<int64_t> vals(pcs.size());
    int64_t counters[24] = {};
    for (size_t i = 0; i < pcs.size(); ++i) {
        unsigned k = static_cast<unsigned>(rng.below(24));
        pcs[i] = 0x400000 + 4 * k;
        counters[k] += k;
        vals[i] = k < 16 ? counters[k]
                         : static_cast<int64_t>(rng.next() >> 60);
    }
    std::vector<simd::Mode> modes = {simd::Mode::Scalar};
    if (simd::cpuSupportsAvx2())
        modes.push_back(simd::Mode::Avx2);
    for (simd::Mode mode : modes) {
        simd::setModeForTest(mode);
        for (unsigned order : {1u, 3u, 4u, 5u, 8u, 13u, 64u}) {
            for (unsigned delay : {0u, 2u, 9u}) {
                for (size_t entries : {size_t(0), size_t(8)}) {
                    for (uint32_t chunk : {1u, 7u, 64u, 65u, 4096u}) {
                        GDiffConfig cfg;
                        cfg.order = order;
                        cfg.valueDelay = delay;
                        cfg.tableEntries = entries;
                        GDiffPredictor s(cfg), b(cfg);
                        predictors::PredictionBatch out;
                        for (size_t base = 0; base < pcs.size();
                             base += chunk) {
                            const uint32_t n = static_cast<uint32_t>(
                                std::min<size_t>(chunk,
                                                 pcs.size() - base));
                            b.predictUpdateBatch(pcs.data() + base,
                                                 vals.data() + base, n,
                                                 out);
                            for (uint32_t l = 0; l < n; ++l) {
                                int64_t v = 0;
                                const bool p = s.predict(pcs[base + l], v);
                                ASSERT_EQ(p, out.predicted[l] != 0)
                                    << "order " << order << " delay "
                                    << delay << " entries " << entries
                                    << " chunk " << chunk << " rec "
                                    << base + l;
                                if (p) {
                                    ASSERT_EQ(v, out.value[l]);
                                }
                                s.update(pcs[base + l], vals[base + l]);
                            }
                        }
                        EXPECT_EQ(s.tableConflictRate(),
                                  b.tableConflictRate());
                    }
                }
            }
        }
    }
    simd::setModeForTest(simd::cpuSupportsAvx2() ? simd::Mode::Avx2
                                                 : simd::Mode::Scalar);
}

/** One record's prediction: predicted, and the value if so. */
struct Outcome
{
    bool predicted = false;
    int64_t value = 0;

    bool
    operator==(const Outcome &o) const
    {
        return predicted == o.predicted && (!predicted || value == o.value);
    }
};

/**
 * Run the stream (pcs[i], vals[i]) through a fresh predictor, by
 * predictUpdateBatch() in chunks of 7 lanes when @p batch is set,
 * else by predictWithWindow()/trainWithWindow(). The external-window
 * path hands the predictor the delay-shifted window into the stream
 * itself, position k at newest[-k], as the pipeline's queues do; an
 * empty window points nowhere.
 */
std::vector<Outcome>
drive(const GDiffConfig &cfg, bool batch, const std::vector<uint64_t> &pcs,
      const std::vector<int64_t> &vals)
{
    GDiffPredictor p(cfg);
    std::vector<Outcome> out(pcs.size());
    if (batch) {
        constexpr size_t chunk = 7;
        predictors::PredictionBatch lanes;
        for (size_t base = 0; base < pcs.size(); base += chunk) {
            const uint32_t n = static_cast<uint32_t>(
                std::min(chunk, pcs.size() - base));
            p.predictUpdateBatch(pcs.data() + base, vals.data() + base, n,
                                 lanes);
            for (uint32_t l = 0; l < n; ++l)
                out[base + l] = {lanes.predicted[l] != 0, lanes.value[l]};
        }
        return out;
    }
    for (size_t i = 0; i < pcs.size(); ++i) {
        // Values 0 .. top are visible (top < 0: none yet).
        const int64_t top = static_cast<int64_t>(i) - 1 -
                            static_cast<int64_t>(cfg.valueDelay);
        ValueWindow w;
        if (top >= 0) {
            w.newest = vals.data() + top;
            w.count = static_cast<unsigned>(
                std::min<int64_t>(top + 1, cfg.order));
        }
        out[i].predicted = p.predictWithWindow(pcs[i], w, out[i].value);
        p.trainWithWindow(pcs[i], w, vals[i]);
    }
    return out;
}

/**
 * Every record of one path against check::RefGDiff on a fuzzed stream
 * (constant, stride, periodic and follower sites, values at the int64
 * edges), for orders around the 4-wide kernel step and value delays,
 * under every kernel set this host runs. The batch and the
 * external-window path share gdiff's predict and train steps, so
 * they cannot check each other; the oracle checks each.
 */
void
expectPathMatchesOracle(bool batch)
{
    check::FuzzStreamConfig fc;
    fc.seed = 17;
    fc.records = 3000;
    std::vector<uint64_t> pcs;
    std::vector<int64_t> vals;
    for (const auto &r : check::fuzzValueStream(fc)) {
        pcs.push_back(r.pc);
        vals.push_back(r.value);
    }
    const char *path = batch ? "batch" : "external-window";
    std::vector<simd::Mode> modes = {simd::Mode::Scalar};
    if (simd::cpuSupportsAvx2())
        modes.push_back(simd::Mode::Avx2);
    for (simd::Mode mode : modes) {
        simd::setModeForTest(mode);
        for (unsigned order : {1u, 3u, 4u, 5u, 8u, 13u, 64u}) {
            for (unsigned delay : {0u, 3u}) {
                check::RefGDiff ref(order, delay);
                const auto got =
                    drive(unlimited(order, delay), batch, pcs, vals);
                for (size_t i = 0; i < pcs.size(); ++i) {
                    Outcome want;
                    want.predicted = ref.predict(pcs[i], want.value);
                    ref.update(pcs[i], vals[i]);
                    ASSERT_TRUE(got[i] == want)
                        << path << " order " << order << " delay "
                        << delay << " record " << i << ": predicted "
                        << got[i].predicted << " (" << got[i].value
                        << "), oracle " << want.predicted << " ("
                        << want.value << ")";
                }
            }
        }
    }
    simd::setModeForTest(simd::cpuSupportsAvx2() ? simd::Mode::Avx2
                                                 : simd::Mode::Scalar);
}

TEST(GDiff, ExternalWindowPathMatchesOracle)
{
    expectPathMatchesOracle(false);
}

TEST(GDiff, BatchPathMatchesOracle)
{
    expectPathMatchesOracle(true);
}

} // namespace
} // namespace core
} // namespace gdiff
