/**
 * @file
 * Two-term gdiff tests: the Eq.-1 extension must capture
 * difference-of-two-values patterns (paper Fig. 3's "sub r, ra, rd")
 * that neither local predictors nor single-term gdiff can see, while
 * remaining a strict superset of single-term gdiff.
 */

#include <gtest/gtest.h>

#include "core/gdiff.hh"
#include "core/gdiff2.hh"

namespace gdiff {
namespace core {
namespace {

constexpr uint64_t pcA = 0x400000;
constexpr uint64_t pcB = 0x400010;
constexpr uint64_t pcC = 0x400020;

GDiff2Config
unlimited(unsigned order = 8)
{
    GDiff2Config c;
    c.order = order;
    c.tableEntries = 0;
    return c;
}

/** Noisy-but-related streams: a and b are individually random, but
 * c == a + b + 7 every iteration. */
template <typename P>
unsigned
pairAddScore(P &p, int iterations)
{
    unsigned correct = 0;
    uint64_t x = 99;
    for (int i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        int64_t a = static_cast<int64_t>(x >> 16);
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        int64_t b = static_cast<int64_t>(x >> 16);
        p.update(pcA, a);
        p.update(pcB, b);
        int64_t guess;
        if (p.predict(pcC, guess) && guess == a + b + 7)
            ++correct;
        p.update(pcC, a + b + 7);
    }
    return correct;
}

TEST(GDiff2, CapturesSumOfTwoRecentValues)
{
    GDiff2Predictor p2(unlimited());
    EXPECT_GE(pairAddScore(p2, 50), 45u);

    GDiffConfig c1;
    c1.order = 8;
    c1.tableEntries = 0;
    GDiffPredictor p1(c1);
    EXPECT_LE(pairAddScore(p1, 50), 5u);
}

TEST(GDiff2, CapturesDifferenceOfTwoRecentValues)
{
    // c == a - b - 3: the Fig. 3 "sub" pattern.
    GDiff2Predictor p(unlimited());
    unsigned correct = 0;
    uint64_t x = 7;
    for (int i = 0; i < 50; ++i) {
        x = x * 6364136223846793005ull + 1;
        int64_t a = static_cast<int64_t>(x >> 20);
        x = x * 6364136223846793005ull + 1;
        int64_t b = static_cast<int64_t>(x >> 20);
        p.update(pcA, a);
        p.update(pcB, b);
        int64_t guess;
        if (p.predict(pcC, guess) && guess == a - b - 3)
            ++correct;
        p.update(pcC, a - b - 3);
    }
    EXPECT_GE(correct, 45u);
    EXPECT_GT(p.pairSelectionRate(), 0.5);
}

TEST(GDiff2, SubsumesSingleTermGDiff)
{
    // The paper's Fig. 6 example must still work, selected as a
    // single-term form.
    GDiff2Predictor p(unlimited());
    int64_t guess;
    for (int i = 0; i < 8; ++i) {
        p.update(pcA, 1000 + 37 * i * i);
        if (i >= 2) {
            ASSERT_TRUE(p.predict(pcB, guess));
            EXPECT_EQ(guess, 1000 + 37 * i * i + 4);
        }
        p.update(pcB, 1000 + 37 * i * i + 4);
    }
    EXPECT_DOUBLE_EQ(p.pairSelectionRate(), 0.0);
}

TEST(GDiff2, SinglePreferredOverAccidentalPairs)
{
    // Constant-difference single-term stream where many pair
    // residuals also repeat: the cheaper single form must win.
    GDiff2Predictor p(unlimited(4));
    for (int i = 0; i < 10; ++i) {
        p.update(pcA, 10 * i);
        p.update(pcB, 10 * i + 3);
    }
    int64_t guess;
    p.update(pcA, 200);
    ASSERT_TRUE(p.predict(pcB, guess));
    EXPECT_EQ(guess, 203);
}

TEST(GDiff2, NoPredictionBeforeLearning)
{
    GDiff2Predictor p(unlimited());
    int64_t guess;
    EXPECT_FALSE(p.predict(pcA, guess));
    p.update(pcA, 5);
    EXPECT_FALSE(p.predict(pcA, guess));
}

TEST(GDiff2, ShortWindowSuppressesPrediction)
{
    GDiff2Predictor p(unlimited(8));
    // Two trainings where only the (1,3) sum relation repeats: every
    // single residual changes, so the selected form must be PairAdd.
    const int64_t h1[] = {400, 300, 200, 100}; // oldest first
    ValueWindow w1{h1 + 3, 4};                 // w1[0] = 100
    p.trainWithWindow(pcA, w1, 700); // w[1] + w[3] + 100

    const int64_t h2[] = {420, 333, 310, 151};
    ValueWindow w2{h2 + 3, 4};
    p.trainWithWindow(pcA, w2, 830); // w[1] + w[3] + 100 again

    int64_t guess;
    ASSERT_TRUE(p.predictWithWindow(pcA, w2, guess));
    EXPECT_EQ(guess, 830);

    // A window shorter than the learned pair suppresses prediction.
    const int64_t h3[] = {100};
    ValueWindow short_w{h3, 1};
    EXPECT_FALSE(p.predictWithWindow(pcA, short_w, guess));
}

TEST(GDiff2Death, OrderBounds)
{
    GDiff2Config c;
    c.order = 1;
    EXPECT_DEATH(GDiff2Predictor p(c), "order");
    c.order = 32;
    EXPECT_DEATH(GDiff2Predictor p2(c), "order");
}

} // namespace
} // namespace core
} // namespace gdiff
