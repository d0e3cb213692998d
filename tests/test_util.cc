/**
 * @file
 * Unit tests for src/util: formatting, RNG, bit helpers, and the
 * ring history that backs the GVQ.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/bits.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/ring_history.hh"

namespace gdiff {
namespace {

// ------------------------------------------------------------ logging

TEST(Logging, FormatString)
{
    EXPECT_EQ(formatString("plain"), "plain");
    EXPECT_EQ(formatString("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(formatString("%s/%s", "a", "b"), "a/b");
}

TEST(Logging, QuietToggle)
{
    setQuietLogging(true);
    EXPECT_TRUE(quietLogging());
    setQuietLogging(false);
    EXPECT_FALSE(quietLogging());
}

TEST(Logging, AssertMacroPassesOnTrue)
{
    GDIFF_ASSERT(1 + 1 == 2, "must not fire");
    SUCCEED();
}

TEST(LoggingDeath, AssertMacroAborts)
{
    EXPECT_DEATH(GDIFF_ASSERT(false, "boom %d", 42), "boom 42");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("panic message %s", "x"), "panic message x");
}

// --------------------------------------------------------------- bits

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Bits, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bits, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(8), 0xffull);
    EXPECT_EQ(mask(64), ~uint64_t(0));
}

TEST(Bits, Mix64Distributes)
{
    // Consecutive keys must land in different low-bit buckets most of
    // the time (this is what keeps tagless tables from pathological
    // collisions with hashed indexing).
    std::set<uint64_t> buckets;
    for (uint64_t i = 0; i < 64; ++i)
        buckets.insert(mix64(i) & 0x3f);
    EXPECT_GE(buckets.size(), 32u);
}

TEST(Bits, FoldPreservesLowEntropy)
{
    // Folding must depend on high bits too.
    EXPECT_NE(foldBits(0x1234567800000000ull, 16),
              foldBits(0xabcdef0000000000ull, 16));
    // Folding to >= 64 bits is the identity.
    EXPECT_EQ(foldBits(42, 64), 42u);
}

// ---------------------------------------------------------------- rng

TEST(Random, Deterministic)
{
    Xorshift64Star a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, ZeroSeedRemapped)
{
    Xorshift64Star z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Random, BelowInRange)
{
    Xorshift64Star r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, InRangeInclusive)
{
    Xorshift64Star r(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 4000; ++i) {
        int64_t v = r.inRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ChancePercentExtremes)
{
    Xorshift64Star r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chancePercent(0));
        EXPECT_TRUE(r.chancePercent(100));
    }
}

TEST(Random, ChancePercentRoughlyCalibrated)
{
    Xorshift64Star r(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chancePercent(25);
    EXPECT_NEAR(hits, 2500, 200);
}

TEST(Random, ForkDecorrelates)
{
    Xorshift64Star a(23);
    Xorshift64Star b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_EQ(same, 0);
}

// ------------------------------------------------------- ring history

TEST(RingHistory, MostRecentFirst)
{
    RingHistory<int> h(4);
    h.push(1);
    h.push(2);
    h.push(3);
    EXPECT_EQ(h[0], 3);
    EXPECT_EQ(h[1], 2);
    EXPECT_EQ(h[2], 1);
    EXPECT_EQ(h.size(), 3u);
}

TEST(RingHistory, EvictsOldest)
{
    RingHistory<int> h(3);
    for (int i = 1; i <= 5; ++i)
        h.push(i);
    EXPECT_EQ(h.size(), 3u);
    EXPECT_EQ(h[0], 5);
    EXPECT_EQ(h[1], 4);
    EXPECT_EQ(h[2], 3);
}

TEST(RingHistory, OutOfRangeReadsDefault)
{
    RingHistory<int> h(4);
    h.push(9);
    EXPECT_EQ(h[1], 0);
    EXPECT_EQ(h[100], 0);
}

TEST(RingHistory, ReplaceInWindow)
{
    RingHistory<int> h(4);
    h.push(1);
    h.push(2);
    h.push(3);
    EXPECT_TRUE(h.replace(1, 20));
    EXPECT_EQ(h[1], 20);
    EXPECT_EQ(h[0], 3);
    EXPECT_FALSE(h.replace(5, 99));
}

TEST(RingHistory, TotalPushesMonotonic)
{
    RingHistory<int> h(2);
    EXPECT_EQ(h.totalPushes(), 0u);
    for (int i = 0; i < 7; ++i)
        h.push(i);
    EXPECT_EQ(h.totalPushes(), 7u);
    EXPECT_EQ(h.size(), 2u);
}

TEST(RingHistory, ClearEmptiesWindow)
{
    RingHistory<int> h(3);
    h.push(1);
    h.push(2);
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h[0], 0);
    h.push(5);
    EXPECT_EQ(h[0], 5);
}

// --------------------------------------------------------------- json
//
// Property/fuzz coverage for the reader that now sits on the snapshot
// and daemon read paths: escape→parse is the identity on arbitrary
// byte strings, the depth cap holds exactly, and truncated or mangled
// documents are rejected (never crash, never accept).

TEST(JsonProperty, EscapeParseRoundTripsArbitraryBytes)
{
    Xorshift64Star rng(0x1234);
    for (int trial = 0; trial < 200; ++trial) {
        std::string s;
        size_t len = rng.below(64);
        for (size_t i = 0; i < len; ++i)
            s.push_back(static_cast<char>(rng.below(256)));
        std::string doc = "\"" + json::escape(s) + "\"";
        json::Value v;
        std::string error;
        ASSERT_TRUE(json::parse(doc, v, &error))
            << error << " doc=" << doc;
        ASSERT_TRUE(v.isString());
        EXPECT_EQ(v.str, s);
    }
}

TEST(JsonProperty, EscapedKeysSurviveAnObjectRoundTrip)
{
    std::string key = "we\"ird\\key\n\t";
    std::string doc =
        "{\"" + json::escape(key) + "\": [1, 2.5, -3e2]}";
    json::Value v;
    ASSERT_TRUE(json::parse(doc, v));
    const json::Value *member = v.find(key);
    ASSERT_NE(member, nullptr);
    ASSERT_TRUE(member->isArray());
    ASSERT_EQ(member->array.size(), 3u);
    EXPECT_EQ(member->array[2].asNumber(), -300.0);
}

TEST(JsonProperty, DepthCapIsExact)
{
    auto nested = [](int depth) {
        std::string doc(depth, '[');
        doc += "1";
        doc.append(depth, ']');
        return doc;
    };
    json::Value v;
    // 64 nested arrays parse; 65 trip the cap.
    EXPECT_TRUE(json::parse(nested(64), v));
    std::string error;
    EXPECT_FALSE(json::parse(nested(65), v, &error));
    EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(JsonProperty, EveryTruncationOfAnObjectDocumentIsRejected)
{
    const std::string doc =
        "{\"a\": [1, 2.5e-3], \"b\": \"x\\ny\", \"c\": null, "
        "\"d\": true}";
    json::Value v;
    ASSERT_TRUE(json::parse(doc, v));
    for (size_t cut = 0; cut < doc.size(); ++cut)
        EXPECT_FALSE(json::parse(doc.substr(0, cut), v))
            << "prefix of length " << cut << " was accepted";
    // ...and trailing garbage after the complete document is too.
    EXPECT_FALSE(json::parse(doc + "x", v));
    EXPECT_FALSE(json::parse(doc + " {}", v));
}

TEST(JsonFuzz, RandomMutationsNeverCrashTheParser)
{
    const std::string seedDoc =
        "{\"format\":\"gdiff-snapshot\",\"version\":1,"
        "\"jobs\":[{\"ipc\":1.25,\"ok\":true},null]}";
    Xorshift64Star rng(99);
    json::Value v;
    size_t accepted = 0;
    for (int trial = 0; trial < 500; ++trial) {
        std::string doc = seedDoc;
        // 1-4 random byte edits: overwrite, delete, or insert.
        unsigned edits = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned e = 0; e < edits && !doc.empty(); ++e) {
            size_t pos = rng.below(doc.size());
            switch (rng.below(3)) {
            case 0:
                doc[pos] = static_cast<char>(rng.below(256));
                break;
            case 1:
                doc.erase(pos, 1);
                break;
            default:
                doc.insert(pos, 1,
                           static_cast<char>(rng.below(256)));
                break;
            }
        }
        if (json::parse(doc, v))
            ++accepted; // fine — some mutations stay valid JSON
    }
    // The parser survived all 500; most mutants must be rejected.
    EXPECT_LT(accepted, 250u);
}

TEST(JsonFuzz, RandomGarbageNeverCrashesTheParser)
{
    Xorshift64Star rng(7);
    json::Value v;
    for (int trial = 0; trial < 300; ++trial) {
        std::string doc;
        size_t len = rng.below(48);
        for (size_t i = 0; i < len; ++i)
            doc.push_back(static_cast<char>(rng.below(256)));
        std::string error;
        if (!json::parse(doc, v, &error)) {
            EXPECT_FALSE(error.empty());
        }
    }
}

} // namespace
} // namespace gdiff
