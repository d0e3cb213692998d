/**
 * @file
 * Tests for the observability layer (src/obs): scoped-timer
 * accounting and nesting, thread-local registry merging, the
 * disabled-mode no-op guarantee, and the Chrome trace-event exporter's
 * JSON.
 *
 * Obs state is process-global, so every test starts from
 * obs::reset() and leaves collection disabled on exit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/obs.hh"
#include "obs/trace_export.hh"
#include "util/json.hh"
#include "workload/trace_cache.hh"

using namespace gdiff;

namespace {

/**
 * Global operator-new hook: counts every allocation so tests can
 * assert a code region allocates nothing. Counting is always on (the
 * counter is a relaxed atomic; the overhead is irrelevant to tests).
 */
std::atomic<uint64_t> gAllocations{0};

} // namespace

// GCC flags free() on new-ed pointers here, but these replacements
// pair with each other: everything new returns came from malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::reset();
        obs::setEnabled(true);
    }

    void
    TearDown() override
    {
        obs::setEnabled(false);
        obs::reset();
    }
};

void
spinNanos(uint64_t ns)
{
    uint64_t t0 = obs::nowNs();
    while (obs::nowNs() - t0 < ns) {
    }
}

TEST_F(ObsTest, ScopedTimerAccumulates)
{
    {
        obs::ScopedTimer t("unit.outer");
        spinNanos(200'000);
    }
    {
        obs::ScopedTimer t("unit.outer");
        spinNanos(200'000);
    }
    obs::Snapshot snap = obs::snapshot();
    ASSERT_EQ(snap.timers.count("unit.outer"), 1u);
    const obs::TimerStat &s = snap.timers.at("unit.outer");
    EXPECT_EQ(s.calls, 2u);
    EXPECT_GE(s.totalNs, 400'000u);
}

TEST_F(ObsTest, NestedTimersAttributeToBothScopes)
{
    {
        obs::ScopedTimer outer("unit.outer");
        spinNanos(100'000);
        {
            obs::ScopedTimer inner("unit.inner");
            spinNanos(100'000);
        }
    }
    obs::Snapshot snap = obs::snapshot();
    const obs::TimerStat &outer = snap.timers.at("unit.outer");
    const obs::TimerStat &inner = snap.timers.at("unit.inner");
    // Wall-clock scopes: the outer scope contains the inner one.
    EXPECT_GE(outer.totalNs, inner.totalNs + 100'000u);
    EXPECT_GE(inner.totalNs, 100'000u);
}

TEST_F(ObsTest, MacroRespectsRuntimeGate)
{
    {
        GDIFF_OBS_SCOPE("unit.gated");
        GDIFF_OBS_COUNT("unit.gated_count", 3);
    }
    obs::setEnabled(false);
    {
        GDIFF_OBS_SCOPE("unit.gated");
        GDIFF_OBS_COUNT("unit.gated_count", 3);
    }
    obs::setEnabled(true);
    obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.timers.at("unit.gated").calls, 1u);
    EXPECT_EQ(snap.counters.at("unit.gated_count"), 3u);
}

TEST_F(ObsTest, RegistriesMergeAcrossThreads)
{
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kPerThread = 1000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([] {
            obs::Registry &reg = obs::Registry::local();
            std::atomic<uint64_t> *c = reg.counter("unit.merged");
            for (uint64_t i = 0; i < kPerThread; ++i)
                c->fetch_add(1, std::memory_order_relaxed);
            reg.addTimer("unit.thread_timer", 1000, 1);
            reg.histogram("unit.hist")->record(reg.tid() % 8);
            reg.addSpan("unit.span", obs::nowNs(), 10);
        });
    }
    for (auto &th : pool)
        th.join();

    // The workers are dead; their registries must still be visible.
    obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counters.at("unit.merged"), kThreads * kPerThread);
    EXPECT_EQ(snap.timers.at("unit.thread_timer").calls, kThreads);
    EXPECT_EQ(snap.timers.at("unit.thread_timer").totalNs,
              kThreads * 1000u);
    EXPECT_EQ(snap.histograms.at("unit.hist").samples(), kThreads);

    // One span per worker, each on its own thread id.
    std::map<uint32_t, int> perTid;
    for (const auto &ev : snap.spans)
        if (ev.name == "unit.span")
            ++perTid[ev.tid];
    EXPECT_EQ(perTid.size(), kThreads);
    for (const auto &[tid, count] : perTid) {
        (void)tid;
        EXPECT_EQ(count, 1);
    }
}

TEST_F(ObsTest, CounterAddressesAreStable)
{
    obs::Registry &reg = obs::Registry::local();
    std::atomic<uint64_t> *a = reg.counter("unit.addr_a");
    // Creating many more counters must not move the first one
    // (node-based storage), so hot sites may cache the pointer.
    for (int i = 0; i < 100; ++i)
        reg.counter("unit.addr_fill_" + std::to_string(i));
    EXPECT_EQ(reg.counter("unit.addr_a"), a);
    a->fetch_add(7, std::memory_order_relaxed);
    EXPECT_EQ(obs::snapshot().counters.at("unit.addr_a"), 7u);
}

TEST_F(ObsTest, DisabledModeIsANoOp)
{
    // Seed one counter while enabled so the snapshot has a baseline,
    // and warm up the calling thread's registry.
    GDIFF_OBS_COUNT("unit.noop", 1);
    obs::Registry &reg = obs::Registry::local();
    std::atomic<uint64_t> *addr = reg.counter("unit.noop");
    obs::Snapshot before = obs::snapshot();

    obs::setEnabled(false);
    uint64_t allocs0 = gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        GDIFF_OBS_SCOPE("unit.noop_scope");
        GDIFF_OBS_SPAN("unit.noop_span");
        GDIFF_OBS_COUNT("unit.noop", 1);
        GDIFF_OBS_COUNT("unit.noop_new_counter", 1);
    }
    uint64_t allocs1 = gAllocations.load(std::memory_order_relaxed);
    obs::setEnabled(true);

    // Zero allocations across 1000 disabled call sites...
    EXPECT_EQ(allocs1 - allocs0, 0u);
    // ...no registry mutations of any kind...
    obs::Snapshot after = obs::snapshot();
    EXPECT_EQ(after.counters, before.counters);
    EXPECT_EQ(after.counters.count("unit.noop_new_counter"), 0u);
    EXPECT_EQ(after.timers.size(), before.timers.size());
    EXPECT_EQ(after.spans.size(), before.spans.size());
    // ...and existing counter addresses unchanged.
    EXPECT_EQ(reg.counter("unit.noop"), addr);
}

TEST_F(ObsTest, ResetPreservesCounterAddresses)
{
    obs::Registry &reg = obs::Registry::local();
    std::atomic<uint64_t> *addr = reg.counter("unit.reset_me");
    addr->fetch_add(5, std::memory_order_relaxed);
    obs::reset();
    // A cached pointer survives reset and starts again from zero.
    EXPECT_EQ(reg.counter("unit.reset_me"), addr);
    EXPECT_EQ(addr->load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(obs::snapshot().counters.at("unit.reset_me"), 0u);
}

// ------------------------------------------------ trace exporter

TEST_F(ObsTest, ChromeTraceIsWellFormedJson)
{
    obs::Registry &reg = obs::Registry::local();
    reg.addSpan("alpha", 1000, 500, {{"key", "va\"lue"}});
    reg.addSpan("beta", 2000, 250);
    GDIFF_OBS_COUNT("unit.trace_counter", 42);

    std::ostringstream os;
    obs::writeChromeTrace(os, obs::snapshot());

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;
    const json::Value &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    size_t spans = 0, metas = 0, instants = 0;
    for (const auto &ev : events.array) {
        const std::string &ph = ev.at("ph").asString();
        EXPECT_TRUE(ev.find("name") != nullptr);
        EXPECT_TRUE(ev.find("pid") != nullptr);
        EXPECT_TRUE(ev.find("tid") != nullptr);
        if (ph == "X") {
            ++spans;
            EXPECT_GE(ev.at("dur").asNumber(), 0.0);
            EXPECT_GE(ev.at("ts").asNumber(), 0.0);
        } else if (ph == "M") {
            ++metas;
        } else if (ph == "i") {
            ++instants;
        } else {
            ADD_FAILURE() << "unexpected event phase '" << ph << "'";
        }
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_GE(metas, 1u); // at least this thread's name
    EXPECT_EQ(instants, 1u); // the counter totals

    // The escaped arg value must round-trip through the parser.
    bool sawAlpha = false;
    for (const auto &ev : events.array) {
        if (ev.at("name").asString() != "alpha")
            continue;
        sawAlpha = true;
        EXPECT_EQ(ev.at("args").at("key").asString(), "va\"lue");
    }
    EXPECT_TRUE(sawAlpha);
}

TEST_F(ObsTest, ChromeTraceTimestampsMonotonicPerThread)
{
    constexpr unsigned kThreads = 3;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([] {
            for (int i = 0; i < 20; ++i) {
                obs::ScopedTimer span("unit.mono", /*withSpan=*/true);
                spinNanos(2'000);
            }
        });
    }
    for (auto &th : pool)
        th.join();

    std::ostringstream os;
    obs::writeChromeTrace(os, obs::snapshot());
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;

    std::map<double, std::vector<double>> byTid;
    for (const auto &ev : root.at("traceEvents").array)
        if (ev.at("ph").asString() == "X")
            byTid[ev.at("tid").asNumber()].push_back(
                ev.at("ts").asNumber());
    ASSERT_EQ(byTid.size(), kThreads);
    for (const auto &[tid, stamps] : byTid) {
        (void)tid;
        EXPECT_EQ(stamps.size(), 20u);
        for (size_t i = 1; i < stamps.size(); ++i)
            EXPECT_GT(stamps[i], stamps[i - 1])
                << "non-monotonic ts at index " << i;
    }
}

TEST_F(ObsTest, WriteChromeTraceReportsBadPath)
{
    EXPECT_FALSE(obs::writeChromeTrace(
        "/nonexistent-dir/trace.json", obs::snapshot()));
}

TEST_F(ObsTest, PrintSummaryShowsStagesAndCounters)
{
    obs::Registry &reg = obs::Registry::local();
    reg.addTimer("unit.stage", 1'500'000, 3);
    reg.addCount("unit.events", 9);
    reg.histogram("unit.lat")->record(5);

    std::ostringstream os;
    obs::printSummary(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("obs stage summary"), std::string::npos);
    EXPECT_NE(text.find("unit.stage"), std::string::npos);
    EXPECT_NE(text.find("obs counters"), std::string::npos);
    EXPECT_NE(text.find("unit.events"), std::string::npos);
    EXPECT_NE(text.find("obs histograms"), std::string::npos);
    EXPECT_NE(text.find("unit.lat"), std::string::npos);
}

TEST_F(ObsTest, ColdDiskStoreTimesTheEncodeLayer)
{
    // A cold disk-tier acquire streams the executor's chunks through a
    // v3 writer: trace.generate counts the fills, and trace_io.encode
    // the encode and write between them, one sample per writer.
    const std::string root = ::testing::TempDir() + "/gdiff_obs_encode_" +
                             std::to_string(::getpid());
    std::filesystem::remove_all(root);
    const uint64_t records = 3 * workload::TraceChunk::capacity + 100;
    {
        workload::TraceCache cache;
        cache.setDiskRoot(root);
        for (const char *kernel : {"micro.stride", "micro.affine"})
            EXPECT_TRUE(cache.acquire(kernel, 1, records).generated);
    }
    obs::Snapshot snap = obs::snapshot();
    ASSERT_EQ(snap.timers.count("trace_io.encode"), 1u);
    EXPECT_EQ(snap.timers["trace_io.encode"].calls, 2u);
    EXPECT_GT(snap.timers["trace_io.encode"].totalNs, 0u);
    EXPECT_EQ(snap.timers["trace.generate"].calls, 2u);
    size_t spans = 0;
    for (const obs::SpanEvent &e : snap.spans) {
        if (e.name != "trace_io.encode")
            continue;
        ++spans;
        EXPECT_GT(e.durNs, 0u);
        ASSERT_FALSE(e.args.empty());
        EXPECT_EQ(e.args[0].first, "records");
        EXPECT_EQ(e.args[0].second, std::to_string(records));
    }
    EXPECT_EQ(spans, 2u);

    // With obs off, another cold store records nothing.
    obs::setEnabled(false);
    obs::reset();
    {
        workload::TraceCache cache;
        cache.setDiskRoot(root);
        EXPECT_TRUE(cache.acquire("micro.periodic", 1, records).generated);
    }
    snap = obs::snapshot();
    EXPECT_EQ(snap.timers.count("trace_io.encode"), 0u);
    EXPECT_TRUE(snap.spans.empty());
    std::filesystem::remove_all(root);
}

} // namespace
