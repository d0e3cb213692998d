/**
 * @file
 * Trace-layer tests: the chunked TraceSource API (fill() vs the
 * legacy per-record next() must yield the identical stream for every
 * built-in kernel), the shared TraceCache (exactly-once generation
 * per triple — including under concurrent acquires — LRU eviction
 * under a byte cap), the cached-vs-uncached sweep determinism
 * contract, and the run-length validation on ProfileConfig/JobSpec.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/runner.hh"
#include "sim/profile.hh"
#include "util/varint.hh"
#include "workload/executor.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace workload {
namespace {

/** Field-by-field record equality (Instruction has no operator==). */
void
expectRecordEq(const TraceRecord &a, const TraceRecord &b,
               const std::string &what)
{
    ASSERT_EQ(a.seq, b.seq) << what;
    EXPECT_EQ(a.pc, b.pc) << what << " seq=" << a.seq;
    EXPECT_EQ(a.nextPc, b.nextPc) << what << " seq=" << a.seq;
    EXPECT_EQ(a.value, b.value) << what << " seq=" << a.seq;
    EXPECT_EQ(a.effAddr, b.effAddr) << what << " seq=" << a.seq;
    EXPECT_EQ(a.taken, b.taken) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.op, b.inst.op) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.rd, b.inst.rd) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.rs1, b.inst.rs1) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.rs2, b.inst.rs2) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.imm, b.inst.imm) << what << " seq=" << a.seq;
    EXPECT_EQ(a.inst.target, b.inst.target) << what << " seq=" << a.seq;
}

// --------------------------------------------------- chunk mechanics

TEST(TraceChunkTest, PushRecordRoundTripsAndDerivesFlags)
{
    Workload w = makeWorkload("micro.stride", 1);
    auto exec = w.makeExecutor();
    TraceChunk chunk;
    TraceRecord r;
    for (int i = 0; i < 100 && exec->next(r); ++i) {
        ASSERT_FALSE(chunk.full());
        chunk.push(r);
        uint32_t j = chunk.size - 1;
        expectRecordEq(chunk.record(j), r, "round-trip");
        EXPECT_EQ(chunk.producesValue(j), r.producesValue());
        EXPECT_EQ(chunk.isLoad(j), r.isLoad());
        EXPECT_EQ(chunk.isStore(j), r.isStore());
        EXPECT_EQ(chunk.isCondBranch(j), r.isCondBranch());
        EXPECT_EQ(chunk.isControl(j), r.isControl());
        EXPECT_EQ(chunk.taken(j), r.taken);
    }
    EXPECT_EQ(chunk.size, 100u);
}

/**
 * The core equivalence the whole refactor rests on: for every
 * built-in kernel, the chunked fill() stream is record-identical to
 * the legacy per-record next() stream. The budget spans a chunk
 * boundary so block stitching is exercised.
 */
TEST(TraceChunkTest, FillMatchesPerRecordNextForEveryKernel)
{
    constexpr uint64_t budget = TraceChunk::capacity + 1500;
    for (const auto &name : specWorkloadNames()) {
        auto chunked = makeWorkload(name, 3).makeExecutor();
        auto legacy = makeWorkload(name, 3).makeExecutor();

        auto chunk = std::make_unique<TraceChunk>();
        uint64_t seen = 0;
        while (seen < budget && chunked->fill(*chunk)) {
            for (uint32_t i = 0; i < chunk->size && seen < budget;
                 ++i, ++seen) {
                TraceRecord r;
                ASSERT_TRUE(legacy->next(r)) << name;
                expectRecordEq(chunk->record(i), r, name);
            }
        }
        EXPECT_EQ(seen, budget) << name;
    }
}

/** FNV-1a over every column of a stream, one record at a time. */
class StreamDigest
{
  public:
    void
    add(const TraceChunk &c, uint32_t i)
    {
        add(c.inst[i], c.seq[i], c.pc[i], c.nextPc[i], c.value[i],
            c.effAddr[i], c.flags[i]);
    }

    void
    add(const TraceRecord &r)
    {
        add(r.inst, r.seq, r.pc, r.nextPc, r.value, r.effAddr,
            TraceChunk::deriveFlags(r));
    }

    uint64_t value() const { return h; }

  private:
    void
    add(const isa::Instruction &inst, uint64_t seq, uint64_t pc,
        uint64_t nextPc, int64_t value, uint64_t effAddr, uint8_t flags)
    {
        fold(inst.op);
        fold(inst.rd);
        fold(inst.rs1);
        fold(inst.rs2);
        fold(inst.target);
        fold(inst.imm);
        fold(seq);
        fold(pc);
        fold(nextPc);
        fold(value);
        fold(effAddr);
        fold(flags);
    }

    template <class T>
    void
    fold(T v)
    {
        h = codec::fnv1a(&v, sizeof v, h);
    }

    uint64_t h = codec::fnvOffsetBasis;
};

/**
 * Pins the generated stream itself: the digest of every column of the
 * first 300k records of each kernel at seeds 1 and 7, as the executor
 * produced them before it wrote chunk columns directly. Each digest is
 * checked through Executor::fill, through Executor::next and through a
 * TraceCache replay of the generated trace, so the test fails if the
 * paths change together (FillMatchesPerRecordNextForEveryKernel would
 * not).
 */
TEST(TraceChunkTest, GeneratedStreamsMatchPinnedDigests)
{
    constexpr uint64_t records = 300'000;
    struct Pin
    {
        const char *kernel;
        uint64_t seed;
        uint64_t digest;
    };
    const Pin pins[] = {
        {"bzip2", 1, 0xd68714a0eca5ac6aull},
        {"bzip2", 7, 0xbdd0ba9aacac9f5cull},
        {"gap", 1, 0x360b9a9bae13c329ull},
        {"gap", 7, 0xf2629a92cd12c198ull},
        {"gcc", 1, 0x978289a19a4badb8ull},
        {"gcc", 7, 0x46a4e9cc8fe10946ull},
        {"gzip", 1, 0xd8f5fee1a39bdf3eull},
        {"gzip", 7, 0xefa538a7c702da72ull},
        {"mcf", 1, 0x3f7cde25739f1361ull},
        {"mcf", 7, 0x90715ddc6f629517ull},
        {"parser", 1, 0x4b971d149eaa10fcull},
        {"parser", 7, 0xd735a980507b4a07ull},
        {"perl", 1, 0x09334ba5a17a5262ull},
        {"perl", 7, 0xf6c5f9e11e9ee70eull},
        {"twolf", 1, 0xc716f0e41ec4324dull},
        {"twolf", 7, 0x74545120209e8f4aull},
        {"vortex", 1, 0x73690ae268dcb66bull},
        {"vortex", 7, 0x2a0af67ffa30a34eull},
        {"vpr", 1, 0x690af150af187c82ull},
        {"vpr", 7, 0xfcd63172f6849021ull},
    };
    ASSERT_EQ(std::size(pins), 2 * specWorkloadNames().size());
    auto chunk = std::make_unique<TraceChunk>();
    for (const Pin &p : pins) {
        const std::string what =
            std::string(p.kernel) + " seed " + std::to_string(p.seed);

        StreamDigest filled;
        uint64_t seen = 0;
        auto exec = makeWorkload(p.kernel, p.seed).makeExecutor();
        while (seen < records && exec->fill(*chunk))
            for (uint32_t i = 0; i < chunk->size && seen < records;
                 ++i, ++seen)
                filled.add(*chunk, i);
        ASSERT_EQ(seen, records) << what;

        StreamDigest stepped;
        auto single = makeWorkload(p.kernel, p.seed).makeExecutor();
        TraceRecord r;
        for (seen = 0; seen < records && single->next(r); ++seen)
            stepped.add(r);
        ASSERT_EQ(seen, records) << what;

        StreamDigest replayed;
        TraceCache cache;
        auto acq = cache.acquire(p.kernel, p.seed, records);
        ASSERT_TRUE(acq.generated) << what;
        seen = 0;
        while (const TraceChunk *c = acq.source->fillRef(*chunk))
            for (uint32_t i = 0; i < c->size; ++i, ++seen)
                replayed.add(*c, i);
        ASSERT_EQ(seen, records) << what;

        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(filled.value()));
        EXPECT_EQ(filled.value(), p.digest) << what << ": fill " << hex;
        EXPECT_EQ(stepped.value(), p.digest) << what << ": next";
        EXPECT_EQ(replayed.value(), p.digest) << what << ": replay";
    }
}

// ------------------------------------------------ materialized trace

TEST(MaterializedTraceTest, ReplayIsRecordIdenticalToRegeneration)
{
    constexpr uint64_t records = 10'000;
    auto trace = MaterializedTrace::generate("micro.pairsum", 7,
                                             records);
    ASSERT_EQ(trace->records(), records);
    EXPECT_EQ(trace->bytes(),
              trace->blockCount() * sizeof(TraceChunk));

    CachedTraceSource replay(trace);
    auto fresh = makeWorkload("micro.pairsum", 7).makeExecutor();
    TraceRecord a, b;
    for (uint64_t i = 0; i < records; ++i) {
        ASSERT_TRUE(replay.next(a)) << "replay ended early at " << i;
        ASSERT_TRUE(fresh->next(b));
        expectRecordEq(a, b, "replay-vs-fresh");
    }
    EXPECT_FALSE(replay.next(a)) << "replay must stop at the budget";
}

TEST(MaterializedTraceTest, RewindReplaysFromTheFirstRecord)
{
    auto trace = MaterializedTrace::generate("micro.stride", 1, 5000);
    CachedTraceSource replay(trace);
    TraceRecord first, r;
    ASSERT_TRUE(replay.next(first));
    while (replay.next(r)) {
    }
    replay.rewind();
    ASSERT_TRUE(replay.next(r));
    expectRecordEq(r, first, "rewind");
}

// ------------------------------------------------------- trace cache

TEST(TraceCacheTest, SecondAcquireIsAHit)
{
    TraceCache cache;
    auto a = cache.acquire("micro.stride", 1, 6000);
    EXPECT_TRUE(a.generated);
    EXPECT_GE(a.generateSeconds, 0.0);
    auto b = cache.acquire("micro.stride", 1, 6000);
    EXPECT_FALSE(b.generated);
    EXPECT_EQ(b.generateSeconds, 0.0);

    TraceCache::Stats s = cache.snapshot();
    EXPECT_EQ(s.generations, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u); // the cold acquire
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.residentBytes, 0u);

    // Distinct triples (different seed / budget) are distinct entries.
    cache.acquire("micro.stride", 2, 6000);
    cache.acquire("micro.stride", 1, 7000);
    EXPECT_EQ(cache.snapshot().generations, 3u);
    // Settled cache: every miss became exactly one generation.
    EXPECT_EQ(cache.snapshot().misses, cache.snapshot().generations);
}

TEST(TraceCacheTest, ConcurrentAcquiresGenerateExactlyOnce)
{
    TraceCache cache;
    constexpr int nThreads = 8;
    std::vector<std::thread> pool;
    std::vector<std::unique_ptr<TraceSource>> sources(nThreads);
    std::atomic<int> generatedCount{0};
    for (int t = 0; t < nThreads; ++t) {
        pool.emplace_back([&, t] {
            auto acq = cache.acquire("micro.periodic", 5, 9000);
            if (acq.generated)
                ++generatedCount;
            sources[t] = std::move(acq.source);
        });
    }
    for (auto &th : pool)
        th.join();

    EXPECT_EQ(generatedCount.load(), 1);
    EXPECT_EQ(cache.snapshot().generations, 1u);
    EXPECT_EQ(cache.snapshot().hits,
              static_cast<uint64_t>(nThreads - 1));

    // Every thread got a working, independent replay cursor.
    TraceRecord ref;
    ASSERT_TRUE(sources[0]->next(ref));
    for (int t = 1; t < nThreads; ++t) {
        TraceRecord r;
        ASSERT_TRUE(sources[t]->next(r)) << "thread " << t;
        expectRecordEq(r, ref, "concurrent replay");
    }
}

TEST(TraceCacheTest, LruEvictionHonoursByteCap)
{
    // Cap = one chunk: every one-chunk trace fills the cache, so each
    // new triple evicts the previous one (never the newest).
    TraceCache::Config cfg;
    cfg.maxBytes = sizeof(TraceChunk);
    TraceCache cache(cfg);

    cache.acquire("micro.stride", 1, 1000);
    cache.acquire("micro.stride", 2, 1000);
    EXPECT_EQ(cache.snapshot().evictions, 1u);
    EXPECT_EQ(cache.snapshot().entries, 1u);
    EXPECT_LE(cache.snapshot().residentBytes, sizeof(TraceChunk));

    // Seed 1 was evicted, so asking again regenerates.
    auto again = cache.acquire("micro.stride", 1, 1000);
    EXPECT_TRUE(again.generated);
    EXPECT_EQ(cache.snapshot().generations, 3u);

    // An evicted trace still replays through live sources: the
    // shared_ptr keeps the buffer alive past eviction.
    auto held = cache.acquire("micro.stride", 3, 1000);
    cache.acquire("micro.stride", 4, 1000); // evicts seed 3's entry
    TraceRecord r;
    EXPECT_TRUE(held.source->next(r));

    cache.clear();
    EXPECT_EQ(cache.snapshot().entries, 0u);
    EXPECT_EQ(cache.snapshot().residentBytes, 0u);
}

// --------------------------------------------- sweep-level contract

/** The 24-job grid from the runner tests: 6 (workload, seed) triples. */
runner::SweepSpec
smallGrid()
{
    runner::SweepSpec spec;
    spec.mode = runner::JobMode::Profile;
    spec.workloads = {"micro.stride", "micro.periodic",
                      "micro.pairsum"};
    spec.predictors = {"stride", "gdiff"};
    spec.orders = {4, 8};
    spec.seeds = {1, 2};
    spec.defaultInstructions = 12'000;
    spec.warmup = 1'000;
    return spec;
}

/** Run smallGrid() and return {job key → metrics}. */
std::map<std::string, std::vector<std::pair<std::string, double>>>
runSweep(unsigned threads, bool useCache)
{
    runner::SweepRunner sweep(smallGrid());
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.threads = threads;
    opt.useTraceCache = useCache;
    sweep.run(opt);
    std::map<std::string,
             std::vector<std::pair<std::string, double>>> out;
    for (const auto &r : collect.records())
        out[r.spec.key()] = r.result.metrics;
    return out;
}

TEST(TraceCacheSweepTest, SweepGeneratesOncePerTriple)
{
    TraceCache &cache = TraceCache::global();
    cache.clear();

    runner::SweepRunner sweep(smallGrid());
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.threads = 4;
    runner::SweepSummary s = sweep.run(opt);

    // 24 jobs share 6 (workload, seed, records) triples: exactly 6
    // materializations, whatever the completion interleaving.
    EXPECT_EQ(s.ranJobs, 24u);
    EXPECT_EQ(s.generatedTraces, 6u);
    EXPECT_EQ(s.replayedJobs, 18u);
    EXPECT_EQ(cache.snapshot().generations, 6u);
    size_t replayed = 0;
    for (const auto &r : collect.records())
        replayed += r.result.traceReplayed ? 1 : 0;
    EXPECT_EQ(replayed, 18u);
    cache.clear();
}

TEST(TraceCacheSweepTest, CachedMetricsBitIdenticalToUncached)
{
    TraceCache::global().clear();
    auto uncached = runSweep(1, false);
    ASSERT_EQ(uncached.size(), 24u);
    for (unsigned threads : {1u, 4u}) {
        TraceCache::global().clear();
        auto cached = runSweep(threads, true);
        // Exact double equality, key by key: replaying the shared
        // trace must not perturb a single bit of any metric.
        EXPECT_EQ(cached, uncached) << "threads=" << threads;
    }
    TraceCache::global().clear();
}

// -------------------------------------------- run-length validation

TEST(ValidationDeath, ProfileRejectsZeroInstructions)
{
    sim::ProfileConfig cfg;
    cfg.maxInstructions = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "run length is 0");
}

TEST(ValidationDeath, ProfileRejectsWarmupSwallowingTheBudget)
{
    sim::ProfileConfig cfg;
    cfg.maxInstructions = 1000;
    cfg.warmupInstructions = 1000;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "must be smaller than");
    cfg.warmupInstructions = 5000;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "must be smaller than");
}

TEST(ValidationDeath, JobSpecRejectsDegenerateRunLengths)
{
    runner::JobSpec zero;
    zero.instructions = 0;
    EXPECT_EXIT(zero.validate(), ::testing::ExitedWithCode(1),
                "instructions must be > 0");

    runner::JobSpec swallowed;
    swallowed.instructions = 500;
    swallowed.warmup = 500;
    EXPECT_EXIT(swallowed.validate(), ::testing::ExitedWithCode(1),
                "must be smaller than");
}

TEST(ValidationTest, SaneRunLengthsPass)
{
    sim::ProfileConfig cfg;
    cfg.maxInstructions = 1000;
    cfg.warmupInstructions = 999;
    cfg.validate(); // must not exit

    runner::JobSpec spec;
    spec.instructions = 1000;
    spec.warmup = 0;
    spec.validate(); // must not exit
}

} // namespace
} // namespace workload
} // namespace gdiff
