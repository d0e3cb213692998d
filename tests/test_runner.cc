/**
 * @file
 * Sweep-runner tests: grid parsing/expansion, the thread pool and
 * the process's worker pool under it (every test is bounded by a
 * ctest TIMEOUT, so a deadlock fails rather than hangs), the
 * determinism contract (identical per-job metrics for 1 vs 4
 * threads, compared order-independently on the JSON-lines output),
 * resume via the manifest, and the structured sinks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/gvq.hh"
#include "obs/obs.hh"
#include "predictors/value_predictor.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "sample/sample.hh"
#include "stats/table.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/worker_pool.hh"
#include "workload/trace_disk_cache.hh"
#include "workload/workload.hh"

namespace gdiff {
namespace runner {
namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/gdiff_runner_" + tag;
}

/** A fast ≥24-job grid over the cheap micro kernels. */
SweepSpec
smallGrid()
{
    SweepSpec spec;
    spec.mode = JobMode::Profile;
    spec.workloads = {"micro.stride", "micro.periodic",
                      "micro.pairsum"};
    spec.predictors = {"stride", "gdiff"};
    spec.orders = {4, 8};
    spec.seeds = {1, 2};
    spec.defaultInstructions = 12'000;
    spec.warmup = 1'000;
    return spec;
}

// ------------------------------------------------------ grid parsing

TEST(SweepSpecTest, ParseGridAxes)
{
    SweepSpec s = SweepSpec::parseGrid(
        "workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;"
        "order=4,8");
    EXPECT_EQ(s.mode, JobMode::Profile);
    EXPECT_EQ(s.workloads,
              (std::vector<std::string>{"mcf", "parser", "gzip"}));
    EXPECT_EQ(s.predictors,
              (std::vector<std::string>{"stride", "dfcm", "gdiff"}));
    EXPECT_EQ(s.orders, (std::vector<unsigned>{4, 8}));
    EXPECT_EQ(s.jobCount(), 3u * 3u * 2u);
}

TEST(SweepSpecTest, SchemeAxisImpliesPipelineMode)
{
    SweepSpec s =
        SweepSpec::parseGrid("workload=mcf;scheme=baseline,hgvq");
    EXPECT_EQ(s.mode, JobMode::Pipeline);
    EXPECT_EQ(s.schemes,
              (std::vector<std::string>{"baseline", "hgvq"}));
}

TEST(SweepSpecTest, NumericAxes)
{
    SweepSpec s = SweepSpec::parseGrid(
        "table=0,8192;seed=7;instructions=5000");
    EXPECT_EQ(s.tables, (std::vector<uint64_t>{0, 8192}));
    EXPECT_EQ(s.seeds, (std::vector<uint64_t>{7}));
    EXPECT_EQ(s.instructionWindows, (std::vector<uint64_t>{5000}));
}

TEST(SweepSpecTest, OrderAboveUnsignedRangeIsRejected)
{
    // Narrowed to unsigned, 2^32 + 8 would run as order 8 and 2^32 as
    // order 0.
    for (const char *grid : {"order=4294967304", "order=4294967296"}) {
        SweepSpec s;
        std::string error;
        EXPECT_FALSE(SweepSpec::tryParseGrid(grid, s, &error)) << grid;
        EXPECT_NE(error.find("out of range"), std::string::npos)
            << error;
    }
    SweepSpec s;
    ASSERT_TRUE(SweepSpec::tryParseGrid("order=4294967295", s, nullptr));
    EXPECT_EQ(s.orders, (std::vector<unsigned>{4294967295u}));
}

TEST(SweepSpecDeath, UnknownAxisIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("flavour=vanilla"),
                ::testing::ExitedWithCode(1), "unknown axis");
}

TEST(SweepSpecDeath, MalformedNumberIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("order=2m"),
                ::testing::ExitedWithCode(1), "invalid number");
}

TEST(SweepSpecDeath, MixedPredictorAndSchemeIsFatal)
{
    EXPECT_EXIT(SweepSpec::parseGrid("predictor=stride;scheme=hgvq"),
                ::testing::ExitedWithCode(1), "requires mode");
}

TEST(SweepSpecTest, ExpansionIsStableAndComplete)
{
    SweepSpec spec = smallGrid();
    std::vector<JobSpec> a = spec.expand();
    std::vector<JobSpec> b = spec.expand();
    ASSERT_EQ(a.size(), 24u);
    ASSERT_EQ(spec.jobCount(), a.size());
    std::set<std::string> keys;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key(), b[i].key());
        keys.insert(a[i].key());
    }
    // All cells distinct.
    EXPECT_EQ(keys.size(), a.size());
}

// ------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ZeroJobsIsANoOp)
{
    ThreadPool pool(4);
    pool.forEach(0, [&](size_t) { FAIL() << "no task expected"; });
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threads(), 1u);
    EXPECT_EQ(pool.threads(), workers::count());
}

/**
 * Holds every worker of the process's pool in a task that waits on a
 * latch, from construction until destruction.
 */
class PoolBlockers
{
  public:
    PoolBlockers() : state(std::make_shared<State>())
    {
        for (unsigned w = 0; w < workers::count(); ++w) {
            workers::post([s = state] {
                s->arrived.count_down();
                s->release.wait();
            });
        }
        state->arrived.wait();
    }

    ~PoolBlockers() { state->release.count_down(); }

  private:
    struct State
    {
        std::latch arrived{static_cast<std::ptrdiff_t>(workers::count())};
        std::latch release{1};
    };
    std::shared_ptr<State> state;
};

TEST(WorkerPoolTest, NestedForEachFinishesWhileEveryWorkerIsBusy)
{
    PoolBlockers busy;
    ThreadPool pool(4);
    constexpr size_t outer = 8, inner = 16;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.forEach(outer, [&](size_t o) {
        pool.forEach(inner, [&](size_t i) { ++hits[o * inner + i]; });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "index " << k;
}

TEST(WorkerPoolTest, ForEachFromAPoolWorker)
{
    auto ran = std::make_shared<std::promise<size_t>>();
    std::future<size_t> once = ran->get_future();
    workers::post([ran] {
        constexpr size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        ThreadPool(4).forEach(n, [&](size_t i) { ++hits[i]; });
        size_t exactlyOnce = 0;
        for (const std::atomic<int> &h : hits)
            exactlyOnce += h.load() == 1;
        ran->set_value(exactlyOnce);
    });
    EXPECT_EQ(once.get(), 1000u);
}

TEST(WorkerPoolTest, StoreOnABlockedPoolWritesThePinnedBytes)
{
    // 40 full blocks and one of 17 wrap the writer's ring five times;
    // with every worker blocked, the storing thread encodes them all.
    // The size and digest are TraceV3Bytes.EncoderOutputIsPinned's.
    using namespace workload;
    const uint64_t records = 40 * TraceChunk::capacity + 17;
    DiskTraceCache::Config cfg;
    cfg.root = tempPath("blocked_pool");
    auto disk = std::make_shared<DiskTraceCache>(cfg);
    const std::string entry =
        cfg.root + "/" + DiskTraceCache::entryName("mcf", 1, records);
    {
        PoolBlockers busy;
        auto exec = makeWorkload("mcf", 1).makeExecutor();
        ASSERT_NE(disk->store("mcf", 1, records, *exec), nullptr);
    }
    std::ifstream in(entry, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_EQ(bytes.size(), 608570u);
    uint64_t digest = 0;
    std::memcpy(&digest, bytes.data() + bytes.size() - 8, 8);
    EXPECT_EQ(digest, 0x94bc877a511c361bull);
    std::remove(entry.c_str());
    std::remove(cfg.root.c_str());
}

/**
 * Run smallGrid() twice at four threads, print how many pool threads
 * each sweep started, and exit.
 */
[[noreturn]] void
sweepTwiceAndReportThreadStarts()
{
    obs::setEnabled(true);
    unsigned long long starts[2] = {0, 0};
    for (unsigned long long &n : starts) {
        obs::reset();
        SweepRunner sweep(smallGrid());
        SweepOptions opt;
        opt.threads = 4;
        sweep.run(opt);
        n = obs::snapshot().counters["pool.thread_start"];
    }
    std::fprintf(stderr, "pool threads started: %llu, then %llu\n",
                 starts[0], starts[1]);
    std::exit(0);
}

TEST(WorkerPoolDeath, ThreadsStartOnlyDuringTheFirstSweep)
{
    // A threadsafe death test re-executes the binary for this test
    // alone, so no earlier test has started the pool.
    const std::string style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(sweepTwiceAndReportThreadStarts(),
                ::testing::ExitedWithCode(0),
                formatString("pool threads started: %u, then 0\n",
                             workers::count()));
    ::testing::GTEST_FLAG(death_test_style) = style;
}

// ------------------------------------------------- strict flag parse

TEST(ParseFlagTest, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseU64Flag("--x", "2000000"), 2'000'000u);
    EXPECT_EQ(parseU64Flag("--x", "0", true), 0u);
}

TEST(ParseFlagDeath, RejectsTrailingGarbage)
{
    EXPECT_EXIT(parseU64Flag("--instructions", "2m"),
                ::testing::ExitedWithCode(1), "invalid number");
}

TEST(ParseFlagDeath, RejectsEmptyNegativeZeroAndOverflow)
{
    EXPECT_EXIT(parseU64Flag("--x", ""),
                ::testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(parseU64Flag("--x", "-3"),
                ::testing::ExitedWithCode(1), "invalid number");
    EXPECT_EXIT(parseU64Flag("--x", "0"),
                ::testing::ExitedWithCode(1), "non-zero");
    EXPECT_EXIT(parseU64Flag("--x", "99999999999999999999999"),
                ::testing::ExitedWithCode(1), "out of range");
}

// ------------------------------------------------------- determinism

/** Parse a jsonl file into {deterministic-identity → metrics-json}. */
std::map<std::string, std::string>
readJsonl(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    while (std::getline(in, line)) {
        auto mpos = line.find("\"metrics\":");
        auto mend = line.find('}', mpos);
        EXPECT_NE(mpos, std::string::npos) << line;
        EXPECT_NE(mend, std::string::npos) << line;
        if (mpos == std::string::npos || mend == std::string::npos)
            continue;
        // Identity: everything before "metrics" minus the trailing
        // comma; metrics: the braced object.
        std::string identity = line.substr(0, mpos);
        std::string metrics = line.substr(mpos, mend - mpos + 1);
        EXPECT_TRUE(out.emplace(identity, metrics).second)
            << "duplicate job line: " << identity;
    }
    return out;
}

TEST(SweepRunnerTest, MetricsBitIdenticalAcrossThreadCounts)
{
    std::string p1 = tempPath("t1.jsonl");
    std::string p4 = tempPath("t4.jsonl");

    for (auto [threads, path] :
         {std::pair<unsigned, std::string>{1, p1}, {4, p4}}) {
        SweepRunner sweep(smallGrid());
        JsonlSink jsonl(path);
        sweep.addSink(jsonl);
        SweepOptions opt;
        opt.threads = threads;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.totalJobs, 24u);
        EXPECT_EQ(s.ranJobs, 24u);
        EXPECT_EQ(s.skippedJobs, 0u);
    }

    auto r1 = readJsonl(p1);
    auto r4 = readJsonl(p4);
    ASSERT_EQ(r1.size(), 24u);
    // Order-independent: compare as identity→metrics maps. Metric
    // strings are %.17g renderings, so equality is bit-identity.
    EXPECT_EQ(r1, r4);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

TEST(SweepRunnerTest, PipelineJobsDeterministicToo)
{
    SweepSpec spec;
    spec.mode = JobMode::Pipeline;
    spec.workloads = {"micro.stride", "micro.spillfill"};
    spec.schemes = {"baseline", "hgvq"};
    spec.orders = {16};
    spec.defaultInstructions = 8'000;
    spec.warmup = 500;

    auto metricsAt = [&](unsigned threads) {
        SweepRunner sweep(spec);
        CollectingSink collect;
        sweep.addSink(collect);
        SweepOptions opt;
        opt.threads = threads;
        sweep.run(opt);
        std::map<std::string, std::vector<std::pair<std::string,
                                                    double>>> out;
        for (const auto &r : collect.records())
            out[r.spec.key()] = r.result.metrics;
        return out;
    };
    auto m1 = metricsAt(1);
    auto m3 = metricsAt(3);
    ASSERT_EQ(m1.size(), 4u);
    EXPECT_EQ(m1, m3); // exact double equality, key by key
}

// ------------------------------------------------------------ resume

TEST(SweepRunnerTest, ManifestResumeSkipsCompletedJobs)
{
    std::string manifest = tempPath("resume.manifest");
    std::remove(manifest.c_str());
    SweepSpec spec = smallGrid();

    // Pre-mark half the grid as done, as if a previous run was
    // killed partway.
    std::vector<JobSpec> jobs = spec.expand();
    {
        Manifest m(manifest);
        for (size_t i = 0; i < jobs.size() / 2; ++i)
            m.markDone(jobs[i].key());
    }

    {
        SweepRunner sweep(spec);
        CollectingSink collect;
        sweep.addSink(collect);
        SweepOptions opt;
        opt.threads = 2;
        opt.manifestPath = manifest;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.totalJobs, 24u);
        EXPECT_EQ(s.skippedJobs, 12u);
        EXPECT_EQ(s.ranJobs, 12u);
        // The jobs that ran are exactly the un-marked half.
        std::set<size_t> ranIndices;
        for (const auto &r : collect.records())
            ranIndices.insert(r.index);
        for (size_t i = jobs.size() / 2; i < jobs.size(); ++i)
            EXPECT_TRUE(ranIndices.count(i)) << "missing job " << i;
    }

    // Second rerun: everything is recorded now, nothing runs.
    {
        SweepRunner sweep(spec);
        SweepOptions opt;
        opt.manifestPath = manifest;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 0u);
        EXPECT_EQ(s.skippedJobs, 24u);
    }
    std::remove(manifest.c_str());
}

TEST(SweepRunnerTest, CancelFlagStopsDispatchButKeepsCompletedWork)
{
    SweepSpec spec = smallGrid();

    // Pre-set cancellation: nothing may dispatch, but the sinks must
    // still be finished so buffered output flushes.
    {
        std::atomic<bool> cancel{true};
        SweepRunner sweep(spec);
        CollectingSink collect;
        sweep.addSink(collect);
        SweepOptions opt;
        opt.cancel = &cancel;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 0u);
        EXPECT_EQ(s.canceledJobs, 24u);
        EXPECT_TRUE(collect.records().empty());
    }

    // Cancel after the first job reaches a sink: the remaining grid
    // is skipped, and everything that completed stays delivered.
    {
        std::atomic<bool> cancel{false};
        SweepRunner sweep(spec);
        CollectingSink collect;

        struct Tripwire : ResultSink
        {
            std::atomic<bool> *flag;
            explicit Tripwire(std::atomic<bool> *flag) : flag(flag) {}
            void onJob(const JobRecord &) override
            {
                flag->store(true, std::memory_order_relaxed);
            }
        } trip(&cancel);

        sweep.addSink(trip);
        sweep.addSink(collect);
        SweepOptions opt;
        opt.threads = 1;
        opt.cancel = &cancel;
        SweepSummary s = sweep.run(opt);
        EXPECT_EQ(s.ranJobs, 1u);
        EXPECT_EQ(s.canceledJobs, 23u);
        EXPECT_EQ(s.ranJobs + s.canceledJobs, s.totalJobs);
        EXPECT_EQ(collect.records().size(), 1u);
    }
}

TEST(ManifestTest, PersistsAcrossReopen)
{
    std::string path = tempPath("manifest.txt");
    std::remove(path.c_str());
    {
        Manifest m(path);
        EXPECT_FALSE(m.contains("job-a"));
        m.markDone("job-a");
        m.markDone("job-b");
        m.markDone("job-a"); // duplicate: recorded once
        EXPECT_EQ(m.size(), 2u);
    }
    {
        Manifest m(path);
        EXPECT_TRUE(m.contains("job-a"));
        EXPECT_TRUE(m.contains("job-b"));
        EXPECT_FALSE(m.contains("job-c"));
        EXPECT_EQ(m.size(), 2u);
    }
    std::remove(path.c_str());
}

TEST(ManifestTest, IgnoresTornFinalLine)
{
    std::string path = tempPath("torn.manifest");
    {
        std::ofstream out(path, std::ios::trunc);
        out << "job-a\njob-b"; // no trailing newline: torn append
    }
    Manifest m(path);
    EXPECT_TRUE(m.contains("job-a"));
    EXPECT_FALSE(m.contains("job-b"));
    std::remove(path.c_str());
}

// ------------------------------------------------------------- sinks

TEST(SinkTest, CsvRowsSortedByGridIndex)
{
    std::string path = tempPath("out.csv");
    SweepSpec spec = smallGrid();
    SweepRunner sweep(spec);
    CsvSink csv(path);
    sweep.addSink(csv);
    SweepOptions opt;
    opt.threads = 4;
    sweep.run(opt);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("index,workload,mode,predictor,scheme", 0),
              0u)
        << line;
    EXPECT_NE(line.find("accuracy"), std::string::npos);
    size_t expected = 0, rows = 0;
    while (std::getline(in, line)) {
        // Rows come out in grid order whatever order jobs finished.
        EXPECT_EQ(line.substr(0, line.find(',')),
                  std::to_string(expected));
        ++expected;
        ++rows;
    }
    EXPECT_EQ(rows, 24u);
    std::remove(path.c_str());
}

TEST(SinkTest, TableSinkRendersOneRowPerJob)
{
    SweepSpec spec = smallGrid();
    spec.workloads = {"micro.stride"};
    spec.seeds = {1};
    SweepRunner sweep(spec);
    std::ostringstream os;
    TableSink table(os, "unit sweep");
    sweep.addSink(table);
    sweep.run(SweepOptions());
    std::string text = os.str();
    EXPECT_NE(text.find("unit sweep"), std::string::npos);
    EXPECT_NE(text.find("accuracy"), std::string::npos);
    EXPECT_NE(text.find("micro.stride/gdiff[o=4,s=1]"),
              std::string::npos)
        << text;
}

TEST(SinkTest, JsonlAppendModeAccumulates)
{
    std::string path = tempPath("append.jsonl");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.result.metrics = {{"accuracy", 0.5}};
    {
        JsonlSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    {
        JsonlSink sink(path, /*append=*/true);
        rec.index = 1;
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    size_t lines = 0;
    std::string line;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 2u);
    std::remove(path.c_str());
}

// --------------------------------------------- sink robustness
// Labels and metric names can contain CSV/JSON metacharacters (a
// workload named "a,b" or a metric with a quote); the sinks must
// stay parseable.

TEST(SinkRobustnessTest, JsonlEscapesQuotesBackslashesAndControls)
{
    std::string path = tempPath("escape.jsonl");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.workload = "we\"ird\\name\nwith,stuff\ttab";
    rec.result.metrics = {{"acc\"ur,acy", 0.5}};
    {
        JsonlSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::string line, extra;
    ASSERT_TRUE(std::getline(in, line));
    // The embedded newline must be escaped: exactly one physical
    // line in the file.
    EXPECT_FALSE(std::getline(in, extra)) << extra;
    EXPECT_NE(line.find("we\\\"ird\\\\name\\nwith,stuff\\ttab"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("acc\\\"ur,acy"), std::string::npos) << line;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, CsvQuotesSeparatorsQuotesAndNewlines)
{
    std::string path = tempPath("quoting.csv");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.mode = JobMode::Profile;
    rec.spec.workload = "evil \"quoted\",name";
    rec.spec.predictor = "str,ide";
    rec.result.metrics = {{"metric,with\"meta", 1.0}};
    {
        CsvSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    // RFC 4180: fields wrapped in quotes, inner quotes doubled.
    EXPECT_NE(text.find("\"evil \"\"quoted\"\",name\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"str,ide\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"metric,with\"\"meta\""),
              std::string::npos)
        << text;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, CsvLeavesPlainFieldsUnquoted)
{
    std::string path = tempPath("plain.csv");
    JobRecord rec;
    rec.index = 0;
    rec.spec = JobSpec{};
    rec.spec.mode = JobMode::Profile;
    rec.spec.workload = "mcf";
    rec.spec.predictor = "gdiff";
    rec.result.metrics = {{"accuracy", 0.25}};
    {
        CsvSink sink(path);
        sink.onJob(rec);
        sink.finish();
    }
    std::ifstream in(path);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_EQ(header.find('"'), std::string::npos) << header;
    EXPECT_EQ(row.find('"'), std::string::npos) << row;
    EXPECT_EQ(row.rfind("0,mcf,profile,gdiff,", 0), 0u) << row;
    std::remove(path.c_str());
}

TEST(SinkRobustnessTest, TableCsvQuotesLabelsAndCells)
{
    stats::Table t("robustness", "row,label");
    t.addColumn("col\"A");
    t.addColumn("plain");
    t.beginRow("r1,x");
    t.cell("va\nl");
    t.cell("ok");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "\"row,label\",\"col\"\"A\",plain\n"
                        "\"r1,x\",\"va\nl\",ok\n");
}

// ----------------------------------------------------------- factory

// Every row builds through the job path, and through the explicit-
// order path at the ends of its range and at its default (order 0).
TEST(FactoryTest, EveryRegisteredNameConstructs)
{
    for (const auto &f : predictorFamilies()) {
        auto p = makePredictor(f.name, 8, 1024);
        ASSERT_NE(p, nullptr) << f.name;
    }
    for (const auto &f : schemeFamilies()) {
        auto s = makeScheme(f.name, 16, 1024);
        ASSERT_NE(s, nullptr) << f.name;
    }
    auto check = [](const auto &rows) {
        for (const auto &f : rows) {
            std::string error;
            EXPECT_NE(f.make(0, 1024), nullptr) << f.name;
            if (f.maxOrder == 0)
                continue;
            EXPECT_TRUE(f.orderInRange(f.defaultOrder, &error)) << error;
            for (unsigned order : {f.minOrder, f.maxOrder}) {
                EXPECT_TRUE(f.orderInRange(order, &error)) << error;
                EXPECT_NE(f.make(order, 1024), nullptr)
                    << f.name << "@" << order;
            }
            EXPECT_FALSE(f.orderInRange(f.maxOrder + 1, &error));
            EXPECT_EQ(error, std::string(f.name) + " order " +
                                 std::to_string(f.maxOrder + 1) +
                                 " is out of range (" +
                                 std::to_string(f.minOrder) + ".." +
                                 std::to_string(f.maxOrder) + ")");
        }
    };
    check(predictorFamilies());
    check(schemeFamilies());
}

/** @return a digest of @p p's predictions over a stream of per-PC
 * patterns whose next value depends on more than the last one. */
uint64_t
predictionDigest(predictors::ValuePredictor &p)
{
    static const int64_t pattern[] = {1, 2, 1, 3, 1, 2, 1, 4};
    uint64_t digest = 0xcbf29ce484222325ull;
    for (uint64_t i = 0; i < 20000; ++i) {
        const uint64_t pc = 0x400000 + 4 * (i % 13);
        const int64_t v = pattern[(i / 13 + pc) % 8] * int64_t(pc);
        int64_t guess = 0;
        const bool hit = p.predict(pc, guess);
        digest = (digest ^ (hit ? static_cast<uint64_t>(guess) : 7)) *
                 0x100000001b3ull;
        p.update(pc, v);
    }
    return digest;
}

// The grid's contract: JobSpec::order reaches gdiff, sgvq and hgvq
// only. A grid's fcm, dfcm and gfcm run at their default orders
// whatever order= says, so makePredictor(family, 8, t) is the default
// build — while the stream itself tells the orders apart.
TEST(FactoryTest, JobOrderDoesNotReachContextFamilies)
{
    for (const char *name : {"fcm", "dfcm", "gfcm"}) {
        const PredictorFamily *f = findPredictor(name);
        ASSERT_NE(f, nullptr) << name;
        EXPECT_FALSE(f->jobOrder) << name;
        const uint64_t atDefault =
            predictionDigest(*f->make(f->defaultOrder, 4096));
        for (unsigned order : {1u, 2u, 8u, 64u}) {
            EXPECT_EQ(predictionDigest(*makePredictor(name, order, 4096)),
                      atDefault)
                << name << " at job order " << order;
        }
        EXPECT_NE(predictionDigest(*f->make(1, 4096)), atDefault)
            << name << ": the stream cannot tell order 1 from "
            << f->defaultOrder;
    }
    EXPECT_TRUE(findPredictor("gdiff")->jobOrder);
    for (const char *name : {"sgvq", "hgvq"})
        EXPECT_TRUE(findScheme(name)->jobOrder) << name;
}

// validateOr rejects, per family, each order and table size whose
// constructor would abort and each table above maxTableEntries, and
// admits the limits themselves.
TEST(JobSpecTest, ValidateOrRejectsWhatConstructorsAbortOn)
{
    struct Case
    {
        JobMode mode;
        const char *family;
        unsigned order;
        uint64_t table;
        const char *error; ///< nullptr = valid
    };
    const Case cases[] = {
        {JobMode::Profile, "gdiff", 0, 8192, "order 0 is out of range"},
        {JobMode::Profile, "gdiff", 1, 8192, nullptr},
        {JobMode::Profile, "gdiff", core::maxOrder, 8192, nullptr},
        {JobMode::Profile, "gdiff", 65, 8192, "order 65 is out of range"},
        {JobMode::Pipeline, "sgvq", 65, 8192, "order 65 is out of range"},
        {JobMode::Pipeline, "hgvq", 65, 8192, "order 65 is out of range"},
        {JobMode::Pipeline, "hgvq", core::maxOrder, 8192, nullptr},
        // Families without an order ignore it, and so do fcm, dfcm
        // and gfcm: a grid runs them at their default orders.
        {JobMode::Profile, "stride", 65, 8192, nullptr},
        {JobMode::Profile, "fcm", 0, 8192, nullptr},
        {JobMode::Profile, "fcm", 65, 8192, nullptr},
        {JobMode::Profile, "gfcm", 8, 8192, nullptr},
        {JobMode::Profile, "gfcm", 4294967295u, 8192, nullptr},
        // An unknown name is rejected, not left to the factory's
        // fatal().
        {JobMode::Profile, "psychic", 8, 8192,
         "unknown predictor 'psychic'"},
        {JobMode::Pipeline, "psychic", 8, 8192,
         "unknown scheme 'psychic'"},
        {JobMode::Pipeline, "gdiff", 8, 8192, "unknown scheme 'gdiff'"},
        // The retired two-term family is a name like any other.
        {JobMode::Profile, "gdiff2", 8, 8192,
         "unknown predictor 'gdiff2'"},
        {JobMode::Pipeline, "l_stride", 4294967295u, 8192, nullptr},
        {JobMode::Profile, "stride", 8, 1000, "not a power of two"},
        {JobMode::Profile, "gdiff", 8, 1000, "not a power of two"},
        {JobMode::Pipeline, "hgvq", 8, 1000, "not a power of two"},
        {JobMode::Profile, "dfcm", 8, 0, nullptr},
        {JobMode::Profile, "dfcm", 8, 1024, nullptr},
        // The cap is admitted (and built); powers of two above it
        // are rejected, so none of them is ever built.
        {JobMode::Profile, "stride", 8, maxTableEntries, nullptr},
        {JobMode::Profile, "gdiff", 8, maxTableEntries * 2,
         "above the 1048576-entry limit"},
        {JobMode::Pipeline, "hgvq", 8, maxTableEntries * 2,
         "above the 1048576-entry limit"},
        {JobMode::Profile, "gdiff", 8, uint64_t(1) << 40,
         "above the 1048576-entry limit"},
        {JobMode::Pipeline, "hgvq", 8, uint64_t(1) << 40,
         "above the 1048576-entry limit"},
    };
    for (const Case &c : cases) {
        JobSpec spec;
        spec.mode = c.mode;
        (c.mode == JobMode::Profile ? spec.predictor : spec.scheme) =
            c.family;
        spec.order = c.order;
        spec.tableEntries = c.table;
        std::string error;
        const bool ok = spec.validateOr(&error);
        if (!c.error) {
            EXPECT_TRUE(ok) << spec.label() << ": " << error;
            // What validateOr admits must construct.
            if (c.mode == JobMode::Profile)
                EXPECT_NE(makePredictor(c.family, c.order, c.table),
                          nullptr);
            else
                EXPECT_NE(makeScheme(c.family, c.order, c.table),
                          nullptr);
            continue;
        }
        EXPECT_FALSE(ok) << spec.label();
        EXPECT_NE(error.find(c.error), std::string::npos)
            << spec.label() << ": " << error;
    }
}

TEST(FactoryDeath, UnknownNamesAreCallerBugs)
{
    // Every entry point checks names against the family table first
    // (validateOr, parseMineTarget), so another name is a bug, not a
    // user error.
    EXPECT_DEATH(makePredictor("psychic", 8, 0),
                 "assertion .* failed at .*unknown predictor 'psychic'");
    EXPECT_DEATH(makeScheme("psychic", 8, 0),
                 "assertion .* failed at .*unknown scheme 'psychic'");
}

// This binary never calls sample::install(): runJob() runs a sampled
// spec itself, in either mode.
TEST(SampledJob, RunJobRunsSampledSpecsWithoutInstall)
{
    JobSpec pipe;
    pipe.mode = JobMode::Pipeline;
    pipe.workload = "mcf";
    pipe.scheme = "hgvq";
    pipe.order = 32;
    pipe.instructions = 50'000;
    pipe.warmup = 10'000;
    pipe.sampleBudget = 20'000;
    JobSpec prof;
    prof.workload = "gzip";
    prof.predictor = "stride";
    prof.instructions = 50'000;
    prof.warmup = 10'000;
    prof.sampleBudget = 20'000;
    for (const JobSpec &spec : {pipe, prof}) {
        workload::TraceCache cache;
        JobResult direct = sample::runSampledJob(spec, &cache, 2);
        JobResult routed = runJob(spec, &cache, 2);
        EXPECT_EQ(routed.metrics, direct.metrics) << spec.label();
        EXPECT_GT(routed.metric("sample_windows"), 0.0) << spec.label();
    }
}

} // namespace
} // namespace runner
} // namespace gdiff
