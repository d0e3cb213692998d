/**
 * @file
 * Sweep-runner tests: grid parsing/expansion, the thread pool, the
 * determinism contract (identical per-job metrics for 1 vs 4
 * threads, compared order-independently on the JSON-lines output),
 * resume via the manifest, and the structured sinks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/gdiff2.hh"
#include "core/gvq.hh"
#include "runner/factory.hh"
#include "runner/runner.hh"
#include "stats/table.hh"
#include "util/parse.hh"

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

TEST(FactoryTest, EveryRegisteredNameConstructs)
{
    for (const auto &name : predictorNames()) {
        auto p = makePredictor(name, 8, 1024);
        ASSERT_NE(p, nullptr) << name;
    }
    for (const auto &name : schemeNames()) {
        auto s = makeScheme(name, 16, 1024);
        ASSERT_NE(s, nullptr) << name;
    }
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
        {JobMode::Profile, "gdiff2", 1, 8192, "order 1 is out of range"},
        {JobMode::Profile, "gdiff2", core::gdiff2MinOrder, 8192, nullptr},
        {JobMode::Profile, "gdiff2", core::gdiff2MaxOrder, 8192, nullptr},
        {JobMode::Profile, "gdiff2", 17, 8192, "order 17 is out of range"},
        {JobMode::Pipeline, "sgvq", 65, 8192, "order 65 is out of range"},
        {JobMode::Pipeline, "hgvq", 65, 8192, "order 65 is out of range"},
        {JobMode::Pipeline, "hgvq", core::maxOrder, 8192, nullptr},
        // Families without an order ignore it.
        {JobMode::Profile, "stride", 65, 8192, nullptr},
        {JobMode::Pipeline, "l_stride", 4294967295u, 8192, nullptr},
        {JobMode::Profile, "stride", 8, 1000, "not a power of two"},
        {JobMode::Profile, "gdiff2", 8, 1000, "not a power of two"},
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

TEST(FactoryDeath, UnknownNamesAreFatal)
{
    EXPECT_EXIT(makePredictor("psychic", 8, 0),
                ::testing::ExitedWithCode(1), "unknown predictor");
    EXPECT_EXIT(makeScheme("psychic", 8, 0),
                ::testing::ExitedWithCode(1), "unknown scheme");
}

} // namespace
} // namespace runner
} // namespace gdiff
