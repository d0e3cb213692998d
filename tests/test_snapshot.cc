/**
 * @file
 * Metric-surface snapshots (src/check/snapshot.hh): write/read round
 * trips (including sampled specs, whose sample_* knobs ride in the
 * deterministic payload), typed rejection of corrupt input, the
 * SnapshotSink on a real sweep, and the diff semantics the CI gate
 * depends on — self-diff empty, a 1e-6 IPC perturbation detected,
 * added/removed configs reported, and deltas suppressed when both
 * sides' confidence intervals overlap.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "check/snapshot.hh"
#include "runner/runner.hh"

namespace gdiff {
namespace {

std::string
testPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

runner::JobRecord
makeRecord(size_t index, const std::string &workload, double ipc)
{
    runner::JobRecord rec;
    rec.index = index;
    rec.spec.workload = workload;
    rec.spec.mode = runner::JobMode::Pipeline;
    rec.spec.scheme = "hgvq";
    rec.spec.order = 8;
    rec.result.metrics = {
        {"ipc", ipc},
        {"coverage", 0.25 + 0.001 * static_cast<double>(index)},
    };
    return rec;
}

check::Snapshot
makeSnapshot(double ipc0 = 1.25)
{
    check::Snapshot snap;
    snap.tool = "test";
    snap.note = "unit";
    snap.jobs.push_back(makeRecord(0, "mcf", ipc0));
    snap.jobs.push_back(makeRecord(1, "parser", 0.7318244928377201));
    return snap;
}

TEST(Snapshot, WriteReadRoundTripPreservesEverything)
{
    std::string path = testPath("round_trip.snap");
    check::Snapshot snap = makeSnapshot();
    uint64_t digest = 0;
    {
        check::Snapshot w = snap;
        ASSERT_TRUE(check::writeSnapshot(w, path).ok());
        digest = w.digest();
    }
    check::Snapshot back;
    check::SnapshotResult r = check::readSnapshot(path, back);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(back.tool, "test");
    EXPECT_EQ(back.note, "unit");
    ASSERT_EQ(back.jobs.size(), snap.jobs.size());
    EXPECT_EQ(back.digest(), digest);
    // Field-for-field: the re-rendered deterministic payloads match.
    back.canonicalize();
    check::Snapshot orig = snap;
    orig.canonicalize();
    for (size_t i = 0; i < back.jobs.size(); ++i)
        EXPECT_EQ(
            runner::JsonlSink::deterministicJson(back.jobs[i]),
            runner::JsonlSink::deterministicJson(orig.jobs[i]));
}

TEST(Snapshot, SampledSpecsRoundTripBitIdentically)
{
    std::string path = testPath("sampled.snap");
    check::Snapshot snap;
    runner::JobRecord rec = makeRecord(0, "mcf", 1.25);
    rec.spec.sampleBudget = 30'000;
    rec.spec.sampleWindow = 4096;
    rec.spec.sampleSeed = 7;
    rec.result.metrics.push_back({"ipc_ci_lo", 1.2409999999999999});
    rec.result.metrics.push_back({"ipc_ci_hi", 1.2590000000000001});
    snap.jobs.push_back(rec);
    std::string line = runner::JsonlSink::deterministicJson(rec);
    EXPECT_NE(line.find("\"sample_budget\":30000"), std::string::npos);

    ASSERT_TRUE(check::writeSnapshot(snap, path).ok());
    check::Snapshot back;
    check::SnapshotResult r = check::readSnapshot(path, back);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_EQ(back.jobs.size(), 1u);
    EXPECT_TRUE(back.jobs[0].spec.sampled());
    EXPECT_EQ(back.jobs[0].spec.key(), rec.spec.key());
    EXPECT_EQ(runner::JsonlSink::deterministicJson(back.jobs[0]),
              line);
}

TEST(Snapshot, FullTracePayloadHasNoSampleFields)
{
    // The pre-sampling payload shape is pinned: adding sample fields
    // to full-trace records would break every archived jsonl diff.
    runner::JobRecord rec = makeRecord(0, "mcf", 1.0);
    EXPECT_EQ(runner::JsonlSink::deterministicJson(rec).find(
                  "sample_"),
              std::string::npos);
}

TEST(Snapshot, TamperedFileIsRejectedWithTypedStatus)
{
    std::string path = testPath("tampered.snap");
    check::Snapshot snap = makeSnapshot();
    ASSERT_TRUE(check::writeSnapshot(snap, path).ok());

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    // Flip one digit inside a metric value.
    size_t pos = text.find("0.7318244928377201");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 3] = '4';
    std::ofstream(path) << text;

    check::Snapshot back;
    check::SnapshotResult r = check::readSnapshot(path, back);
    EXPECT_EQ(r.status, check::SnapshotStatus::DigestMismatch);
    EXPECT_STREQ(check::snapshotStatusName(r.status),
                 "digest_mismatch");
}

TEST(Snapshot, GarbageAndWrongDocumentsAreTyped)
{
    std::string path = testPath("garbage.snap");
    std::ofstream(path) << "this is not json";
    check::Snapshot out;
    EXPECT_EQ(check::readSnapshot(path, out).status,
              check::SnapshotStatus::Parse);

    std::ofstream(path) << "{\"format\":\"other\"}";
    EXPECT_EQ(check::readSnapshot(path, out).status,
              check::SnapshotStatus::BadFormat);

    std::ofstream(path) << "{\"format\":\"gdiff-snapshot\","
                           "\"version\":99,\"digest\":\"0\","
                           "\"jobs\":[]}";
    EXPECT_EQ(check::readSnapshot(path, out).status,
              check::SnapshotStatus::BadVersion);

    EXPECT_EQ(check::readSnapshot(testPath("missing.snap"), out)
                  .status,
              check::SnapshotStatus::IoError);
}

TEST(Snapshot, SelfDiffIsEmpty)
{
    check::Snapshot snap = makeSnapshot();
    check::SnapshotDiff diff = check::diffSnapshots(snap, snap);
    EXPECT_TRUE(diff.empty());
    std::ostringstream os;
    check::printSnapshotDiff(diff, os);
    EXPECT_NE(os.str().find("snapshots match"), std::string::npos);
}

TEST(Snapshot, DetectsTinyIpcPerturbation)
{
    check::Snapshot oldSnap = makeSnapshot(1.25);
    check::Snapshot newSnap = makeSnapshot(1.25 + 1e-6);
    check::SnapshotDiff diff =
        check::diffSnapshots(oldSnap, newSnap);
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_EQ(diff.deltas[0].metric, "ipc");
    EXPECT_NEAR(diff.deltas[0].newValue - diff.deltas[0].oldValue,
                1e-6, 1e-12);

    // ...and a tolerance just above the delta silences it.
    check::SnapshotDiffOptions opts;
    opts.metricTolerance["ipc"] = 1e-5;
    EXPECT_TRUE(
        check::diffSnapshots(oldSnap, newSnap, opts).empty());
}

TEST(Snapshot, ReportsAddedAndRemovedConfigs)
{
    check::Snapshot oldSnap = makeSnapshot();
    check::Snapshot newSnap = makeSnapshot();
    newSnap.jobs.push_back(makeRecord(2, "gzip", 0.9));
    check::SnapshotDiff diff =
        check::diffSnapshots(oldSnap, newSnap);
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_NE(diff.added[0].find("workload=gzip"),
              std::string::npos);
    EXPECT_TRUE(diff.removed.empty());

    diff = check::diffSnapshots(newSnap, oldSnap);
    EXPECT_EQ(diff.removed.size(), 1u);
    EXPECT_TRUE(diff.added.empty());
}

TEST(Snapshot, MissingMetricOnOneSideIsReported)
{
    check::Snapshot oldSnap = makeSnapshot();
    check::Snapshot newSnap = makeSnapshot();
    newSnap.jobs[0].result.metrics.push_back({"mpki", 3.5});
    check::SnapshotDiff diff =
        check::diffSnapshots(oldSnap, newSnap);
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_EQ(diff.deltas[0].metric, "mpki");
    EXPECT_FALSE(diff.deltas[0].oldPresent);
    EXPECT_TRUE(diff.deltas[0].newPresent);
}

runner::JobRecord
sampledRecord(double ipc, double lo, double hi)
{
    runner::JobRecord rec = makeRecord(0, "mcf", ipc);
    rec.spec.sampleBudget = 30'000;
    rec.result.metrics.push_back({"ipc_ci_lo", lo});
    rec.result.metrics.push_back({"ipc_ci_hi", hi});
    return rec;
}

TEST(Snapshot, OverlappingIntervalsSuppressTheDelta)
{
    check::Snapshot oldSnap, newSnap;
    oldSnap.jobs.push_back(sampledRecord(1.250, 1.240, 1.260));
    newSnap.jobs.push_back(sampledRecord(1.253, 1.243, 1.263));

    // The point estimates moved by 3e-3 — but the 95% intervals
    // overlap, so a re-sampled sweep stays quiet...
    check::SnapshotDiff diff =
        check::diffSnapshots(oldSnap, newSnap);
    EXPECT_TRUE(diff.empty());
    EXPECT_EQ(diff.intervalSuppressed, 1u);

    // ...unless interval handling is turned off...
    check::SnapshotDiffOptions noCi;
    noCi.useIntervals = false;
    EXPECT_EQ(check::diffSnapshots(oldSnap, newSnap, noCi)
                  .deltas.size(),
              1u);

    // ...and fires when the intervals are disjoint.
    check::Snapshot farSnap;
    farSnap.jobs.push_back(sampledRecord(1.300, 1.290, 1.310));
    diff = check::diffSnapshots(oldSnap, farSnap);
    ASSERT_EQ(diff.deltas.size(), 1u);
    EXPECT_EQ(diff.deltas[0].metric, "ipc");
    // The interval bound columns themselves are never standalone
    // deltas.
    for (const auto &d : diff.deltas)
        EXPECT_EQ(d.metric.find("_ci_"), std::string::npos);
}

TEST(Snapshot, SinkFreezesARealSweepDeterministically)
{
    std::string pathA = testPath("sweep_a.snap");
    std::string pathB = testPath("sweep_b.snap");
    runner::SweepSpec spec = runner::SweepSpec::parseGrid(
        "workload=micro.affine,micro.periodic;predictor=stride,gdiff");
    spec.defaultInstructions = 20'000;
    spec.warmup = 2'000;

    auto runInto = [&spec](const std::string &path,
                           unsigned threads) {
        runner::SweepRunner sweep(spec);
        check::SnapshotSink sink(path, "test", "sweep");
        sweep.addSink(sink);
        runner::SweepOptions opt;
        opt.threads = threads;
        sweep.run(opt);
        ASSERT_TRUE(sink.writeResult().ok())
            << sink.writeResult().message;
    };
    runInto(pathA, 1);
    runInto(pathB, 4);

    check::Snapshot a, b;
    ASSERT_TRUE(check::readSnapshot(pathA, a).ok());
    ASSERT_TRUE(check::readSnapshot(pathB, b).ok());
    EXPECT_EQ(a.jobs.size(), 4u);
    // Thread count must not change the frozen surface...
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_TRUE(check::diffSnapshots(a, b).empty());

    // ...and the files themselves are byte-identical.
    std::ifstream fa(pathA), fb(pathB);
    std::string ta((std::istreambuf_iterator<char>(fa)),
                   std::istreambuf_iterator<char>());
    std::string tb((std::istreambuf_iterator<char>(fb)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(ta, tb);
}

} // namespace
} // namespace gdiff
