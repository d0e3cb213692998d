/**
 * @file
 * Serving-layer tests: wire framing edge cases over socketpairs, and
 * the gdiffd daemon end-to-end over a real Unix-domain socket —
 * bit-identity with in-process execution, the shared trace cache,
 * backpressure rejections, hostile-input survival, and queue-slot
 * reclamation when a client vanishes mid-sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"
#include "sample/sample.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"
#include "util/simd.hh"

using namespace gdiff;
using namespace gdiff::serve;

namespace {

/** A fresh, short socket path per test (AF_UNIX paths are ~100 chars). */
std::string
testSocketPath()
{
    static int counter = 0;
    return "/tmp/gdiff_ts." + std::to_string(getpid()) + "." +
           std::to_string(++counter) + ".sock";
}

/** Connected stream socket pair; both ends closed by Fd. */
struct Pair
{
    Fd a, b;
    Pair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = Fd(fds[0]);
        b = Fd(fds[1]);
    }
};

/** Poll the daemon until its queue fully empties (or 5s pass). */
bool
waitForIdle(const Daemon &daemon)
{
    for (int i = 0; i < 500; ++i) {
        DaemonStats s = daemon.stats();
        if (s.queuedJobs == 0 && s.runningJobs == 0)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

constexpr const char *kSmallGrid =
    "workload=micro.stride,micro.periodic;predictor=stride,gdiff";
constexpr uint64_t kSmallInstructions = 20000;
constexpr uint64_t kSmallWarmup = 2000;

/** Submit kSmallGrid and collect the deterministic payload lines. */
std::vector<std::string>
submitSmallGrid(Client &client, const std::string &name,
                SweepOutcome *outcome = nullptr)
{
    SubmitRequest req;
    req.grid = kSmallGrid;
    req.client = name;
    req.instructions = kSmallInstructions;
    req.warmup = kSmallWarmup;
    std::string error;
    std::vector<std::string> lines;
    if (!client.submit(req, &error)) {
        ADD_FAILURE() << "submit failed: " << error;
        return lines; // streaming would block on a dead sweep
    }
    EXPECT_TRUE(client.streamResults(
        [&](const runner::JobRecord &rec) {
            lines.push_back(runner::JsonlSink::deterministicJson(rec));
        },
        outcome, &error))
        << error;
    std::sort(lines.begin(), lines.end());
    return lines;
}

} // namespace

// ------------------------------------------------------- framing

TEST(FramingTest, RoundTripsPayloads)
{
    Pair p;
    std::string payload;
    for (const auto &msg :
         {std::string(""), std::string("{}"),
          std::string(1000, 'x')}) {
        ASSERT_TRUE(writeFrame(p.a.get(), msg));
        ASSERT_EQ(readFrame(p.b.get(), payload), FrameStatus::Ok);
        EXPECT_EQ(payload, msg);
    }
}

TEST(FramingTest, BackToBackFramesStaySeparate)
{
    Pair p;
    ASSERT_TRUE(writeFrame(p.a.get(), "first"));
    ASSERT_TRUE(writeFrame(p.a.get(), "second"));
    std::string payload;
    ASSERT_EQ(readFrame(p.b.get(), payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "first");
    ASSERT_EQ(readFrame(p.b.get(), payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "second");
}

TEST(FramingTest, CleanCloseBetweenFramesIsEof)
{
    Pair p;
    p.a.reset();
    std::string payload;
    EXPECT_EQ(readFrame(p.b.get(), payload), FrameStatus::Eof);
}

TEST(FramingTest, TruncatedPrefixIsTruncated)
{
    Pair p;
    const char twoBytes[2] = {0x10, 0x00};
    ASSERT_EQ(send(p.a.get(), twoBytes, 2, 0), 2);
    p.a.reset();
    std::string payload;
    EXPECT_EQ(readFrame(p.b.get(), payload), FrameStatus::Truncated);
}

TEST(FramingTest, TruncatedPayloadIsTruncated)
{
    Pair p;
    const unsigned char frame[7] = {16, 0, 0, 0, 'a', 'b', 'c'};
    ASSERT_EQ(send(p.a.get(), frame, 7, 0), 7);
    p.a.reset();
    std::string payload;
    EXPECT_EQ(readFrame(p.b.get(), payload), FrameStatus::Truncated);
}

TEST(FramingTest, OversizedPrefixRejectedBeforePayload)
{
    Pair p;
    // 0xFFFFFFFF bytes claimed; nothing sent after the prefix. The
    // reader must reject on the prefix alone, without blocking to
    // drain 4 GiB.
    const unsigned char prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(send(p.a.get(), prefix, 4, 0), 4);
    std::string payload;
    EXPECT_EQ(readFrame(p.b.get(), payload), FrameStatus::TooLarge);
}

TEST(FramingTest, WriterRefusesOversizedPayload)
{
    Pair p;
    std::string big(2048, 'y');
    EXPECT_FALSE(writeFrame(p.a.get(), big, /*maxBytes=*/1024));
    // Nothing must have hit the wire: the reader would otherwise
    // desynchronize.
    ASSERT_TRUE(writeFrame(p.a.get(), "ok", 1024));
    std::string payload;
    ASSERT_EQ(readFrame(p.b.get(), payload), FrameStatus::Ok);
    EXPECT_EQ(payload, "ok");
}

// ----------------------------------------------------- job frames

TEST(JobFrameTest, RecordSurvivesTheWireExactly)
{
    runner::JobSpec spec;
    spec.workload = "micro.stride";
    spec.predictor = "gdiff";
    spec.order = 4;
    spec.instructions = 1000;
    spec.warmup = 100;
    runner::JobResult res;
    res.metrics = {{"accuracy", 0.123456789012345678},
                   {"coverage", 1.0 / 3.0}};
    res.wallSeconds = 0.5;
    runner::JobRecord rec{7, spec, res};

    json::Value frame;
    std::string error;
    ASSERT_TRUE(json::parse(jobMessage(3, rec), frame, &error))
        << error;
    runner::JobRecord back;
    ASSERT_TRUE(parseJobFrame(frame, back, &error)) << error;
    // %.17g doubles round-trip exactly, so the deterministic JSON is
    // byte-equal — the property the daemon's bit-identity rests on.
    EXPECT_EQ(runner::JsonlSink::deterministicJson(back),
              runner::JsonlSink::deterministicJson(rec));
}

TEST(JobFrameTest, SampledRecordSurvivesTheWireExactly)
{
    // A sampled job's spec carries the sample_* knobs and its metrics
    // carry interval columns; both must survive the frame round trip
    // so remote sampled sweeps diff cleanly against local ones.
    runner::JobSpec spec;
    spec.workload = "micro.stride";
    spec.predictor = "gdiff";
    spec.instructions = 100000;
    spec.warmup = 20000;
    spec.sampleBudget = 30000;
    spec.sampleWindow = 4096;
    spec.sampleSeed = 3;
    runner::JobResult res;
    res.metrics = {{"accuracy", 0.125},
                   {"accuracy_ci_lo", 0.121},
                   {"accuracy_ci_hi", 0.129}};
    runner::JobRecord rec{2, spec, res};

    std::string line = runner::JsonlSink::deterministicJson(rec);
    ASSERT_NE(line.find("\"sample_budget\":30000"),
              std::string::npos);

    json::Value frame;
    std::string error;
    ASSERT_TRUE(json::parse(jobMessage(1, rec), frame, &error))
        << error;
    runner::JobRecord back;
    ASSERT_TRUE(parseJobFrame(frame, back, &error)) << error;
    EXPECT_TRUE(back.spec.sampled());
    EXPECT_EQ(back.spec.key(), rec.spec.key());
    EXPECT_EQ(runner::JsonlSink::deterministicJson(back), line);
}

TEST(JobFrameTest, PartialSampleFieldsAreRejected)
{
    // A frame carrying sample_budget without its companion fields is
    // malformed — parse must fail with a message, not guess defaults.
    runner::JobSpec spec;
    spec.sampleBudget = 1000;
    runner::JobRecord rec{0, spec, runner::JobResult{}};
    std::string msg = jobMessage(1, rec);
    size_t pos = msg.find(",\"sample_window\":4096");
    ASSERT_NE(pos, std::string::npos);
    msg.erase(pos, strlen(",\"sample_window\":4096"));

    json::Value frame;
    ASSERT_TRUE(json::parse(msg, frame));
    runner::JobRecord back;
    std::string error;
    EXPECT_FALSE(parseJobFrame(frame, back, &error));
    EXPECT_NE(error.find("sample"), std::string::npos) << error;
}

// ------------------------------------------------------- daemon

TEST(DaemonTest, ResultsBitIdenticalToInProcessSweep)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;
    SweepOutcome outcome;
    std::vector<std::string> daemonLines =
        submitSmallGrid(client, "bitident", &outcome);

    // The same grid, in-process, through the stock runner.
    runner::SweepSpec spec =
        runner::SweepSpec::parseGrid(kSmallGrid);
    spec.defaultInstructions = kSmallInstructions;
    spec.warmup = kSmallWarmup;
    runner::SweepRunner sweep(spec);
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.useTraceCache = false;
    sweep.run(opt);

    std::vector<std::string> localLines;
    for (const auto &rec : collect.records())
        localLines.push_back(
            runner::JsonlSink::deterministicJson(rec));
    std::sort(localLines.begin(), localLines.end());

    EXPECT_EQ(outcome.jobs, localLines.size());
    EXPECT_EQ(daemonLines, localLines);
}

TEST(DaemonTest, SampledResultsBitIdenticalToInProcessSweep)
{
    // A sampled submit must flow through the daemon to the installed
    // sampled runner and come back — sample knobs, point estimates,
    // and CI columns — byte-identical to gdiffrun --sample-budget of
    // the same grid.
    sample::install();
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;
    SubmitRequest req;
    req.grid = kSmallGrid;
    req.client = "sampled";
    req.instructions = 100000;
    req.warmup = 20000;
    req.sampleBudget = 30000;
    req.sampleWindow = 4096;
    req.sampleSeed = 3;
    ASSERT_TRUE(client.submit(req, &error)) << error;
    std::vector<std::string> daemonLines;
    SweepOutcome outcome;
    ASSERT_TRUE(client.streamResults(
        [&](const runner::JobRecord &rec) {
            EXPECT_TRUE(rec.spec.sampled());
            daemonLines.push_back(
                runner::JsonlSink::deterministicJson(rec));
        },
        &outcome, &error))
        << error;
    std::sort(daemonLines.begin(), daemonLines.end());

    runner::SweepSpec spec =
        runner::SweepSpec::parseGrid(kSmallGrid);
    spec.defaultInstructions = 100000;
    spec.warmup = 20000;
    spec.sampleBudget = 30000;
    spec.sampleWindow = 4096;
    spec.sampleSeed = 3;
    runner::SweepRunner sweep(spec);
    runner::CollectingSink collect;
    sweep.addSink(collect);
    runner::SweepOptions opt;
    opt.useTraceCache = false;
    sweep.run(opt);
    std::vector<std::string> localLines;
    for (const auto &rec : collect.records())
        localLines.push_back(
            runner::JsonlSink::deterministicJson(rec));
    std::sort(localLines.begin(), localLines.end());

    EXPECT_EQ(outcome.jobs, localLines.size());
    EXPECT_EQ(daemonLines, localLines);
    // And the payloads really carried the sampled shape.
    for (const auto &line : daemonLines) {
        EXPECT_NE(line.find("\"sample_budget\":30000"),
                  std::string::npos);
        EXPECT_NE(line.find("_ci_lo"), std::string::npos);
    }
}

TEST(DaemonTest, InvalidSampleSpecGetsAnErrorFrameNotACrash)
{
    sample::install();
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;

    // Window longer than the measured region: rejected per-spec with
    // a message, never a fatal() inside the daemon.
    SubmitRequest req;
    req.grid = "workload=micro.stride;predictor=stride";
    req.instructions = 50000;
    req.warmup = 10000;
    req.sampleBudget = 20000;
    req.sampleWindow = 60000;
    EXPECT_FALSE(client.submit(req, &error));
    EXPECT_NE(error.find("longer than the measured region"),
              std::string::npos)
        << error;

    // Mistyped sample fields in a hand-rolled frame get an error
    // frame too, and the connection survives both rejections.
    ASSERT_TRUE(writeFrame(
        client.fd(),
        "{\"type\":\"submit\",\"grid\":\"workload=micro.stride;"
        "predictor=stride\",\"sample_budget\":\"lots\"}"));
    std::string payload;
    ASSERT_EQ(readFrame(client.fd(), payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("\"error\""), std::string::npos);
    EXPECT_NE(payload.find("sample_budget"), std::string::npos);

    EXPECT_TRUE(client.ping(&error)) << error;

    // A valid sampled submit still works on the same connection.
    req.sampleWindow = 4096;
    req.sampleBudget = 20000;
    EXPECT_TRUE(client.submit(req, &error)) << error;
    EXPECT_TRUE(client.streamResults(nullptr, nullptr, &error))
        << error;
}

TEST(DaemonTest, OutOfRangeOrderAndTableGetErrorFramesNotACrash)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;

    // Each of these reached a constructor assert, which aborted the
    // whole daemon.
    const std::pair<const char *, const char *> bad[] = {
        {"workload=mcf;predictor=gdiff;order=65",
         "gdiff order 65 is out of range"},
        {"workload=mcf;predictor=gdiff2;order=1",
         "gdiff2 order 1 is out of range"},
        {"workload=mcf;predictor=gdiff2;order=17",
         "gdiff2 order 17 is out of range"},
        {"workload=mcf;scheme=sgvq;order=65",
         "sgvq order 65 is out of range"},
        {"workload=mcf;scheme=hgvq;order=65",
         "hgvq order 65 is out of range"},
        {"workload=mcf;predictor=stride;table=1000",
         "not a power of two"},
        {"workload=mcf;predictor=gdiff;table=1099511627776",
         "above the 1048576-entry limit"},
        {"workload=mcf;predictor=gdiff;order=4294967304",
         "out of range"},
        {"workload=mcf;predictor=gdiff;order=4294967296",
         "out of range"},
    };
    for (const auto &[grid, message] : bad) {
        SubmitRequest req;
        req.grid = grid;
        req.instructions = 2000;
        req.warmup = 100;
        EXPECT_FALSE(client.submit(req, &error)) << grid;
        EXPECT_NE(error.find(message), std::string::npos)
            << grid << ": " << error;
    }

    EXPECT_TRUE(client.ping(&error)) << error;
    EXPECT_EQ(submitSmallGrid(client, "after").size(), 4u);
}

TEST(DaemonTest, SecondClientIsServedEntirelyFromTheSharedCache)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client first;
    ASSERT_TRUE(first.connect(cfg.socketPath, &error)) << error;
    SweepOutcome coldOutcome;
    std::vector<std::string> coldLines =
        submitSmallGrid(first, "cold", &coldOutcome);
    uint64_t generationsAfterFirst =
        daemon.stats().traceCache.generations;
    EXPECT_GT(generationsAfterFirst, 0u);

    Client second;
    ASSERT_TRUE(second.connect(cfg.socketPath, &error)) << error;
    SweepOutcome warmOutcome;
    std::vector<std::string> warmLines =
        submitSmallGrid(second, "warm", &warmOutcome);

    // Identical results, and not one new trace materialization: every
    // warm job replayed out of the daemon-lifetime cache.
    EXPECT_EQ(warmLines, coldLines);
    EXPECT_EQ(daemon.stats().traceCache.generations,
              generationsAfterFirst);
    EXPECT_EQ(warmOutcome.generated, 0u);
    EXPECT_EQ(warmOutcome.replayed, warmOutcome.jobs);
}

TEST(DaemonTest, OversweepIsRejectedWithBackpressure)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    cfg.maxQueuedJobs = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;

    // 4 jobs against a 2-slot queue: rejected outright, whatever the
    // workers are doing.
    SubmitRequest req;
    req.grid = "workload=micro.stride;predictor=stride,gdiff;"
               "order=2,4";
    req.instructions = kSmallInstructions;
    req.warmup = kSmallWarmup;
    EXPECT_FALSE(client.submit(req, &error));
    EXPECT_NE(error.find("queue full"), std::string::npos) << error;
    EXPECT_EQ(daemon.stats().rejectedSweeps, 1u);

    // The connection survives a rejection, and a sweep that fits is
    // accepted on it.
    req.grid = "workload=micro.stride;predictor=stride";
    EXPECT_TRUE(client.submit(req, &error)) << error;
    EXPECT_TRUE(client.streamResults(nullptr, nullptr, &error))
        << error;
}

TEST(DaemonTest, GarbageJsonGetsAnErrorAndTheConnectionSurvives)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;

    // Valid framing, garbage payload: the daemon answers with an
    // error frame and keeps the connection.
    ASSERT_TRUE(writeFrame(client.fd(), "not json at all"));
    std::string payload;
    ASSERT_EQ(readFrame(client.fd(), payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("\"error\""), std::string::npos);
    EXPECT_NE(payload.find("invalid JSON"), std::string::npos);

    // Ditto a well-formed frame of the wrong shape.
    ASSERT_TRUE(writeFrame(client.fd(), "[1,2,3]"));
    ASSERT_EQ(readFrame(client.fd(), payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("\"error\""), std::string::npos);

    // And an unknown workload in an otherwise valid submit.
    ASSERT_TRUE(writeFrame(
        client.fd(),
        "{\"type\":\"submit\",\"grid\":\"workload=nope;"
        "predictor=stride\"}"));
    ASSERT_EQ(readFrame(client.fd(), payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("unknown workload"), std::string::npos);

    EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(DaemonTest, OversizedPrefixDropsOnlyThatClient)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client hostile;
    ASSERT_TRUE(hostile.connect(cfg.socketPath, &error)) << error;
    const unsigned char prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_EQ(send(hostile.fd(), prefix, 4, MSG_NOSIGNAL), 4);
    // The daemon explains, then hangs up on the desynchronized peer.
    std::string payload;
    ASSERT_EQ(readFrame(hostile.fd(), payload), FrameStatus::Ok);
    EXPECT_NE(payload.find("exceeds limit"), std::string::npos);
    EXPECT_EQ(readFrame(hostile.fd(), payload), FrameStatus::Eof);

    // Everyone else is unaffected.
    Client polite;
    ASSERT_TRUE(polite.connect(cfg.socketPath, &error)) << error;
    EXPECT_TRUE(polite.ping(&error)) << error;
}

TEST(DaemonTest, DisconnectMidSweepFreesEveryQueueSlot)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    cfg.maxQueuedJobs = 64;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    {
        Client doomed;
        ASSERT_TRUE(doomed.connect(cfg.socketPath, &error)) << error;
        SubmitRequest req;
        req.grid = "workload=micro.stride,micro.periodic;"
                   "predictor=stride,gdiff,dfcm;order=2,4";
        req.instructions = 100000;
        req.warmup = 10000;
        ASSERT_TRUE(doomed.submit(req, &error)) << error;
        // Vanish without reading a single result.
        doomed.close();
    }

    // Every admitted slot must come back — the purge happens on the
    // reader's disconnect, the in-flight job just finishes.
    ASSERT_TRUE(waitForIdle(daemon));
    DaemonStats s = daemon.stats();
    EXPECT_EQ(s.queuedJobs, 0u);
    EXPECT_EQ(s.runningJobs, 0u);
    EXPECT_EQ(s.completedJobs + s.droppedJobs, 12u);

    // And the daemon still serves a full sweep afterwards.
    Client next;
    ASSERT_TRUE(next.connect(cfg.socketPath, &error)) << error;
    SweepOutcome outcome;
    submitSmallGrid(next, "survivor", &outcome);
    EXPECT_EQ(outcome.jobs, 4u);
}

TEST(DaemonTest, SignalDrainWakesAnAlreadyIdleWaiter)
{
    // gdiffd's main thread blocks in waitUntilDrained *before* any
    // drain is requested. When the signal lands while the daemon is
    // idle — no queued or running jobs to finish and re-test the
    // predicate — requestDrain itself must wake the waiter, or the
    // process hangs forever on a clean SIGTERM.
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    std::thread waiter([&] { daemon.waitUntilDrained(); });
    // Let the waiter actually park on the drain condition first.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon.requestDrain();
    waiter.join(); // hangs (test times out) if the notify is missing
}

TEST(DaemonTest, DrainFinishesAdmittedWorkThenRefusesNew)
{
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;
    SubmitRequest req;
    req.grid = kSmallGrid;
    req.instructions = kSmallInstructions;
    req.warmup = kSmallWarmup;
    ASSERT_TRUE(client.submit(req, &error)) << error;

    // Drain while the sweep is (likely) still queued: every admitted
    // job must still stream out, ending in sweep_done.
    daemon.requestDrain();
    SweepOutcome outcome;
    EXPECT_TRUE(client.streamResults(nullptr, &outcome, &error))
        << error;
    EXPECT_EQ(outcome.jobs, 4u);

    // Post-drain submits are refused politely.
    EXPECT_FALSE(client.submit(req, &error));
    EXPECT_NE(error.find("draining"), std::string::npos) << error;

    daemon.waitUntilDrained();
    EXPECT_EQ(daemon.stats().completedJobs, 4u);
}

TEST(DaemonTest, StatusReportsCacheAndLatencyHistograms)
{
    // The latency sections come from the obs histograms, which the
    // daemon only populates when the runtime gate is on (gdiffd
    // enables it at startup; tests must too).
    obs::setEnabled(true);
    DaemonConfig cfg;
    cfg.socketPath = testSocketPath();
    cfg.workers = 1;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    Client client;
    ASSERT_TRUE(client.connect(cfg.socketPath, &error)) << error;
    submitSmallGrid(client, "statuser");

    std::string statusJson;
    ASSERT_TRUE(client.status(&statusJson, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parse(statusJson, doc, &error)) << error;
    const json::Value *cacheDoc = doc.find("trace_cache");
    ASSERT_NE(cacheDoc, nullptr);
    EXPECT_GE(cacheDoc->find("generations")->number, 1.0);
    const json::Value *jobMs = doc.find("job_ms");
    ASSERT_NE(jobMs, nullptr);
    EXPECT_EQ(jobMs->find("count")->number, 4.0);
    EXPECT_GE(jobMs->find("p99_ms")->number,
              jobMs->find("p50_ms")->number);
    // The batch-kernel dispatch decision is process-wide; status
    // must report the same name the obs counters use.
    const json::Value *simdField = doc.find("simd_dispatch");
    ASSERT_NE(simdField, nullptr);
    EXPECT_EQ(simdField->str, simd::activeName());
}
