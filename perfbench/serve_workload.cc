/**
 * @file
 * serve_warm: an in-process serve::Daemon with kThreads workers on a
 * scratch socket and a warm trace cache, driven closed loop by
 * kThreads clients that each wait for a reply before the next
 * request. Only this workload puts framing, admission, fair
 * scheduling and result streaming on the request path.
 *
 * A request is the 4 kernels x {gdiff, stride} profile grid at 200k
 * records, about 50 ms with two clients sharing the two workers:
 * long enough that its latency percentiles repeat across processes,
 * where requests of a few ms swung with host noise. Every answer
 * must equal in-process runner::runJob.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "runner/runner.hh"
#include "runner/sweep_spec.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "workloads.hh"

namespace perfbench {

using namespace gdiff;
using runner::JobRecord;
using runner::JobSpec;

namespace {

constexpr uint64_t kInstructions = 200'000;
constexpr uint64_t kWarmup = 20'000;
constexpr unsigned kSetupReps = 15;
/// in-process grid runs per thread in the traced run's comparison
constexpr unsigned kInProcessGrids = 20;

std::string
gridFor(uint64_t seed)
{
    return "workload=mcf,gzip,parser,gap;predictor=gdiff,stride;seed=" +
           std::to_string(seed);
}

/** The jobs the daemon expands one request into (its submit
 * handling: an explicit budget replaces the grid's). */
std::vector<JobSpec>
requestJobs(uint64_t seed)
{
    runner::SweepSpec s = runner::SweepSpec::parseGrid(gridFor(seed));
    s.defaultInstructions = kInstructions;
    s.instructionWindows.clear();
    s.warmup = kWarmup;
    return s.expand();
}

/** One request's outcome, as its client saw it. */
struct RequestOut
{
    bool ok = false;
    double seconds = 0;
    double daemonSeconds = 0;
    std::string error;
    std::vector<std::string> lines;
};

RequestOut
request(serve::Client &client, const serve::SubmitRequest &req,
        uint64_t op)
{
    RequestOut out;
    std::vector<JobRecord> recs;
    serve::SweepOutcome outcome;
    auto t0 = Clock::now();
    {
        ScopedSpan r("request", op);
        {
            ScopedSpan s("serve.submit");
            out.ok = client.submit(req, &out.error);
        }
        if (out.ok) {
            ScopedSpan s("serve.stream");
            out.ok = client.streamResults(
                [&](const JobRecord &rec) { recs.push_back(rec); },
                &outcome, &out.error);
        }
    }
    out.seconds = secondsSince(t0);
    out.daemonSeconds = outcome.wallSeconds;
    out.lines = payloads(std::move(recs));
    return out;
}

/** The daemon under test; drained and joined on destruction. */
struct Server
{
    std::unique_ptr<serve::Daemon> daemon;

    ~Server() { stop(); }

    void
    stop()
    {
        if (!daemon)
            return;
        daemon->requestDrain();
        daemon->waitUntilDrained();
        daemon.reset();
    }
};

/** One client's closed-loop log. */
struct ClientLog
{
    std::vector<double> ms;
    std::vector<double> daemonMs;
    uint64_t ok = 0;
    uint64_t failed = 0;
    std::string firstError;
};

/** Send requests back to back until @p deadline. A request fails if
 * it is rejected, answers with an error frame, comes back truncated,
 * or differs from the reference. */
void
clientLoop(const std::string &socket, const serve::SubmitRequest &req,
           const Expected &expected, Clock::time_point deadline,
           uint64_t opBase, ClientLog &log)
{
    serve::Client client;
    std::string error;
    for (uint64_t n = 0; Clock::now() < deadline; ++n) {
        if (!client.connected() && !client.connect(socket, &error)) {
            ++log.failed;
            if (log.firstError.empty())
                log.firstError = error;
            continue;
        }
        RequestOut r = request(client, req, opBase + n);
        if (r.ok && expected.matches(r.lines)) {
            ++log.ok;
            log.ms.push_back(r.seconds * 1e3);
            log.daemonMs.push_back(r.daemonSeconds * 1e3);
            continue;
        }
        ++log.failed;
        if (log.firstError.empty())
            log.firstError = r.ok ? "results differ from in-process "
                                    "runJob"
                                  : r.error;
        if (!r.ok)
            client.close(); // the stream is out of step: reconnect
    }
}

/** kThreads clients for @p seconds. @return the merged log and the
 * phase's wall time. */
ClientLog
closedLoop(const std::string &socket, const serve::SubmitRequest &req,
           const Expected &expected, double seconds, uint64_t &nextOp,
           Report &report, double &wall)
{
    std::vector<ClientLog> logs(kThreads);
    auto t0 = Clock::now();
    auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kThreads; ++c)
        clients.emplace_back([&, c, opBase = nextOp + c * 1'000'000] {
            clientLoop(socket, req, expected, deadline, opBase, logs[c]);
        });
    for (std::thread &t : clients)
        t.join();
    wall = secondsSince(t0);
    nextOp += kThreads * 1'000'000;

    ClientLog all;
    for (const ClientLog &l : logs) {
        all.ms.insert(all.ms.end(), l.ms.begin(), l.ms.end());
        all.daemonMs.insert(all.daemonMs.end(), l.daemonMs.begin(),
                            l.daemonMs.end());
        for (uint64_t i = 0; i < l.ok; ++i)
            report.op(true);
        for (uint64_t i = 0; i < l.failed; ++i)
            report.op(false);
        all.ok += l.ok;
        all.failed += l.failed;
        if (!l.firstError.empty())
            std::printf("perfbench: FAIL: request: %s\n",
                        l.firstError.c_str());
    }
    return all;
}

/**
 * The set-up: start the daemon and make one warm pass, which
 * materializes every trace the timed requests replay in the daemon's
 * own cache. @return its wall time.
 */
double
setUp(Server &server, const std::string &socket,
      const serve::SubmitRequest &req, const Expected &expected,
      Report &report)
{
    auto t0 = Clock::now();
    std::string error;
    {
        ScopedSpan s("serve.start");
        serve::DaemonConfig cfg;
        cfg.socketPath = socket;
        cfg.workers = kThreads;
        server.daemon = std::make_unique<serve::Daemon>(cfg);
        if (!server.daemon->start(&error)) {
            report.problem("daemon did not start: " + error);
            return secondsSince(t0);
        }
    }
    serve::Client client;
    if (!client.connect(socket, &error)) {
        report.problem("cannot connect to the daemon: " + error);
        return secondsSince(t0);
    }
    RequestOut warm = request(client, req, 0);
    double seconds = secondsSince(t0);
    if (!warm.ok || !expected.matches(warm.lines))
        report.problem("warm pass failed: " +
                       (warm.ok ? "results differ from in-process runJob"
                                : warm.error));
    return seconds;
}

/** Daemon-side counters that must not move in a timed phase. */
void
guardDaemon(const serve::DaemonStats &b, const serve::DaemonStats &a,
            Report &report)
{
    uint64_t gens = a.traceCache.generations - b.traceCache.generations;
    uint64_t evictions = a.traceCache.evictions - b.traceCache.evictions;
    if (gens || evictions)
        report.problem("daemon cache: " + std::to_string(gens) +
                       " generations and " + std::to_string(evictions) +
                       " evictions inside the timed phase");
}

} // namespace

void
runServeWorkload(const Options &opt, Report &report)
{
    Expected expected(opt, report);
    const std::vector<JobSpec> jobs = requestJobs(opt.seed);
    const std::string socket = opt.workdir + "/gdiffd.sock";
    serve::SubmitRequest req;
    req.grid = gridFor(opt.seed);
    req.instructions = kInstructions;
    req.warmup = kWarmup;
    const double recordsPerRequest =
        static_cast<double>(jobs.size() * (kInstructions + kWarmup));

    // In-process reference, which also warms this process up.
    workload::TraceCache &local = workload::TraceCache::global();
    std::vector<JobRecord> recs(jobs.size());
    double generateSeconds = 0;
    std::set<std::string> kernels;
    for (size_t i = 0; i < jobs.size(); ++i) {
        recs[i] = {i, jobs[i], runner::runJob(jobs[i], &local)};
        generateSeconds += recs[i].result.traceGenerateSeconds;
        kernels.insert(jobs[i].workload);
    }
    expected.setReference(payloads(recs), "in-process runJob");

    Server server;
    uint64_t nextOp = 1;
    Tracer &tracer = Tracer::get();
    if (!opt.trace) {
        std::vector<double> setups;
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            server.stop();
            releaseFreedMemory();
            setups.push_back(setUp(server, socket, req, expected, report));
            std::printf("perfbench: set-up %u: %.4f s\n", rep + 1,
                        setups.back());
        }
        double wall = 0;
        closedLoop(socket, req, expected, 1.0, nextOp, report, wall);
        serve::DaemonStats before = server.daemon->stats();
        ClientLog log = closedLoop(socket, req, expected, opt.seconds,
                                   nextOp, report, wall);
        serve::DaemonStats after = server.daemon->stats();
        guardDaemon(before, after, report);
        report.metric("setup_s", median(setups), "s");
        report.metric("records_per_s",
                      static_cast<double>(log.ok) * recordsPerRequest / wall,
                      "1/s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.latency(log.ms, "request");
        return;
    }

    tracer.start();
    {
        ScopedSpan s("setup");
        setUp(server, socket, req, expected, report);
    }
    tracer.stop();
    const double phase = std::max(1.0, opt.seconds / 3.0);
    double wall = 0;
    serve::DaemonStats s0 = server.daemon->stats();
    ClientLog untraced =
        closedLoop(socket, req, expected, phase, nextOp, report, wall);
    serve::DaemonStats s1 = server.daemon->stats();
    const uint64_t from = nowNs();
    tracer.start();
    ClientLog traced =
        closedLoop(socket, req, expected, phase, nextOp, report, wall);
    tracer.stop();
    const uint64_t to = nowNs();
    serve::DaemonStats s2 = server.daemon->stats();
    guardDaemon(s0, s2, report);

    // The same grid in process, by kThreads callers at once, each
    // running it job after job — the daemon's load without serve.
    std::vector<std::vector<double>> inProcess(kThreads);
    tracer.start();
    {
        ScopedSpan probe("probe");
        uint32_t probeId = probe.id();
        std::vector<std::thread> callers;
        for (unsigned c = 0; c < kThreads; ++c)
            callers.emplace_back([&, c] {
                for (unsigned g = 0; g < kInProcessGrids; ++g) {
                    ScopedSpan s("probe.runner.grid", 0, probeId);
                    for (const JobSpec &j : jobs)
                        runner::runJob(j, &local);
                    inProcess[c].push_back(s.elapsed() * 1e3);
                }
            });
        for (std::thread &t : callers)
            t.join();
    }
    tracer.stop();
    std::vector<double> inProcessMs;
    for (const auto &v : inProcess)
        inProcessMs.insert(inProcessMs.end(), v.begin(), v.end());

    std::vector<double> transport;
    for (size_t i = 0; i < traced.ms.size(); ++i)
        transport.push_back(traced.ms[i] - traced.daemonMs[i]);
    LayerTimes lt = layerTimes(tracer.spans(), from, to);
    const workload::TraceCache::Stats &c1 = s1.traceCache;
    const workload::TraceCache::Stats &c2 = s2.traceCache;
    uint64_t hits = c2.hits - c1.hits, misses = c2.misses - c1.misses;

    report.layer("workload.generate_s", generateSeconds);
    report.layer("workload.generate_records_per_s",
                 ratio(static_cast<double>(kernels.size()) *
                           (kInstructions + kWarmup),
                       generateSeconds));
    report.layer("trace_cache.hit_ratio",
                 ratio(static_cast<double>(hits),
                       static_cast<double>(hits + misses)));
    report.layer("trace_cache.generations",
                 static_cast<double>(c2.generations - c1.generations));
    report.layer("trace_cache.evictions",
                 static_cast<double>(c2.evictions - c1.evictions));
    report.layer("trace_cache.resident_mb",
                 static_cast<double>(c2.residentBytes) / (1 << 20));
    report.layer("serve.daemon_ms", median(traced.daemonMs));
    report.layer("serve.transport_ms", median(transport));
    report.layer("serve.overhead_ratio",
                 ratio(median(traced.ms), median(inProcessMs)));
    report.layer("serve.rejected",
                 static_cast<double>(s2.rejectedSweeps - s0.rejectedSweeps));
    report.layer("trace.overhead_ratio",
                 ratio(median(traced.ms), median(untraced.ms)));
    report.layer("unattributed_ratio",
                 ratio(lt.self["request"], lt.total["request"]));
}

} // namespace perfbench
