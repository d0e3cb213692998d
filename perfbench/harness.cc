#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unordered_map>

#include "util/json.hh"

extern char **environ;

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ----------------------------------------------------------- Report

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

const std::vector<std::string> kFamilies = {"gdiff", "gfcm", "dfcm",
                                            "fcm",   "stride", "last"};

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list =
        [] {
            std::vector<std::pair<std::string, std::string>> m = {
                {"workload.generate_s", "s"},
                {"workload.generate_records_per_s", "1/s"},
                {"trace_io.encode_records_per_s", "1/s"},
                {"trace_io.decode_records_per_s", "1/s"},
                {"trace_io.bytes_per_record", "B"},
                {"trace_cache.acquire_s", "s"},
                {"trace_cache.hit_ratio", "1"},
                {"trace_cache.disk_hits", "count"},
                {"trace_cache.generations", "count"},
                {"trace_cache.evictions", "count"},
                {"trace_cache.resident_mb", "MB"},
            };
            for (const std::string &f : kFamilies) {
                m.push_back({"predictors." + f + ".records_per_s", "1/s"});
                m.push_back({"predictors." + f + ".batch_speedup", "1"});
            }
            for (auto &e : std::vector<std::pair<std::string, std::string>>{
                     {"sim.profile_self_s", "s"},
                     {"pipeline.baseline.records_per_s", "1/s"},
                     {"pipeline.l_stride.records_per_s", "1/s"},
                     {"pipeline.hgvq.records_per_s", "1/s"},
                     {"pipeline.cycles_per_s", "1/s"},
                     {"pipeline.vp_cost_ratio", "1"},
                     {"mem.dcache_accesses_per_s", "1/s"},
                     {"mem.dcache_miss_rate", "1"},
                     {"sample.strata_s", "s"},
                     {"sample.windows_s", "s"},
                     {"sample.detail_fraction", "1"},
                     {"runner.parallel_efficiency", "1"},
                     {"runner.job_tail_ratio", "1"},
                     {"sinks.write_us_per_job", "us"},
                     {"serve.daemon_ms", "ms"},
                     {"serve.transport_ms", "ms"},
                     {"serve.overhead_ratio", "1"},
                     {"serve.rejected", "count"},
                     {"trace.overhead_ratio", "1"},
                     {"unattributed_ratio", "1"},
                 })
                m.push_back(e);
            return m;
        }();
    return list;
}

void
Report::layer(const std::string &name, double value)
{
    layers[name] = value;
}

void
Report::addLayerMetrics()
{
    for (const auto &[name, unit] : layerMetrics()) {
        auto it = layers.find(name);
        metric(name, it == layers.end() ? 0.0 : it->second, unit);
        if (it != layers.end())
            layers.erase(it);
    }
    for (const auto &[name, value] : layers)
        problem("per-layer metric " + name + " is not in the list");
}

void
Report::latency(const std::vector<double> &ms, const char *what)
{
    double p95 = percentile(ms, 0.95);
    size_t beyond = static_cast<size_t>(std::count_if(
        ms.begin(), ms.end(), [&](double v) { return v > p95; }));
    std::printf("perfbench: %zu %s latencies, %zu beyond p95\n",
                ms.size(), what, beyond);
    metric("request_p50_ms", median(ms), "ms");
    metric("request_p95_ms", p95, "ms");
}

void
Report::problem(const std::string &why)
{
    std::printf("perfbench: FAIL: %s\n", why.c_str());
    problems.push_back(why);
}

void
Report::print() const
{
    for (const auto &[name, vu] : metrics)
        std::printf("perfbench: %-36s %16.6f %s\n", name.c_str(),
                    vu.first, vu.second.c_str());
    std::printf("perfbench: error_rate %.6f (%" PRIu64 " of %" PRIu64
                " operations failed)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                failed, attempted);
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, vu] : metrics) {
        // A non-finite value is not JSON; report it as 0 and let the
        // human line above show what happened.
        double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + vu.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------- digests

std::vector<std::string>
payloads(std::vector<gdiff::runner::JobRecord> records)
{
    std::sort(records.begin(), records.end(),
              [](const auto &a, const auto &b) {
                  return a.index < b.index;
              });
    std::vector<std::string> lines;
    lines.reserve(records.size());
    for (const auto &r : records)
        lines.push_back(gdiff::runner::JsonlSink::deterministicJson(r));
    return lines;
}

std::string
digestLines(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &l : lines) {
        for (unsigned char c : l + "\n") {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

Expected::Expected(const Options &opt, Report &report)
    : report(report), workload(opt.workload), seed(opt.seed)
{
    std::ifstream is(opt.expected);
    std::stringstream ss;
    ss << is.rdbuf();
    gdiff::json::Value root;
    std::string error;
    if (!is.is_open() || !gdiff::json::parse(ss.str(), root, &error) ||
        !root.isObject()) {
        report.problem("cannot read committed digests " +
                       opt.expected + " " + error);
        return;
    }
    const gdiff::json::Value *w = root.find(workload);
    const gdiff::json::Value *d =
        w && w->isObject() ? w->find(std::to_string(seed)) : nullptr;
    if (d && d->isString())
        committed = d->asString();
}

void
Expected::setReference(const std::vector<std::string> &lines,
                       const char *what)
{
    reference = lines;
    const std::string refDigest = digestLines(lines);
    std::printf("perfbench: %s digest %s over %zu jobs", what,
                refDigest.c_str(), lines.size());
    if (committed.empty()) {
        std::printf(" (no digest committed for seed %" PRIu64
                    "; later passes are checked against this one)\n",
                    seed);
    } else if (committed == refDigest) {
        std::printf(" = committed digest\n");
    } else {
        std::printf("\n");
        report.problem(std::string(what) + " digest " + refDigest +
                       " differs from the committed " + committed);
    }
}

bool
Expected::matches(const std::vector<std::string> &lines) const
{
    return lines == reference;
}

size_t
Expected::checkJobs(const std::vector<std::string> &lines,
                    const char *what) const
{
    size_t bad = 0;
    for (size_t i = 0; i < reference.size(); ++i) {
        bool ok = i < lines.size() && lines[i] == reference[i];
        report.op(ok);
        if (!ok && bad++ == 0)
            std::printf("perfbench: FAIL: %s job %zu differs from the "
                        "reference: %s\n",
                        what, i,
                        i < lines.size() ? lines[i].c_str() : "missing");
    }
    // Extra records are failures too.
    for (size_t i = reference.size(); i < lines.size(); ++i, ++bad)
        report.op(false);
    return bad;
}

// ------------------------------------------------------------ spans

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

namespace {

std::atomic<uint32_t> nextTid{0};

uint32_t
threadId()
{
    thread_local uint32_t tid = ++nextTid;
    return tid;
}

/// open spans of this thread, innermost last: (id, op)
thread_local std::vector<std::pair<uint32_t, uint64_t>> openSpans;

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::add(Span s)
{
    std::lock_guard<std::mutex> guard(lock);
    store.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> guard(lock);
    return store;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t base = UINT64_MAX;
    uint32_t maxTid = 0;
    for (const Span &s : all) {
        base = std::min(base, s.start);
        maxTid = std::max(maxTid, s.tid);
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (uint32_t t = 1; t <= maxTid; ++t)
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"perfbench-%u\"}},\n",
                     t, t);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                     "\"parent\":%u,\"op\":%" PRIu64 "%s%s}}%s\n",
                     s.name, s.tid,
                     static_cast<double>(s.start - base) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, s.id,
                     s.parent, s.op, s.args.empty() ? "" : ",",
                     s.args.c_str(), i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

LayerTimes
layerTimes(const std::vector<Span> &spans, uint64_t from, uint64_t to)
{
    // Children run inside their parent on the same thread and one at
    // a time, so a parent's self time is its duration minus theirs.
    std::unordered_map<uint32_t, const Span *> byId;
    for (const Span &s : spans)
        byId[s.id] = &s;
    std::unordered_map<uint32_t, uint64_t> childNs;
    for (const Span &s : spans) {
        auto it = byId.find(s.parent);
        if (it != byId.end() && it->second->tid == s.tid)
            childNs[s.parent] += s.end - s.start;
    }
    LayerTimes t;
    for (const Span &s : spans) {
        if (s.start < from || s.start >= to)
            continue;
        uint64_t dur = s.end - s.start;
        uint64_t kids = childNs.count(s.id) ? childNs[s.id] : 0;
        t.self[s.name] += static_cast<double>(dur - std::min(dur, kids)) / 1e9;
        t.total[s.name] += static_cast<double>(dur) / 1e9;
        ++t.count[s.name];
    }
    return t;
}

ScopedSpan::ScopedSpan(const char *name, uint64_t op, uint32_t parent)
    : t0(nowNs()), active(Tracer::get().recording())
{
    if (!active)
        return;
    span.name = name;
    span.id = Tracer::get().nextId();
    span.tid = threadId();
    if (parent == 0 && !openSpans.empty())
        parent = openSpans.back().first;
    if (op == 0 && !openSpans.empty())
        op = openSpans.back().second;
    span.parent = parent;
    span.op = op;
    openSpans.emplace_back(span.id, op);
    span.start = t0;
}

ScopedSpan::~ScopedSpan()
{
    if (!active)
        return;
    span.end = nowNs();
    openSpans.pop_back();
    Tracer::get().add(std::move(span));
}

double
ScopedSpan::elapsed() const
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

bool
runTracecheck(const std::string &tracecheck, const std::string &path,
              uint64_t minSpans)
{
    std::fflush(stdout);
    std::string min = "--min-spans=" + std::to_string(minSpans);
    std::vector<char *> argv = {const_cast<char *>(tracecheck.c_str()),
                                const_cast<char *>(path.c_str()),
                                const_cast<char *>(min.c_str()),
                                nullptr};
    pid_t pid = 0;
    if (posix_spawn(&pid, tracecheck.c_str(), nullptr, nullptr,
                    argv.data(), environ) != 0)
        return false;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace perfbench
