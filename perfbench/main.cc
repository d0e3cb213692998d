/**
 * @file
 * perfbench — the repository benchmark driver.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --workdir DIR --tracecheck BIN --expected FILE
 *
 * Runs one workload (profile_zoo, pipeline_mix, sampled_disk or
 * serve_warm) and prints its metrics, one per line, then one JSON
 * object as the last line: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones;
 * with --trace 1 the per-layer ones of a separate traced run, whose
 * spans are written as Chrome trace-event JSON and validated with
 * tracecheck. perfbench/run.py builds this and supplies the paths.
 * Exit status is 0 only when every output checked out.
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "sample/sample.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --tracecheck BIN "
                 "--expected FILE\n",
                 argv0);
    return 2;
}

/** Strict non-negative integer. */
bool
parseU64(const char *s, uint64_t &out)
{
    if (!*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    uint64_t seconds = 0, trace = 0;
    bool haveSeconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        bool ok = true;
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            ok = parseU64(val, opt.seed);
        else if (key == "--seconds")
            ok = haveSeconds = parseU64(val, seconds);
        else if (key == "--trace")
            ok = parseU64(val, trace) && trace <= 1;
        else if (key == "--workdir")
            opt.workdir = val;
        else if (key == "--tracecheck")
            opt.tracecheck = val;
        else if (key == "--expected")
            opt.expected = val;
        else
            ok = false;
        if (!ok)
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || !haveSeconds || seconds == 0 ||
        seconds > 3600 || opt.workdir.empty() ||
        opt.tracecheck.empty() || opt.expected.empty() ||
        !(isSweepWorkload(opt.workload) || opt.workload == "serve_warm"))
        return usage(argv[0]);
    opt.seconds = static_cast<unsigned>(seconds);
    opt.trace = trace == 1;

    // The benchmark keeps every file inside its work directory: no
    // disk tier from the environment.
    unsetenv("GDIFF_TRACE_CACHE_DIR");
    std::filesystem::create_directories(opt.workdir);
    gdiff::sample::install();

    std::printf("perfbench: workload=%s seed=%" PRIu64
                " seconds=%u trace=%d\n",
                opt.workload.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0);
    Report report;
    if (opt.workload == "serve_warm")
        runServeWorkload(opt, report);
    else
        runSweepWorkload(opt, report);

    if (opt.trace) {
        report.addLayerMetrics();
        const std::vector<Span> spans = Tracer::get().spans();
        uint64_t ops = 0;
        for (const Span &s : spans)
            ops += std::strcmp(s.name, "job") == 0 ||
                   std::strcmp(s.name, "request") == 0;
        std::string path = opt.workdir + "/trace.json";
        if (!Tracer::get().writeChrome(path))
            report.problem("cannot write " + path);
        else if (!runTracecheck(opt.tracecheck, path, ops))
            report.problem("tracecheck rejected " + path);
        std::printf("perfbench: %zu spans, %" PRIu64
                    " operations traced\n",
                    spans.size(), ops);
    }
    report.print();
    return report.correct() ? 0 : 1;
}
