/**
 * @file
 * gdiffsim — the command-line simulator a downstream user drives.
 *
 * Three modes over any built-in kernel or recorded trace file:
 *
 *   profile   architectural-order value prediction (Fig. 8 style)
 *   address   load-address prediction with D-cache miss split (§6)
 *   pipeline  full OOO run with a value-speculation scheme (§4-§7)
 *
 * Examples:
 *   gdiffsim --workload=mcf --predictors=stride,dfcm,gdiff
 *   gdiffsim --workload=parser --mode=address
 *   gdiffsim --workload=mcf --mode=pipeline --scheme=hgvq
 *   gdiffsim --workload=gzip --record=gzip.trc --instructions=2000000
 *   gdiffsim --trace=gzip.trc --predictors=gdiff2 --order=8
 *   gdiffsim --program=examples/spill_fill.s --predictors=stride,gdiff
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/ooo_model.hh"
#include "predictors/markov.hh"
#include "runner/factory.hh"
#include "runner/job.hh"
#include "sim/profile.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "workload/assembler.hh"
#include "workload/trace_io.hh"
#include "workload/workload.hh"

using namespace gdiff;

namespace {

struct Options
{
    std::string workload = "parser";
    std::string program;      // assemble a .s file instead of a kernel
    std::string trace;        // replay file instead of a kernel
    std::string record;       // write the stream here and exit
    std::string mode = "profile";
    std::string scheme = "hgvq";
    std::vector<std::string> predictors = {"stride", "dfcm", "gdiff"};
    unsigned order = 8;
    size_t tableEntries = 8192;
    uint64_t instructions = 1'000'000;
    uint64_t warmup = 100'000;
    uint64_t seed = 1;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload=NAME | --program=FILE.s | --trace=FILE]\n"
        "  [--mode=profile|"
        "address|pipeline]\n"
        "  [--predictors=a,b,...] (last,lastn,stride,fcm,dfcm,hybrid,pi,gfcm,"
        "gdiff,gdiff2)\n"
        "  [--scheme=baseline|l_stride|l_context|sgvq|hgvq] (pipeline "
        "mode)\n"
        "  [--order=N] [--table=N] [--instructions=N] [--warmup=N]\n"
        "  [--seed=N] [--record=FILE]\n"
        "workloads:",
        argv0);
    for (const auto &n : workload::specWorkloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto take = [&](const char *key, std::string &out) {
            std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) == 0) {
                out = a.substr(prefix.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (take("--workload", o.workload)) {
        } else if (take("--program", o.program)) {
        } else if (take("--trace", o.trace)) {
        } else if (take("--record", o.record)) {
        } else if (take("--mode", o.mode)) {
        } else if (take("--scheme", o.scheme)) {
        } else if (take("--predictors", v)) {
            o.predictors.clear();
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                o.predictors.push_back(item);
        } else if (take("--order", v)) {
            o.order = static_cast<unsigned>(
                parseU64Flag("--order", v.c_str()));
        } else if (take("--table", v)) {
            // 0 = unlimited tables
            o.tableEntries =
                parseU64Flag("--table", v.c_str(), true);
        } else if (take("--instructions", v)) {
            o.instructions =
                parseU64Flag("--instructions", v.c_str());
        } else if (take("--warmup", v)) {
            o.warmup = parseU64Flag("--warmup", v.c_str(), true);
        } else if (take("--seed", v)) {
            o.seed = parseU64Flag("--seed", v.c_str(), true);
        } else {
            usage(argv[0]);
        }
    }
    return o;
}

/** The stream a run consumes: a kernel's executor or a trace replay. */
struct Stream
{
    std::unique_ptr<workload::TraceSource> source;
    const workload::TraceReader *replay = nullptr; ///< set by --trace
};

Stream
makeStream(const Options &o)
{
    Stream s;
    if (!o.trace.empty()) {
        auto reader = std::make_unique<workload::TraceReader>();
        reader->open(o.trace);
        s.replay = reader.get();
        s.source = std::move(reader);
    } else if (!o.program.empty()) {
        workload::Workload w =
            workload::assembleWorkloadFile(o.program);
        s.source = w.makeExecutor();
    } else {
        workload::Workload w =
            workload::makeWorkload(o.workload, o.seed);
        s.source = w.makeExecutor();
    }
    return s;
}

/**
 * fatal() if a --trace replay failed to open or stopped on a damaged
 * block rather than at its end: a run over a truncated or corrupt
 * trace must not print results.
 */
void
requireIntact(const Stream &s)
{
    if (s.replay && s.replay->status().failed())
        fatal("%s", s.replay->status().message.c_str());
}

std::unique_ptr<predictors::ValuePredictor>
makePredictor(const std::string &name, const Options &o)
{
    return runner::makePredictor(name, o.order, o.tableEntries);
}

/**
 * The order the pipeline scheme runs at: the gdiff schemes default to
 * the paper's pipeline order of 32 unless the user asked for a larger
 * window explicitly.
 */
unsigned
pipelineOrder(const Options &o)
{
    return o.order > 8 ? o.order : 32;
}

/**
 * @return the first predictor or scheme the run would build that
 * gdiffrun and gdiffd would reject for its order or table size, as
 * their error message; empty when all are valid.
 */
std::string
invalidFamily(const Options &o)
{
    const bool pipe = o.mode == "pipeline";
    runner::JobSpec spec;
    spec.workload = !o.trace.empty()     ? o.trace
                    : !o.program.empty() ? o.program
                                         : o.workload;
    spec.seed = o.seed;
    spec.mode = pipe ? runner::JobMode::Pipeline : runner::JobMode::Profile;
    spec.order = pipe ? pipelineOrder(o) : o.order;
    spec.tableEntries = o.tableEntries;
    std::string error;
    for (const auto &n : pipe ? std::vector{o.scheme} : o.predictors) {
        (pipe ? spec.scheme : spec.predictor) = n;
        if (!spec.validateOr(&error))
            return error;
    }
    return {};
}

int
runRecord(const Options &o, const Stream &in)
{
    workload::TraceWriter writer(o.record);
    // Record chunk-at-a-time: each full chunk lands as one on-disk
    // block, the final partial chunk is trimmed to the budget.
    auto chunk = std::make_unique<workload::TraceChunk>();
    while (writer.status().ok() && writer.written() < o.instructions &&
           in.source->fill(*chunk)) {
        uint64_t remaining = o.instructions - writer.written();
        if (chunk->size > remaining)
            chunk->size = static_cast<uint32_t>(remaining);
        writer.append(*chunk);
    }
    uint64_t written = writer.written();
    workload::TraceIoResult closed = writer.close();
    if (closed.failed())
        fatal("%s", closed.message.c_str());
    requireIntact(in);
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(written),
                o.record.c_str());
    return 0;
}

int
runProfile(const Options &o, const Stream &in)
{
    std::vector<std::unique_ptr<predictors::ValuePredictor>> preds;
    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = o.instructions;
    pcfg.warmupInstructions = o.warmup;
    sim::ValueProfileRunner runner(pcfg);
    for (const auto &n : o.predictors) {
        preds.push_back(makePredictor(n, o));
        runner.addPredictor(*preds.back());
    }
    runner.run(*in.source);
    requireIntact(in);
    std::printf("%-10s %10s %10s %10s\n", "predictor", "accuracy",
                "coverage", "gated-acc");
    for (const auto &s : runner.results()) {
        std::printf("%-10s %9.2f%% %9.2f%% %9.2f%%\n", s.name.c_str(),
                    100.0 * s.accuracyAll.value(),
                    100.0 * s.coverage.value(),
                    100.0 * s.accuracyGated.value());
    }
    return 0;
}

int
runAddress(const Options &o, const Stream &in)
{
    std::vector<std::unique_ptr<predictors::ValuePredictor>> preds;
    sim::ProfileConfig pcfg;
    pcfg.maxInstructions = o.instructions;
    pcfg.warmupInstructions = o.warmup;
    sim::AddressProfileRunner runner(pcfg);
    for (const auto &n : o.predictors) {
        preds.push_back(makePredictor(n, o));
        runner.addPredictor(*preds.back());
    }
    predictors::MarkovPredictor mk_all(256 * 1024, 4);
    predictors::MarkovPredictor mk_miss(256 * 1024, 4);
    runner.setMarkov(mk_all, mk_miss);
    runner.run(*in.source);
    requireIntact(in);
    std::printf("D-cache miss rate: %.2f%%\n",
                100.0 * runner.dcacheMissRate());
    std::printf("%-10s %9s %9s | %9s %9s (missing loads)\n",
                "predictor", "cov", "acc", "cov", "acc");
    for (const auto &s : runner.results()) {
        std::printf("%-10s %8.2f%% %8.2f%% | %8.2f%% %8.2f%%\n",
                    s.name.c_str(), 100.0 * s.coverageAll.value(),
                    100.0 * s.accuracyAll.value(),
                    100.0 * s.coverageMiss.value(),
                    100.0 * s.accuracyMiss.value());
    }
    return 0;
}

int
runPipeline(const Options &o, const Stream &in)
{
    std::unique_ptr<pipeline::VpScheme> scheme =
        runner::makeScheme(o.scheme, pipelineOrder(o), o.tableEntries);

    pipeline::OooPipeline pipe(pipeline::PipelineConfig::paper(),
                               *scheme);
    pipeline::PipelineStats s =
        pipe.run(*in.source, o.instructions, o.warmup);
    requireIntact(in);
    std::printf("scheme           %s\n", scheme->name().c_str());
    std::printf("instructions     %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("cycles           %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("IPC              %.3f\n", s.ipc);
    std::printf("D$ miss rate     %.2f%%\n",
                100.0 * s.dcacheMissRate);
    std::printf("branch accuracy  %.2f%%\n",
                100.0 * s.branchAccuracy);
    std::printf("vp coverage      %.2f%%\n",
                100.0 * s.coverage.value());
    std::printf("vp accuracy      %.2f%%\n",
                100.0 * s.gatedAccuracy.value());
    std::printf("miss-load cov    %.2f%%\n",
                100.0 * s.missLoadCoverage.value());
    std::printf("miss-load acc    %.2f%%\n",
                100.0 * s.missLoadAccuracy.value());
    std::printf("avg value delay  %.2f\n", s.valueDelay.mean());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    int (*run)(const Options &, const Stream &) = nullptr;
    if (!o.record.empty())
        run = runRecord;
    else if (o.mode == "profile")
        run = runProfile;
    else if (o.mode == "address")
        run = runAddress;
    else if (o.mode == "pipeline")
        run = runPipeline;
    else
        usage(argv[0]);
    if (o.record.empty()) {
        const std::string error = invalidFamily(o);
        if (!error.empty())
            fatal("%s", error.c_str());
    }
    Stream in = makeStream(o);
    requireIntact(in);
    return run(o, in);
}
