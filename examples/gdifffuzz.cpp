/**
 * @file
 * gdifffuzz — the differential fuzzing driver (src/check/).
 *
 * Three things happen per run, all deterministic in --seed:
 *
 *  1. A fuzzed (pc, value) stream is generated and every requested
 *     production predictor is diffed prediction-by-prediction against
 *     its naive reference oracle:
 *
 *       gdifffuzz --cases=100000 --seed=1
 *
 *  2. Fuzzed synthetic-ISA programs are assembled, executed, and run
 *     through the OOO timing pipeline with the invariant checker
 *     enabled (in-order retire, ROB occupancy, issue/retire bandwidth,
 *     selective-reissue containment, IPC bound).
 *
 *  3. Any divergence is minimized with delta debugging and written as
 *     a trace-io v2 repro artifact (gdifffuzz_<pair>_seed<seed>.gdtr)
 *     that --replay accepts back.
 *
 * --mutate corrupts each oracle on purpose and *expects* the harness
 * to catch and shrink the divergence — a self-test that the checking
 * machinery is alive.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "check/reference.hh"
#include "check/shrink.hh"
#include "pipeline/ooo_model.hh"
#include "runner/factory.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace gdiff;

namespace {

struct Options
{
    uint64_t cases = 10'000;
    uint64_t seed = 1;
    unsigned order = 0; // 0 = per-pair default
    std::vector<std::string> pairs;
    bool mutate = false;
    bool batch = false;
    std::string replay;
    std::string outDir = ".";
    bool pipelinePhase = true;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --cases=N      records per fuzzed stream (default 10000)\n"
        "  --seed=S       RNG seed; fixes every input (default 1)\n"
        "  --pairs=a,b    predictor pairs to diff (default: all)\n"
        "  --order=N      history/window order (0 = pair default)\n"
        "  --mutate       corrupt each oracle on purpose; expect the\n"
        "                 harness to catch and shrink the divergence\n"
        "  --batch        also replay the stream scalar-vs-batch\n"
        "                 through every batched predictor family\n"
        "  --replay=FILE  diff a repro artifact instead of fuzzing\n"
        "  --out-dir=DIR  where repro artifacts go (default .)\n"
        "  --no-pipeline  skip the pipeline invariant phase\n"
        "pairs:",
        argv0);
    for (const auto &n : check::pairNames())
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
        auto take = [&](const char *key, std::string &dest) {
            std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) == 0) {
                dest = a.substr(prefix.size());
                return true;
            }
            if (a == key && i + 1 < argc) {
                dest = argv[++i];
                return true;
            }
            return false;
        };
        std::string v;
        if (take("--cases", v)) {
            o.cases = parseU64Flag("--cases", v.c_str());
        } else if (take("--seed", v)) {
            o.seed = parseU64Flag("--seed", v.c_str(), true);
        } else if (take("--order", v)) {
            o.order = static_cast<unsigned>(
                parseU64Flag("--order", v.c_str(), true));
        } else if (take("--pairs", v)) {
            std::string cur;
            for (char c : v + ",") {
                if (c == ',') {
                    if (!cur.empty())
                        o.pairs.push_back(cur);
                    cur.clear();
                } else {
                    cur += c;
                }
            }
        } else if (take("--replay", o.replay)) {
        } else if (take("--out-dir", o.outDir)) {
        } else if (a == "--mutate") {
            o.mutate = true;
        } else if (a == "--batch") {
            o.batch = true;
        } else if (a == "--no-pipeline") {
            o.pipelinePhase = false;
        } else {
            usage(argv[0]);
        }
    }
    if (o.pairs.empty())
        o.pairs = check::pairNames();
    return o;
}

/** Build the (fresh) pair for one diff trial. */
check::PredictorPair
freshPair(const Options &o, const std::string &name)
{
    check::PredictorPair pair = check::makePair(name, o.order);
    if (o.mutate) {
        // Corrupt early so minimized repros stay tiny: the predicate
        // needs at least corruptAfter updates to reproduce.
        pair.oracle = std::make_unique<check::CorruptedOracle>(
            std::move(pair.oracle), 8);
    }
    return pair;
}

/// repro artifacts that could not be written (main() fails the run)
int unsavedRepros = 0;

/**
 * Persist a shrunk repro; a failed write is reported and counted.
 * @return the verb phrase for the caller's summary line.
 */
const char *
saveRepro(const std::string &path,
          const std::vector<check::FuzzRecord> &shrunk)
{
    workload::TraceIoResult io = check::writeReproArtifact(path, shrunk);
    if (io.failed()) {
        std::fprintf(stderr, "gdifffuzz: cannot write repro: %s\n",
                     io.message.c_str());
        ++unsavedRepros;
        return "NOT written to";
    }
    return "written to";
}

/**
 * Diff one pair over the stream; on divergence, shrink and persist a
 * repro artifact. @return true if the pair is clean.
 */
bool
diffPair(const Options &o, const std::string &name,
         const std::vector<check::FuzzRecord> &stream)
{
    check::PredictorPair pair = freshPair(o, name);
    auto divergence =
        check::diffStream(*pair.production, *pair.oracle, stream);
    if (!divergence) {
        std::printf("gdifffuzz: %-10s ok (%zu records)\n",
                    name.c_str(), stream.size());
        return true;
    }

    std::printf("gdifffuzz: %-10s DIVERGED: %s\n", name.c_str(),
                divergence->describe().c_str());

    auto still_fails = [&](const std::vector<check::FuzzRecord> &s) {
        check::PredictorPair trial = freshPair(o, name);
        return check::diffStream(*trial.production, *trial.oracle, s)
            .has_value();
    };
    std::vector<check::FuzzRecord> shrunk =
        check::shrinkStream(stream, still_fails);
    std::string path =
        o.outDir + "/" + check::reproArtifactName(name, o.seed);
    const char *saved = saveRepro(path, shrunk);
    std::printf("gdifffuzz: %-10s shrunk %zu -> %zu records, repro "
                "%s %s\n",
                name.c_str(), stream.size(), shrunk.size(), saved,
                path.c_str());
    return false;
}

/**
 * Replay the stream scalar-vs-batch through one predictor family, at
 * a couple of deliberately awkward chunk sizes (a small prime that
 * never fills a SIMD register cleanly, and a large power of two that
 * crosses every internal buffer boundary). On divergence, shrink with
 * the same ddmin machinery and write a batch-<family> repro artifact
 * that --replay --batch accepts back. @return true if clean.
 */
bool
diffBatchFamily(const Options &o, const std::string &name,
                const std::vector<check::FuzzRecord> &stream)
{
    static const uint32_t kLanes[] = {7, 1024};
    for (uint32_t lanes : kLanes) {
        auto scalar = check::makeProduction(name, o.order);
        auto batch = check::makeProduction(name, o.order);
        auto divergence =
            check::diffScalarVsBatch(*scalar, *batch, stream, lanes);
        if (!divergence)
            continue;

        std::printf("gdifffuzz: batch %-10s DIVERGED (%u lanes): %s\n",
                    name.c_str(), lanes,
                    divergence->describe().c_str());

        auto still_fails =
            [&](const std::vector<check::FuzzRecord> &s) {
                auto s2 = check::makeProduction(name, o.order);
                auto b2 = check::makeProduction(name, o.order);
                return check::diffScalarVsBatch(*s2, *b2, s, lanes)
                    .has_value();
            };
        std::vector<check::FuzzRecord> shrunk =
            check::shrinkStream(stream, still_fails);
        std::string path =
            o.outDir + "/" +
            check::reproArtifactName("batch-" + name, o.seed);
        const char *saved = saveRepro(path, shrunk);
        std::printf("gdifffuzz: batch %-10s shrunk %zu -> %zu "
                    "records, repro %s %s\n",
                    name.c_str(), stream.size(), shrunk.size(), saved,
                    path.c_str());
        return false;
    }
    std::printf("gdifffuzz: batch %-10s ok (%zu records x %zu chunk "
                "sizes)\n",
                name.c_str(), stream.size(),
                sizeof(kLanes) / sizeof(kLanes[0]));
    return true;
}

/**
 * Run fuzzed programs through the pipeline with invariant checks.
 * @return the number of invariant violations observed.
 */
uint64_t
pipelinePhase(const Options &o)
{
    // A few programs, scaled with --cases but bounded: each one runs
    // its full dynamic trace through the timing model.
    unsigned programs = static_cast<unsigned>(
        std::min<uint64_t>(4, 1 + o.cases / 25'000));
    static const char *const schemes[] = {"baseline", "l_stride",
                                          "hgvq"};
    uint64_t violations = 0;
    for (unsigned p = 0; p < programs; ++p) {
        check::FuzzProgramConfig pcfg;
        pcfg.seed = o.seed + p;
        workload::Workload w = check::fuzzProgram(pcfg);
        for (const char *scheme_name : schemes) {
            auto scheme = runner::makeScheme(scheme_name, 8, 0);
            pipeline::PipelineConfig cfg;
            cfg.check.enabled = true;
            pipeline::OooPipeline pipe(cfg, *scheme);
            auto exec = w.makeExecutor();
            pipeline::PipelineStats stats =
                pipe.run(*exec, 1'000'000'000);
            violations += stats.checkViolations;
            if (stats.checkViolations) {
                std::printf("gdifffuzz: pipeline seed %" PRIu64
                            " scheme %s: %" PRIu64 " invariant "
                            "violations\n",
                            pcfg.seed, scheme_name,
                            stats.checkViolations);
                for (const auto &r : stats.checkReports)
                    std::printf("gdifffuzz:   %s\n", r.c_str());
            }
        }
    }
    if (violations == 0) {
        std::printf("gdifffuzz: pipeline   ok (%u programs x %zu "
                    "schemes, invariants hold)\n",
                    programs, sizeof(schemes) / sizeof(schemes[0]));
    }
    return violations;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);

    std::vector<check::FuzzRecord> stream;
    if (!o.replay.empty()) {
        // Replay paths are untrusted (arbitrary files, artifacts from
        // other trace-cache configs): report the typed status instead
        // of dying inside the trace reader.
        workload::TraceIoResult io;
        if (!check::readReproArtifact(o.replay, stream, &io)) {
            std::fprintf(stderr,
                         "gdifffuzz: cannot replay %s: %s (%s)\n",
                         o.replay.c_str(),
                         workload::traceIoStatusName(io.status),
                         io.message.c_str());
            return 2;
        }
        std::printf("gdifffuzz: replaying %zu records from %s\n",
                    stream.size(), o.replay.c_str());
    } else {
        check::FuzzStreamConfig cfg;
        cfg.seed = o.seed;
        cfg.records = o.cases;
        stream = check::fuzzValueStream(cfg);
    }
    std::printf("gdifffuzz: stream digest 0x%016" PRIx64
                " (%zu records, seed %" PRIu64 ")\n",
                check::streamDigest(stream), stream.size(), o.seed);

    int failures = 0;
    for (const auto &name : o.pairs) {
        bool clean = diffPair(o, name, stream);
        if (o.mutate) {
            // Self-test: the corrupted oracle MUST be caught.
            if (clean) {
                std::printf("gdifffuzz: %-10s mutation NOT detected "
                            "— the harness is broken\n",
                            name.c_str());
                ++failures;
            }
        } else if (!clean) {
            ++failures;
        }
    }

    if (o.batch) {
        for (const auto &family : check::batchFamilyNames())
            failures += !diffBatchFamily(o, family, stream);
    }

    if (o.pipelinePhase && o.replay.empty())
        failures += pipelinePhase(o) != 0;

    if (unsavedRepros) {
        std::printf("gdifffuzz: %d repro artifact(s) not written\n",
                    unsavedRepros);
        failures += unsavedRepros;
    }

    if (failures) {
        std::printf("gdifffuzz: FAILED (%d)\n", failures);
        return 1;
    }
    std::printf("gdifffuzz: all checks passed\n");
    return 0;
}
