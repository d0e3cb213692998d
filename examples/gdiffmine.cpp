/**
 * @file
 * gdiffmine — the predictor disagreement miner (src/check/mine.hh).
 *
 * Searches for value streams on which two predictors disagree as
 * often as possible, shrinks every hit to a minimal witness, and
 * clusters the witnesses into a per-pair blind-spot report:
 *
 *   gdiffmine --seed=1
 *   gdiffmine --target=gdiff-vs-gfcm --target=gdiff@1-vs-gdiff@4
 *   gdiffmine --target=gdiff@8-vs-ref:gdiff@8 --restarts=16 --threads=8
 *
 * Reports are bit-identical for a given --seed at any --threads, and
 * the final "report digest" line makes two runs byte-comparable.
 * --artifacts writes each cluster's exemplar as a replayable trace
 * artifact that `gdifffuzz --replay` accepts; --jsonl appends one
 * JSON object per cluster for downstream tooling.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/mine.hh"
#include "check/shrink.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace gdiff;

namespace {

struct Options
{
    std::vector<std::string> targets;
    uint64_t seed = 1;
    uint64_t records = 4096;
    unsigned rounds = 32;
    unsigned restarts = 8;
    unsigned threads = 1;
    uint64_t shrinkTrials = 20'000;
    std::string artifactDir;
    std::string jsonlPath;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --target=L-vs-R  pair to mine; each side is\n"
        "                   [ref:]family[@order]. Repeatable.\n"
        "                   (default: gdiff-vs-gfcm and\n"
        "                   gdiff@1-vs-gdiff@4)\n"
        "  --seed=S         root seed; fixes the whole search\n"
        "  --records=N      records per candidate stream (default "
        "4096)\n"
        "  --rounds=N       hill-climb steps per restart (default 32)\n"
        "  --restarts=N     independent search starts (default 8)\n"
        "  --threads=N      workers for the restarts (default 1;\n"
        "                   reports are thread-count-invariant)\n"
        "  --shrink-trials=N  ddmin budget per witness (default "
        "20000)\n"
        "  --artifacts=DIR  write each cluster exemplar as a\n"
        "                   replayable trace artifact under DIR\n"
        "  --jsonl=FILE     append one JSON object per cluster\n",
        argv0);
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
        if (take("--target", v)) {
            o.targets.push_back(v);
        } else if (take("--seed", v)) {
            o.seed = parseU64Flag("--seed", v.c_str(), true);
        } else if (take("--records", v)) {
            o.records = parseU64Flag("--records", v.c_str());
        } else if (take("--rounds", v)) {
            o.rounds = static_cast<unsigned>(
                parseU64Flag("--rounds", v.c_str()));
        } else if (take("--restarts", v)) {
            o.restarts = static_cast<unsigned>(
                parseU64Flag("--restarts", v.c_str()));
        } else if (take("--threads", v)) {
            o.threads = static_cast<unsigned>(
                parseU64Flag("--threads", v.c_str()));
        } else if (take("--shrink-trials", v)) {
            o.shrinkTrials =
                parseU64Flag("--shrink-trials", v.c_str());
        } else if (take("--artifacts", o.artifactDir)) {
        } else if (take("--jsonl", o.jsonlPath)) {
        } else {
            usage(argv[0]);
        }
    }
    if (o.targets.empty())
        o.targets = check::defaultMineTargets();
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);

    std::FILE *jsonl = nullptr;
    if (!o.jsonlPath.empty()) {
        jsonl = std::fopen(o.jsonlPath.c_str(), "ab");
        if (!jsonl)
            fatal("cannot open JSONL file '%s'", o.jsonlPath.c_str());
    }

    int barren = 0;
    for (const std::string &spec : o.targets) {
        check::MineConfig cfg;
        std::string error;
        if (!check::parseMineTarget(spec, cfg.target, error)) {
            std::fprintf(stderr, "gdiffmine: %s\n", error.c_str());
            return 2;
        }
        cfg.seed = o.seed;
        cfg.records = o.records;
        cfg.rounds = o.rounds;
        cfg.restarts = o.restarts;
        cfg.threads = o.threads;
        cfg.shrinkTrials = o.shrinkTrials;

        check::MineReport report = check::mineDisagreements(cfg);
        std::printf("gdiffmine: %s: %zu witness(es) in %zu "
                    "cluster(s)\n",
                    report.targetName.c_str(),
                    report.witnesses.size(), report.clusters.size());
        check::printMineReport(report, std::cout);
        if (report.clusters.empty())
            ++barren;

        if (jsonl) {
            std::string lines = check::mineReportJsonl(report);
            std::fwrite(lines.data(), 1, lines.size(), jsonl);
            std::fflush(jsonl);
        }
        if (!o.artifactDir.empty()) {
            for (size_t c = 0; c < report.clusters.size(); ++c) {
                const check::MinedWitness &ex =
                    report.witnesses[report.clusters[c]
                                         .members.front()];
                std::string path =
                    o.artifactDir + "/" +
                    check::mineArtifactName(report.targetName, c);
                workload::TraceIoResult io =
                    check::writeReproArtifact(path, ex.stream);
                if (io.failed())
                    fatal("%s", io.message.c_str());
                std::printf("gdiffmine: cluster %zu exemplar written "
                            "to %s\n",
                            c, path.c_str());
            }
        }
    }
    if (jsonl)
        std::fclose(jsonl);

    if (barren) {
        std::printf("gdiffmine: %d target(s) yielded no "
                    "disagreement\n",
                    barren);
        return 1;
    }
    std::printf("gdiffmine: done\n");
    return 0;
}
