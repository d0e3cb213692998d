/**
 * @file
 * gdiffcmp — the metric-surface snapshot differ (src/check/snapshot).
 *
 * Compares two sweep snapshots written by `gdiffrun --snapshot` and
 * reports every config one side lacks plus every metric that moved
 * beyond its tolerance:
 *
 *   gdiffcmp old.snap new.snap
 *   gdiffcmp --tolerance=1e-9 --tolerance=ipc=1e-6 old.snap new.snap
 *
 * Exit codes are CI-friendly: 0 = snapshots match, 1 = differences,
 * 2 = unreadable/corrupt input or bad usage. Sampled metrics (those
 * with *_ci_lo and *_ci_hi interval columns) only count as different
 * when the two 95% intervals don't overlap, so re-sampled sweeps don't
 * trip the gate on estimator noise (suppress with --no-intervals).
 *
 * --perturb=metric=delta rewrites a snapshot with the metric shifted
 * (digest recomputed) — the self-test CI uses it to prove the differ
 * sees an injected 1e-6 change.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/snapshot.hh"
#include "util/logging.hh"

using namespace gdiff;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] old.snap new.snap\n"
        "       %s --perturb=METRIC=DELTA in.snap out.snap\n"
        "  --tolerance=X        default per-metric tolerance "
        "(default 0)\n"
        "  --tolerance=METRIC=X override for one metric; "
        "repeatable\n"
        "  --no-intervals       report deltas even when confidence\n"
        "                       intervals overlap\n"
        "exit: 0 match, 1 differences, 2 error\n",
        argv0, argv0);
    std::exit(2);
}

/** Load a snapshot or exit 2 with the typed status. */
check::Snapshot
load(const std::string &path)
{
    check::Snapshot snap;
    check::SnapshotResult r = check::readSnapshot(path, snap);
    if (!r.ok()) {
        std::fprintf(stderr, "gdiffcmp: %s: %s\n",
                     check::snapshotStatusName(r.status),
                     r.message.c_str());
        std::exit(2);
    }
    return snap;
}

int
perturb(const std::string &spec, const std::string &inPath,
        const std::string &outPath)
{
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
        usage("gdiffcmp");
    std::string metric = spec.substr(0, eq);
    double delta = std::atof(spec.c_str() + eq + 1);

    check::Snapshot snap = load(inPath);
    size_t touched = 0;
    for (auto &job : snap.jobs)
        for (auto &[name, value] : job.result.metrics)
            if (name == metric) {
                value += delta;
                ++touched;
            }
    check::SnapshotResult r = check::writeSnapshot(snap, outPath);
    if (!r.ok()) {
        std::fprintf(stderr, "gdiffcmp: %s: %s\n",
                     check::snapshotStatusName(r.status),
                     r.message.c_str());
        return 2;
    }
    std::printf("gdiffcmp: perturbed %zu occurrence(s) of %s by %g "
                "into %s\n",
                touched, metric.c_str(), delta, outPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    check::SnapshotDiffOptions opts;
    std::string perturbSpec;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--tolerance=", 0) == 0) {
            std::string v = a.substr(12);
            size_t eq = v.find('=');
            if (eq == std::string::npos)
                opts.defaultTolerance = std::atof(v.c_str());
            else
                opts.metricTolerance[v.substr(0, eq)] =
                    std::atof(v.c_str() + eq + 1);
        } else if (a.rfind("--perturb=", 0) == 0) {
            perturbSpec = a.substr(10);
        } else if (a == "--no-intervals") {
            opts.useIntervals = false;
        } else if (!a.empty() && a[0] == '-') {
            usage(argv[0]);
        } else {
            paths.push_back(a);
        }
    }
    if (paths.size() != 2)
        usage(argv[0]);

    if (!perturbSpec.empty())
        return perturb(perturbSpec, paths[0], paths[1]);

    check::Snapshot oldSnap = load(paths[0]);
    check::Snapshot newSnap = load(paths[1]);
    std::printf("gdiffcmp: %s (%zu configs) vs %s (%zu configs)\n",
                paths[0].c_str(), oldSnap.jobs.size(),
                paths[1].c_str(), newSnap.jobs.size());
    check::SnapshotDiff diff =
        check::diffSnapshots(oldSnap, newSnap, opts);
    check::printSnapshotDiff(diff, std::cout);
    return diff.empty() ? 0 : 1;
}
