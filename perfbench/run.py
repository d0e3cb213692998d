#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
gdiff libraries and the driver under .bench_build/perfbench (or under
$CARGO_TARGET_DIR/perfbench when that is set); later runs rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("profile_zoo", "pipeline_mix", "sampled_disk", "serve_warm")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, here):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "perfbench_tracecheck"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no gdiff sources next to %s: run from a repository "
             "checkout" % here)
    try:
        build_dir = build(root, here)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    # Scratch files (disk-tier traces, the daemon socket, the span
    # trace) live in a per-run directory under the checkout. The socket
    # path must fit sockaddr_un, so the directory is named relative to
    # the root, where the driver runs.
    os.chdir(root)
    workdir = os.path.join(".bench_run", "%s-%d" % (args.workload,
                                                    os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--tracecheck", os.path.join(build_dir, "perfbench_tracecheck"),
           "--expected", os.path.join(here, "expected_digests.json")]
    try:
        status = subprocess.run(cmd).returncode
        if args.trace:
            trace = os.path.join(workdir, "trace.json")
            if os.path.exists(trace):
                # Kept for inspection in Perfetto; one per workload.
                os.replace(trace, os.path.join(
                    ".bench_run", "%s.trace.json" % args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
