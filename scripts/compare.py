#!/usr/bin/env python3
"""Compare the repository benchmark between a base revision and the
working tree, in alternating pairs of runs.

    python3 scripts/compare.py --base REV --workload W \\
        [--pairs N] [--seconds S] [--seed N]

Run from anywhere inside the repository. The base revision's committed
files are exported (git archive) to .bench_build/compare/<sha>/, which
builds its own perfbench copy under its own .bench_build/ on first use;
the working tree builds under the repository's .bench_build/ as
perfbench/run.py always does. Each pair runs `perfbench/run.py
--workload W --seed N --seconds S --trace 0` once on each side, the
base first in even pairs and the working tree first in odd ones, so
slow drift on the host does not favour one side. A run that exits
non-zero or reports "correct": false fails its pair; the script then
exits 1 after printing what it has.

For every end-to-end metric that BENCHMARK.json lists it prints both
medians, the median of the per-pair ratios (change / base), their
range, how many pairs the change won (by the metric's "better"
direction), a two-sided sign-test p over the pairs that were not tied,
and the spread (interquartile range) of the base runs. A metric is
"resolved" when its medians differ by more than that spread. The
perfbench set-up times are also reported as set-up 1 apart from the
later set-ups of the same run. Standard library only.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

SETUP_LINE = re.compile(r"^perfbench: set-up (\d+): ([0-9.eE+-]+) s$")


# ---------------------------------------------------------- statistics

def sign_test_p(wins, losses):
    """Two-sided exact sign test: the chance of a split at least this
    uneven between wins and losses if each were equally likely."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def iqr(values):
    """Interquartile range (inclusive quartiles); 0 below two values."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(base, change, better):
    """Statistics of one metric over paired runs.

    base, change: equal-length lists, pair i being (base[i], change[i]).
    better: "lower" or "higher".
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    ratios = [c / b if b else math.inf if c else 1.0
              for b, c in zip(base, change)]
    wins = losses = 0
    for b, c in zip(base, change):
        if c == b:
            continue
        if (c < b) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    spread = iqr(base)
    return {
        "base_median": base_median,
        "change_median": change_median,
        "median_ratio": statistics.median(ratios),
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "sign_p": sign_test_p(wins, losses),
        "base_iqr": spread,
        "resolved": abs(change_median - base_median) > spread,
    }


def verdict(stats, better, bound):
    """One word for a summarized metric: better, worse or unresolved,
    and whether the median ratio is past the metric's regression
    bound."""
    if not stats["resolved"]:
        word = "unresolved"
    elif (stats["change_median"] < stats["base_median"]) == \
            (better == "lower"):
        word = "better"
    else:
        word = "worse"
    ratio = stats["median_ratio"]
    past = (ratio > 1.0 + bound) if better == "lower" else \
        (ratio < 1.0 - bound)
    return word + (", PAST BOUND" if past else "")


# ---------------------------------------------------------------- runs

def fail(message):
    print("compare.py: " + message, file=sys.stderr)
    sys.exit(2)


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(root, rev):
    """Export the committed files of @p rev once; return the tree."""
    try:
        sha = git(root, "rev-parse", "--verify", rev + "^{commit}")
    except subprocess.CalledProcessError:
        fail("unknown revision '%s'" % rev)
    tree = os.path.join(root, ".bench_build", "compare", sha[:12])
    done = os.path.join(tree, ".exported")
    if os.path.exists(done):
        return sha, tree
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", root, "archive", sha],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    if archive.wait() != 0:
        fail("git archive %s failed" % sha)
    open(done, "w").close()
    return sha, tree


def run_side(tree, args):
    """One perfbench run in @p tree: (result dict or None, set-ups)."""
    env = dict(os.environ)
    # Each side builds in its own tree; a shared build dir would run
    # one side's binary for both.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    setups = []
    for line in proc.stdout.splitlines():
        m = SETUP_LINE.match(line.strip())
        if m:
            setups.append(float(m.group(2)))
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or result is None or \
            result.get("correct") is not True:
        sys.stderr.write(proc.stderr[-4000:])
        return None, setups
    return result, setups


def fmt(v):
    return "%.4g" % v


def main():
    parser = argparse.ArgumentParser(
        description="Alternating-pair perfbench comparison of a base "
                    "revision against the working tree.")
    parser.add_argument("--base", required=True,
                        help="base revision (e.g. HEAD~)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        fail("--pairs and --seconds must be >= 1 and --seed >= 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = git(here, "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    sha, base_tree = export_base(root, args.base)
    sides = {"base": base_tree, "change": root}
    print("compare: %s at %s (base %s) vs the working tree, %d pairs, "
          "%d s, seed %d" % (args.workload, args.base, sha[:12],
                             args.pairs, args.seconds, args.seed))

    metrics = {"base": [], "change": []}
    setups = {"base": [], "change": []}
    failed = 0
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            result, ups = run_side(sides[side], args)
            got[side] = result
            if result is not None and ups:
                setups[side].append(ups)
            shown = "FAILED" if result is None else " ".join(
                "%s=%s" % (k, fmt(v["value"]))
                for k, v in sorted(result["metrics"].items()))
            print("pair %d %-6s %s" % (i + 1, side, shown), flush=True)
        if got["base"] is None or got["change"] is None:
            failed += 1
            continue
        for side in ("base", "change"):
            metrics[side].append(got[side]["metrics"])

    good = len(metrics["base"])
    print("\n%d of %d pairs complete, every run correct: %s"
          % (good, args.pairs, "yes" if failed == 0 else "no"))
    if good:
        head = ("metric", "unit", "base med", "change med", "ratio",
                "range", "wins", "sign p", "base IQR", "verdict")
        rows = []
        for m in bench["end_to_end"]:
            name = m["name"]
            if not all(name in r for r in metrics["base"] +
                       metrics["change"]):
                continue
            b = [r[name]["value"] for r in metrics["base"]]
            c = [r[name]["value"] for r in metrics["change"]]
            s = summarize(b, c, m["better"])
            rows.append((name, m["unit"], fmt(s["base_median"]),
                         fmt(s["change_median"]),
                         "%.3f" % s["median_ratio"],
                         "%.3f-%.3f" % (s["ratio_min"], s["ratio_max"]),
                         "%d/%d" % (s["wins"], s["pairs"]),
                         "%.3g" % s["sign_p"], fmt(s["base_iqr"]),
                         verdict(s, m["better"], m["bound"])))
        widths = [max(len(r[k]) for r in [head] + rows)
                  for k in range(len(head))]
        for r in [head] + rows:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for side in ("base", "change"):
        runs = setups[side]
        if runs:
            first = [u[0] for u in runs]
            later = [x for u in runs for x in u[1:]]
            print("%-6s set-up 1: median %s s (%s-%s); set-ups 2+: "
                  "median %s s (%s-%s)"
                  % (side, fmt(statistics.median(first)), fmt(min(first)),
                     fmt(max(first)),
                     fmt(statistics.median(later)) if later else "-",
                     fmt(min(later)) if later else "-",
                     fmt(max(later)) if later else "-"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
