#!/usr/bin/env python3
"""Run alternating parent/change pairs of the end-to-end benchmark.

Usage:
    bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME --seed N [N ...] [--pairs 10]

PARENT_DIR and CHANGE_DIR are two source checkouts. Each pair runs

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0

once in each checkout, from its root, with S the run_seconds of the
parent's BENCHMARK.json; even pairs run the parent first, odd pairs the
change. run.py builds each checkout into its own .bench_build/ on first
use; a run's stderr (build output and driver logs) is printed only when
the run fails.

For every end-to-end metric the script prints each side's median and
quartiles over the pairs and the change of the median; it prints place_s
for every pair as the pairs run. For each metric that the parent's
BENCHMARK.json lists under end_to_end as lower-is-better, it counts the
pairs the change won (ties count for neither side) and says whether the
change won at least nine tenths of them with a median gain larger than
the distance between the parent's quartiles. Beside that rule it prints
each side's minimum and the median and quartiles of the per-pair ratio
change/parent: on a host whose speed drifts, both move less with the
drift than the side medians do. It also reports whether each quality
metric read the same bits in every run on both sides.

Then it prints the no-regression verdict for every end-to-end metric,
against the bound the parent's BENCHMARK.json gives it (a fraction of
the parent's median): "worse" when the change's median is worse than the
parent's by more than the bound, "unresolved" when the parent's quartile
spread is wider than the bound (the runs cannot tell a change of that
size from noise), both when both hold, and "ok" otherwise.

Given several seeds (--seed 1 2 3, or --seed repeated), it runs the pairs
and prints all of the above for each seed in turn, and last, for each
quality metric, the change of the median at every seed and the median of
those changes across the seeds.

Exit status: 0 when every run succeeded, 1 when one failed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

METRIC = "place_s"
QUALITY = ("hpwl", "datapath_hpwl", "crit_delay", "cong_peak")


def read_benchmark(checkout):
    """The run_seconds of the checkout's BENCHMARK.json and its end-to-end
    metric entries (name, better, bound)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], spec["end_to_end"]


def run_once(checkout, args, seed, seconds):
    """One untraced run in `checkout`; returns {metric name: value}."""
    cmd = [sys.executable, os.path.join("flowbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("bench_pairs: run failed in %s (exit %d)" %
                 (checkout, proc.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def relative_change(parent, change):
    """The change of the median relative to the parent's median, or None
    when the parent's median is 0."""
    base = summary(parent)[0]
    return (summary(change)[0] - base) / base if base else None


def summary(values):
    """(median, first quartile, third quartile) of a list of numbers."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def gain_rule(name, parent, change):
    """Prints the gain rule's verdict for one lower-is-better metric, with
    each side's minimum and the per-pair ratio change/parent."""
    wins = sum(b < a for a, b in zip(parent, change))
    ties = sum(b == a for a, b in zip(parent, change))
    med_p, q1_p, q3_p = summary(parent)
    gain = med_p - summary(change)[0]
    met = 10 * wins >= 9 * len(parent) and gain > q3_p - q1_p
    print("%s: %s; change won %d of %d pairs (%d ties), median gain %.4g, "
          "parent quartile spread %.4g" %
          (name, "met" if met else "not met", wins, len(parent), ties, gain,
           q3_p - q1_p))
    ratio = "-"
    if all(parent):
        ratio = "median %.4f [%.4f, %.4f]" % summary(
            [b / a for a, b in zip(parent, change)])
    print("  minimum: parent %.4g, change %.4g; per-pair ratio "
          "change/parent: %s" % (min(parent), min(change), ratio))


def regression_verdict(metric, parent, change):
    """Prints the no-regression verdict for one end-to-end metric entry of
    BENCHMARK.json: the change of the median and the parent's quartile
    spread, each relative to the parent's median and compared to the
    metric's bound."""
    med_p, q1_p, q3_p = summary(parent)
    delta = summary(change)[0] - med_p
    spread = q3_p - q1_p
    if med_p:
        delta /= abs(med_p)
        spread /= abs(med_p)
    elif delta:
        delta = math.copysign(math.inf, delta)
    worse_by = -delta if metric["better"] == "higher" else delta
    bound = metric["bound"]
    flags = [word for word, hit in (("worse", worse_by > bound),
                                    ("unresolved", spread > bound)) if hit]
    print("%-16s bound %3.0f%%: median %+7.1f%%, parent spread %5.1f%%: %s" %
          (metric["name"], 100.0 * bound, 100.0 * delta, 100.0 * spread,
           ", ".join(flags) or "ok"))


def run_seed(args, seed, sides, seconds, end_to_end):
    """Runs the pairs of one seed and prints its report; returns the runs
    of each side."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args, seed, seconds))
        print("pair %d/%d (%s first): %s parent %.4g change %.4g" %
              (i + 1, args.pairs, order[0], METRIC,
               runs["parent"][-1][METRIC], runs["change"][-1][METRIC]), flush=True)

    print("\n%s seed %d, %d pairs" % (args.workload, seed, args.pairs))
    print("%-16s %-32s %-32s %s" % ("metric", "parent median [q1, q3]",
                                     "change median [q1, q3]", "median"))
    for name in runs["parent"][0]:
        cols = []
        for side in ("parent", "change"):
            med, q1, q3 = summary([r[name] for r in runs[side]])
            cols.append("%.6g [%.6g, %.6g]" % (med, q1, q3))
        delta = relative_change([r[name] for r in runs["parent"]],
                                [r[name] for r in runs["change"]])
        print("%-16s %-32s %-32s %s" % (name, cols[0], cols[1],
                                         "-" if delta is None else
                                         "%+.1f%%" % (100.0 * delta)))

    print("\ngain rule: won >= 9/10 of the pairs, median gain > parent "
          "quartile spread")
    for metric in end_to_end:
        name = metric["name"]
        if metric["better"] == "lower" and name in runs["parent"][0]:
            gain_rule(name, [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]])

    for name in QUALITY:
        values = {r[name] for side in runs.values() for r in side if name in r}
        print("%s bitwise equal in every run: %s" %
              (name, "yes" if len(values) == 1 else
               "NO (%d distinct values)" % len(values)))

    print("\nno-regression verdict: median worse than the parent's by more "
          "than the bound, or parent quartile spread wider than it")
    for metric in end_to_end:
        name = metric["name"]
        if name in runs["parent"][0]:
            regression_verdict(metric, [r[name] for r in runs["parent"]],
                               [r[name] for r in runs["change"]])
    return runs


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, nargs="+", action="extend",
                   required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds, end_to_end = read_benchmark(sides["parent"])
    changes = {name: [] for name in QUALITY}
    for k, seed in enumerate(args.seed):
        if k:
            print("\n" + "=" * 72 + "\n")
        runs = run_seed(args, seed, sides, seconds, end_to_end)
        for name in QUALITY:
            if name in runs["parent"][0]:
                changes[name].append(relative_change(
                    [r[name] for r in runs["parent"]],
                    [r[name] for r in runs["change"]]))

    if len(args.seed) > 1:
        print("\nquality across seeds %s: change of the median per seed, "
              "and the median of those changes" %
              " ".join(str(seed) for seed in args.seed))
        for name, deltas in changes.items():
            known = [d for d in deltas if d is not None]
            if not known:
                continue
            print("%-16s %s  median %+.2f%%" % (
                name, " ".join("-" if d is None else "%+.2f%%" % (100.0 * d)
                               for d in deltas),
                100.0 * statistics.median(known)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
