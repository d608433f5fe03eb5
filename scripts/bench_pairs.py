#!/usr/bin/env python3
"""Run alternating parent/change pairs of the end-to-end benchmark.

Usage:
    bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME --seed N [--pairs 10]

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

Exit status: 0 when every run succeeded, 1 when one failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRIC = "place_s"
QUALITY = ("hpwl", "datapath_hpwl", "crit_delay", "cong_peak")


def read_benchmark(checkout):
    """The run_seconds of the checkout's BENCHMARK.json and the names of
    its lower-is-better end-to-end metrics."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lower = [m["name"] for m in spec["end_to_end"] if m["better"] == "lower"]
    return spec["run_seconds"], lower


def run_once(checkout, args, seconds):
    """One untraced run in `checkout`; returns {metric name: value}."""
    cmd = [sys.executable, os.path.join("flowbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
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


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds, lower = read_benchmark(sides["parent"])
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args, seconds))
        print("pair %d/%d (%s first): %s parent %.4g change %.4g" %
              (i + 1, args.pairs, order[0], METRIC,
               runs["parent"][-1][METRIC], runs["change"][-1][METRIC]), flush=True)

    print("\n%s seed %d, %d pairs" % (args.workload, args.seed, args.pairs))
    print("%-16s %-32s %-32s %s" % ("metric", "parent median [q1, q3]",
                                     "change median [q1, q3]", "median"))
    for name in runs["parent"][0]:
        cols = []
        for side in ("parent", "change"):
            med, q1, q3 = summary([r[name] for r in runs[side]])
            cols.append((med, "%.6g [%.6g, %.6g]" % (med, q1, q3)))
        base = cols[0][0]
        delta = "%+.1f%%" % (100.0 * (cols[1][0] - base) / base) if base else "-"
        print("%-16s %-32s %-32s %s" % (name, cols[0][1], cols[1][1], delta))

    print("\ngain rule: won >= 9/10 of the pairs, median gain > parent "
          "quartile spread")
    for name in lower:
        if name in runs["parent"][0]:
            gain_rule(name, [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]])

    for name in QUALITY:
        values = {r[name] for side in runs.values() for r in side if name in r}
        print("%s bitwise equal in every run: %s" %
              (name, "yes" if len(values) == 1 else
               "NO (%d distinct values)" % len(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
