#!/usr/bin/env python3
"""Time one GP layer of the working tree against a parent's, in one process.

Usage:
    kernel_ab.py PARENT --layer optimizer|density|wirelength
                 [--rounds 100] [--calls N] [--work DIR] [--drift]

PARENT is any git revision (a commit, a branch, HEAD). The script copies
the layer's files from it (`git show PARENT:src/gp/LAYER.{hpp,cpp}`),
renames their namespace dp::gp to dp::gp::parent, and builds them with
scripts/kernel_ab.cpp and the working tree's sources into one binary
(CMake, the repository's default RelWithDebInfo build type). The binary
runs alternating rounds: CALLS calls of one side, then CALLS of the
other, the order swapped every round, on a fixed input:

  optimizer   minimize_nesterov, 50 iterations on a synthetic objective
              of 7,868 variables; a side's time is the solver's own,
              outside evaluations (default 20 runs per round)
  density     DensityPenalty::eval() on bench_micro_kernels' spread
              fixture, make_scaled(4000) after 9 outer iterations
              (default 20 calls per round)
  wirelength  SmoothWirelength::eval() on the same fixture (default 20)

It prints each side's median time per call, the median and quartiles of
the per-round ratio working tree / parent, and whether the two sides'
outputs (the optimizer's iterates and counts, a term's value and
gradient) have the same bits.

A change that spans layers needs the closure renamed too, and the
working tree's harness must compile against the parent's API; one
fixture is not a workload, so end-to-end claims still need
scripts/bench_pairs.py.

--work DIR keeps the build in DIR (reused by the next run with the same
DIR); without it a temporary directory is used and removed.

Exit status: 0 when the run completed with bit-equal outputs (or with
--drift, which declares that the outputs may differ and prints their
largest relative difference), 1 when they differ or a step failed, 77
when the repository is not a git checkout (ctest reads 77 as skipped).
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("optimizer", "density", "wirelength")
SKIP = 77

CMAKE = """cmake_minimum_required(VERSION 3.16)
project(kernel_ab LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
if(NOT CMAKE_BUILD_TYPE)
  set(CMAKE_BUILD_TYPE RelWithDebInfo)
endif()
add_compile_options(-ffp-contract=off)
find_package(Threads REQUIRED)
file(GLOB_RECURSE WORK_SOURCES CONFIGURE_DEPENDS {sources})
add_executable(kernel_ab "{main}" "{parent_cpp}" ${{WORK_SOURCES}})
# The copy's directory first: "parent/gp/..." resolves there, every other
# header in the working tree.
target_include_directories(kernel_ab PRIVATE "{work}" "{src}")
target_compile_definitions(kernel_ab PRIVATE {define})
target_link_libraries(kernel_ab PRIVATE Threads::Threads)
"""


def run(cmd, **kwargs):
    """Runs `cmd`, sending its output to stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError("failed: " + " ".join(cmd))


def in_git_checkout():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse",
                              "--show-toplevel"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
    except OSError:
        return False
    return (out.returncode == 0 and
            os.path.realpath(out.stdout.strip()) == os.path.realpath(REPO))


def parent_copy(parent, layer, work):
    """Writes PARENT's src/gp/LAYER.{hpp,cpp} into WORK/parent/gp under
    dp::gp::parent; returns the .cpp's path."""
    out_dir = os.path.join(work, "parent", "gp")
    os.makedirs(out_dir, exist_ok=True)
    for ext in ("hpp", "cpp"):
        text = subprocess.run(
            ["git", "-C", REPO, "show", "%s:src/gp/%s.%s" % (parent, layer, ext)],
            stdout=subprocess.PIPE, check=True, text=True).stdout
        if "namespace dp::gp {" not in text:
            raise RuntimeError("%s:src/gp/%s.%s has no namespace dp::gp"
                               % (parent, layer, ext))
        text = text.replace("namespace dp::gp {", "namespace dp::gp::parent {")
        text = text.replace('#include "gp/%s.hpp"' % layer,
                            '#include "parent/gp/%s.hpp"' % layer)
        path = os.path.join(out_dir, "%s.%s" % (layer, ext))
        # Rewrite only what changed, so a reused build stays incremental.
        old = None
        if os.path.exists(path):
            with open(path) as f:
                old = f.read()
        if old != text:
            with open(path, "w") as f:
                f.write(text)
    return os.path.join(out_dir, layer + ".cpp")


def build(parent, layer, work):
    """Builds the harness in WORK; returns the binary's path."""
    parent_cpp = parent_copy(parent, layer, work)
    src = os.path.join(REPO, "src")
    if layer == "optimizer":
        # The solver needs only itself and util/.
        sources = '"%s/gp/optimizer.cpp" "%s/util/*.cpp"' % (src, src)
    else:
        sources = '"%s/*.cpp"' % src
    cmake = CMAKE.format(sources=sources,
                         main=os.path.join(REPO, "scripts", "kernel_ab.cpp"),
                         parent_cpp=parent_cpp, work=work, src=src,
                         define="KERNEL_AB_" + layer.upper())
    with open(os.path.join(work, "CMakeLists.txt"), "w") as f:
        f.write(cmake)
    build_dir = os.path.join(work, "build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", work, "-B", build_dir] + gen)
    run(["cmake", "--build", build_dir, "-j", "4"])
    return os.path.join(build_dir, "kernel_ab")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision of the parent side")
    ap.add_argument("--layer", choices=LAYERS, required=True)
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--calls", type=int, default=20,
                    help="calls of each side per round")
    ap.add_argument("--work", help="build directory to keep and reuse")
    ap.add_argument("--drift", action="store_true",
                    help="the outputs may differ: print their largest "
                         "relative difference and exit 0")
    args = ap.parse_args()
    if args.rounds < 1 or args.calls < 1:
        ap.error("--rounds and --calls must be positive")

    if not in_git_checkout():
        print("kernel_ab: %s is not a git checkout; skipped" % REPO)
        return SKIP

    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(
        prefix="kernel_ab_")
    os.makedirs(work, exist_ok=True)
    try:
        binary = build(args.parent, args.layer, work)
        out = subprocess.run([binary, "--rounds", str(args.rounds),
                              "--calls", str(args.calls)],
                             stdout=subprocess.PIPE, check=True,
                             text=True).stdout
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print("kernel_ab: %s" % e, file=sys.stderr)
        return 1
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)

    parent_s, work_s, ratios, bitwise = [], [], [], None
    for line in out.splitlines():
        f = line.split()
        if f[0] == "round":
            tp, tw = float(f[2]), float(f[3])
            parent_s.append(tp / args.calls)
            work_s.append(tw / args.calls)
            ratios.append(tw / tp if tp > 0 else float("inf"))
        elif f[0] == "bitwise":
            bitwise = f[1:]
    if len(ratios) != args.rounds or bitwise is None:
        print("kernel_ab: the harness stopped early:\n" + out, file=sys.stderr)
        return 1

    q1, med, q3 = quartiles(ratios)
    print("kernel_ab: layer %s, %s against the working tree, %d rounds of "
          "%d calls" % (args.layer, args.parent, args.rounds, args.calls))
    print("  per call (median): parent %.2f us, working tree %.2f us"
          % (1e6 * statistics.median(parent_s), 1e6 * statistics.median(work_s)))
    print("  ratio working tree / parent: median %.3f, quartiles [%.3f, %.3f]"
          % (med, q1, q3))
    same = bitwise[0] == "1"
    if same:
        print("  outputs bit-equal: yes")
        return 0
    print("  outputs bit-equal: no (largest relative difference %s)"
          % bitwise[1])
    return 0 if args.drift else 1


if __name__ == "__main__":
    sys.exit(main())
