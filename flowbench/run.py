#!/usr/bin/env python3
"""End-to-end placement benchmark entry point.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark driver from
source with CMake into .bench_build/flowbench (an incremental no-op once
built), runs it, and passes its output through: the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero when the build fails, a placement fails its checks, or the
driver's output is not such an object. See flowbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flowbench")
EXE = os.path.join(BUILD, "flowbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure and build the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "structure_placer.cpp")):
        sys.exit("flowbench: placer sources not found under %s/src" % ROOT)
    cmds = [["cmake", "--build", BUILD, "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("flowbench: build failed: %s" % " ".join(cmd))


def main(argv):
    build()
    try:
        proc = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.exit("flowbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        sys.exit("flowbench: driver printed no result (exit %d)" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode if proc.returncode != 0 or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
