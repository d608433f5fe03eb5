#!/usr/bin/env python3
"""Fail when a flowbench run left more GP runs unconverged than allowed.

Usage:
    check_unconverged.py OUTPUT_FILE MAX

OUTPUT_FILE holds the stdout of a traced `flowbench/run.py` run; its last
line is the driver's JSON, whose `gp.unconverged` metric counts the
designs whose GP ended above its stop overflow. The script prints that
count next to MAX.

Exit status: 0 when the count is at most MAX, 1 when it is higher or the
file holds no such metric.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    path, limit = argv[0], float(argv[1])
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        n = json.loads(lines[-1])["metrics"]["gp.unconverged"]["value"]
    except (IndexError, KeyError, ValueError):
        sys.exit("%s: no gp.unconverged metric on the last line" % path)
    print("%s: gp.unconverged %g (at most %g)" % (path, n, limit))
    return 0 if n <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
