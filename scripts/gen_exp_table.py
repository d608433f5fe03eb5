#!/usr/bin/env python3
"""Print the 2^(j/128) table of util::exp (src/util/exp.cpp).

Usage:
    gen_exp_table.py

Entry j (j = 0..127) is a pair of 64-bit patterns: the tail
2^(j/128) / s - 1, rounded to a double, where s is the double nearest
2^(j/128); and the bits of s minus j << 45. Adding k << 45 to the second
word, for k with k mod 128 = j, gives the bits of s * 2^((k - j) / 128),
so 2^(k/128) ~= scale * (1 + tail). The values come from Python's
decimal module at 60 digits, and float() of a Decimal rounds to the
nearest double.
"""

import struct
import sys
from decimal import Decimal, getcontext

TABLE_BITS = 7
N = 1 << TABLE_BITS


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def main(argv):
    if argv:
        sys.exit(__doc__)
    getcontext().prec = 60
    ln2 = Decimal(2).ln()
    for j in range(N):
        exact = (ln2 * j / N).exp()
        s = float(exact)
        tail = float(exact / Decimal(s) - 1)
        word = (bits(s) - (j << (52 - TABLE_BITS))) % (1 << 64)
        print("    0x%016x, 0x%016x," % (bits(tail), word))


if __name__ == "__main__":
    main(sys.argv[1:])
