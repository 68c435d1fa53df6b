#!/usr/bin/env python3
"""Exhaustive inverse-submatrix sweep for the polytope Lipschitz constant.

Prints C(n) for n = 2..4 by default and checks each value against the
table ``LIPSCHITZ_CONSTANTS`` that the ``hausdorff`` bound check reads;
exits 1 on a mismatch.  n = 5 sweeps roughly 170k subsets of exact 5x5
inversions and takes a while, so it is opt-in (``--max-n 5``).
"""

import argparse
import sys
import time

from dmajor import lipschitz_constant
from dmajor.polytope import LIPSCHITZ_CONSTANTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4, choices=[2, 3, 4, 5])
    args = parser.parse_args()
    status = 0
    for n in range(2, args.max_n + 1):
        start = time.monotonic()
        value = lipschitz_constant(n)
        print(f"C({n}) = {value}   ({time.monotonic() - start:.1f}s)")
        if value != LIPSCHITZ_CONSTANTS[n]:
            print(f"mismatch: LIPSCHITZ_CONSTANTS[{n}] = {LIPSCHITZ_CONSTANTS[n]}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
