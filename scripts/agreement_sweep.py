#!/usr/bin/env python3
"""Randomized cross-check of the three deciders and the two witness routes.

Samples (x, y, d) triples mixing guaranteed-positive instances (convex
combinations of polytope corners), trace-matched vectors and unconstrained
ones, and verifies that all five decision routes agree -- the three
deciders, the balayage witness ``find_witness`` and the simplex witness
``find_witness_lp`` -- and that every witness from either route satisfies
its defining equations exactly.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import rand_majorized_point, rand_rvec, rand_trace_matched, rand_weights

from dmajor import (
    dmaj_by_curve,
    dmaj_by_onenorm,
    dmaj_by_positive_parts,
    find_witness,
    find_witness_lp,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.monotonic()
    positives = 0
    for k in range(args.count):
        n = rng.choice(args.sizes)
        y, d = rand_rvec(rng, n), rand_weights(rng, n)
        roll = rng.random()
        if roll < 0.45:
            x = rand_majorized_point(rng, y, d)
        elif roll < 0.9:
            x = rand_trace_matched(rng, y)
        else:
            x = rand_rvec(rng, n)
        votes = (
            dmaj_by_positive_parts(x, y, d),
            dmaj_by_onenorm(x, y, d),
            dmaj_by_curve(x, y, d),
        )
        witnesses = (find_witness(x, y, d), find_witness_lp(x, y, d))
        found = tuple(w is not None for w in witnesses)
        if len({*votes, *found}) != 1:
            print(
                f"DISAGREEMENT at instance {k}: x={x} y={y} d={d} "
                f"votes={votes} witnesses={found}"
            )
            raise SystemExit(1)
        if found[0]:
            positives += 1
            for w in witnesses:
                assert w.apply(y) == x and w.apply(d) == d
    elapsed = time.monotonic() - start
    print(
        f"{args.count} instances, {positives} hold, 0 disagreements ({elapsed:.1f}s)"
    )


if __name__ == "__main__":
    main()
