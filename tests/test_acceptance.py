"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every comparison is bit-exact rational equality; the randomized
sweeps use fixed seeds and the instance counts stated in the criteria.
"""

import random
import time
from fractions import Fraction

import pytest

from dmajor import (
    HalfspaceSystem,
    NegativeEntries,
    Permutation,
    RVec,
    build_dmaj_hrep,
    classical_hrep,
    classical_majorizes,
    classical_max_corner,
    dmaj_by_curve,
    dmaj_by_onenorm,
    dmaj_by_positive_parts,
    dmaj_vertices,
    enumerate_vertices,
    find_witness,
    find_witness_lp,
    hausdorff,
    lipschitz_constant,
    maximal_element,
    minimal_element,
)
from dmajor.halfspace import corners_with_labels, mask_of
from dmajor.polytope import b_l1_distance

from helpers import (
    rand_convex_weights,
    rand_majorized_point,
    rand_nonneg_rvec,
    rand_rvec,
    rand_trace_matched,
    rand_weights,
)


def report(number: int, elapsed: float, detail: str = "") -> None:
    suffix = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f}s){suffix}")


def frac_set(rows) -> set:
    return {tuple(Fraction(v) for v in row) for row in rows}


def test_criterion_01_weighted_triple_golden():
    start = time.monotonic()
    y, d = RVec.of(4, -2, 2), RVec.of(4, 2, 1)
    hsys = build_dmaj_hrep(y, d)
    assert hsys.b_vector() == [Fraction(v) for v in (5, 3, 2, 5, 6, 4, 4, -4)]
    assert hsys.trace == 4
    poly = dmaj_vertices(y, d)
    assert poly.vertex_set() == frac_set(
        [(5, 0, -1), (5, -2, 1), (2, 3, -1), (0, 3, 1), (4, -2, 2), (0, 2, 2)]
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, elapsed, "b=(5,3,2,5,6,4), T=4, 6 vertices bit-exact")


def test_criterion_02_signed_start_golden():
    start = time.monotonic()
    y, d = RVec.of(1, 1, -1), RVec.of(1, 2, 3)
    hsys = build_dmaj_hrep(y, d)
    assert hsys.b_vector() == [
        Fraction(1), Fraction(3, 2), Fraction(2),
        Fraction(2), Fraction(5, 3), Fraction(4, 3),
        Fraction(1), Fraction(-1),
    ]
    poly = dmaj_vertices(y, d)
    assert poly.vertex_set() == {
        RVec.of(1, 1, -1).entries,
        RVec.parse(["1", "-2/3", "2/3"]).entries,
        RVec.parse(["1/2", "3/2", "-1"]).entries,
        RVec.parse(["-1/3", "3/2", "-1/6"]).entries,
        RVec.parse(["-1/3", "-2/3", "2"]).entries,
    }
    with pytest.raises(NegativeEntries):
        classical_max_corner(y, d)
    verdict = classical_majorizes(RVec.parse(["-1/3", "-2/3", "2"]), y)
    assert not verdict.holds
    assert verdict.first_violation.where == 2
    assert verdict.first_violation.lhs == 2
    assert verdict.first_violation.rhs == Fraction(5, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, elapsed, "5 vertices, max-corner rejected, 2 > 5/3 reproduced")


def test_criterion_03_shrinking_family_golden():
    y = RVec.of(3, 2, 1)
    total_elapsed = 0.0
    for lam in (Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1)):
        start = time.monotonic()
        d = RVec((2 + lam, Fraction(2), 2 - lam))
        hsys = build_dmaj_hrep(y, d)
        assert hsys.b_vector() == [
            Fraction(3),
            Fraction(6) / (2 + lam),
            (6 - 3 * lam) / (2 + lam),
            Fraction(5),
            5 - lam,
            5 - 2 * lam,
            Fraction(6),
            Fraction(-6),
        ]
        s = 2 + lam
        expected = {
            (Fraction(3), Fraction(2), Fraction(1)),
            (Fraction(3), 1 + lam, 2 - lam),
            ((4 + 5 * lam) / s, Fraction(6) / s, (2 + lam) / s),
            ((2 * lam**2 + 5 * lam + 2) / s, Fraction(6) / s, (-2 * lam**2 + lam + 4) / s),
            ((-(lam**2) + 6 * lam + 4) / s, (lam**2 + 3 * lam + 2) / s, (6 - 3 * lam) / s),
            ((2 * lam**2 + 5 * lam + 2) / s, (-2 * lam**2 + 4 * lam + 4) / s, (6 - 3 * lam) / s),
        }
        assert dmaj_vertices(y, d).vertex_set() == expected
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        total_elapsed += elapsed
    singleton = dmaj_vertices(y, RVec.of(3, 2, 1))
    assert singleton.vertex_set() == {y.entries}
    report(3, total_elapsed, "λ ∈ {0, 3/10, 7/10, 1} closed forms, singleton at λ=1")


def test_criterion_04_four_dim_counterexample():
    start = time.monotonic()
    values = {
        (1,): 0, (2,): 0, (3,): 0, (4,): 0,
        (1, 2): 0, (1, 3): Fraction(-1, 2), (1, 4): Fraction(-1, 4),
        (2, 3): 0, (2, 4): 0, (3, 4): 0,
        (1, 2, 3): Fraction(-1, 2), (1, 2, 4): Fraction(-1, 2),
        (1, 3, 4): Fraction(-5, 8), (2, 3, 4): 0,
    }
    table = {mask_of(tuple(i - 1 for i in key)): Fraction(v) for key, v in values.items()}
    hsys = HalfspaceSystem.from_function(4, lambda m: table[m], Fraction(-1))

    extra = RVec.parse(["-1/8", "-3/8", "-3/8", "-1/8"])
    poly = enumerate_vertices(hsys)
    assert extra.entries in poly.vertex_set()

    bad_one = hsys.corner(Permutation((0, 2, 3, 1)))
    bad_two = hsys.corner(Permutation((0, 3, 2, 1)))
    assert bad_one == RVec.parse(["0", "-3/8", "-1/2", "-1/8"])
    assert bad_two == RVec.parse(["0", "-3/8", "-3/8", "-1/4"])
    bad_values = {bad_one.entries, bad_two.entries}

    from dmajor.exact import all_permutations

    for sigma in all_permutations(4):
        corner = hsys.corner(sigma)
        if corner.entries in bad_values:
            assert not hsys.contains(corner)
        else:
            assert hsys.contains(corner)

    good = {v.entries for v, _ in corners_with_labels(hsys) if hsys.contains(v)}
    assert poly.vertex_set() == good | {extra.entries}
    assert len(poly.vertices) == 10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(4, elapsed, "extra vertex -(1/8)(1,3,3,1) found; 2 corners outside; 9 inside")


def test_criterion_05_criteria_equivalence_sweep():
    start = time.monotonic()
    rng = random.Random(50505)
    total = 0
    positives = negatives = 0
    for n in (2, 3, 4):
        for _ in range(3400):
            y = rand_rvec(rng, n)
            d = rand_weights(rng, n)
            roll = rng.random()
            if roll < 0.45:
                x = rand_majorized_point(rng, y, d)
            elif roll < 0.9:
                x = rand_trace_matched(rng, y)
            else:
                x = rand_rvec(rng, n)
            a = dmaj_by_positive_parts(x, y, d)
            b = dmaj_by_onenorm(x, y, d)
            c = dmaj_by_curve(x, y, d)
            witness = find_witness(x, y, d)
            w = witness is not None
            oracle = find_witness_lp(x, y, d)
            o = oracle is not None
            assert a == b == c == w == o, (x, y, d, a, b, c, w, o)
            if w:
                positives += 1
                for found in (witness, oracle):
                    m = found.entries
                    assert all(
                        m.rows[i][j] >= 0 for i in range(n) for j in range(n)
                    )
                    assert all(m.col(j).total() == 1 for j in range(n))
                    assert found.apply(d) == d
                    assert found.apply(y) == x
            else:
                negatives += 1
            total += 1
    assert total >= 10**4
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, elapsed, f"{total} instances, {positives} hold / {negatives} fail, 0 disagreements")


def test_criterion_06_corner_sweep_vs_generic_enumeration():
    start = time.monotonic()
    rng = random.Random(60606)
    total = 0
    for n, count in ((3, 120), (4, 90)):
        for _ in range(count):
            y = rand_rvec(rng, n)
            d = rand_weights(rng, n)
            hsys = build_dmaj_hrep(y, d)
            generic = enumerate_vertices(hsys).vertex_set()
            corners = {v.entries for v, _ in corners_with_labels(hsys)}
            assert generic == corners, (y, d)
            total += 1
    assert total >= 200
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(6, elapsed, f"{total} random systems, vertex sets identical")


def test_criterion_07_classical_max_dominance():
    start = time.monotonic()
    rng = random.Random(70707)
    instances = 0
    for n in (3, 4):
        for _ in range(50):
            y = rand_nonneg_rvec(rng, n)
            d = rand_weights(rng, n)
            z = classical_max_corner(y, d)
            verts = dmaj_vertices(y, d).vertices
            for _ in range(1000):
                weights = rand_convex_weights(rng, len(verts))
                point = RVec.zeros(n)
                for w, v in zip(weights, verts):
                    point = point + v * w
                assert classical_majorizes(z, point).holds, (y, d, point)
            order = sorted(range(n), key=lambda i: (-d[i], i))
            ratios = [z[i] / d[i] for i in order]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))
            instances += 1
    assert instances >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, elapsed, f"{instances} instances x 1000 hull samples, 0 violations")


def test_criterion_08_lipschitz_constants_and_bound():
    start = time.monotonic()
    assert lipschitz_constant(2) == 2
    assert lipschitz_constant(3) == 3
    c4 = lipschitz_constant(4)
    rng = random.Random(80808)
    constant = Fraction(3)
    pairs = 0
    for _ in range(100):
        a = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
        b = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
        if rng.random() < 0.3:
            b = b.translate(rand_rvec(rng, 3))
        pa, pb = enumerate_vertices(a), enumerate_vertices(b)
        assert not pa.is_empty and not pb.is_empty
        delta = hausdorff(pa, pb).distance
        assert delta <= constant * b_l1_distance(a, b)
        pairs += 1
    assert pairs >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        8,
        elapsed,
        f"C(2)=2, C(3)=3 exact; C(4)={c4} (computed, reported); bound held on {pairs} pairs",
    )


def test_criterion_09_sd3_catalog():
    from dmajor import sd3_extremes, verify_extremality

    start = time.monotonic()
    rng = random.Random(90909)
    checked = 0
    while checked < 50:
        den = rng.randint(1, 4)
        vals = sorted(
            {Fraction(rng.randint(1, 12 * den), den) for _ in range(3)}, reverse=True
        )
        if len(vals) != 3:
            continue
        d = RVec(tuple(vals))
        mats = sd3_extremes(d)
        expected = 10 if d[0] >= d[1] + d[2] else 13
        assert len(mats) == expected
        for m in mats:
            assert m.fixes(d)
            assert verify_extremality(m, d)
        y = rand_rvec(rng, 3)
        for vertex in dmaj_vertices(y, d).vertices:
            assert any(m.apply(y) == vertex for m in mats), (d, y, vertex)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(9, elapsed, f"{checked} weight vectors; counts, validity, extremality, factorization")


def test_criterion_10_preorder_and_extrema_regressions():
    start = time.monotonic()
    d = RVec.of(3, 2, 1)
    x = RVec.of(1, 0, 0)
    y = RVec.parse(["0", "2/3", "1/3"])
    forward = dmaj_by_onenorm(x, y, d)
    backward = dmaj_by_onenorm(y, x, d)
    assert forward and backward and x != y  # cycle detected

    rng = random.Random(101010)
    for _ in range(40):
        n = rng.randint(2, 4)
        dd = rand_weights(rng, n)
        mate = rand_rvec(rng, n)
        low = minimal_element(mate.total(), dd)
        assert dmaj_by_positive_parts(low, mate, dd)

    for dd in (RVec.of(3, 2, 1), RVec.of(4, 2, 1), RVec.of(1, 1), RVec.parse(["1/2", "1/2", "2"])):
        top, unique = maximal_element(dd)
        smallest = min(dd.entries)
        assert unique == (sum(1 for v in dd.entries if v == smallest) == 1)
        total = dd.total()
        for j in range(len(dd)):
            corner = RVec.unit(len(dd), j) * total
            assert dmaj_by_curve(corner, top, dd)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(10, elapsed, "cycle, minimal-element and maximal-element regressions")


def test_criterion_11_union_nonconvexity_regression():
    start = time.monotonic()
    x = RVec.parse(["2/5", "1/5", "2/5"])
    y = RVec.parse(["1/4", "1/2", "1/4"])
    other = RVec.parse(["1/4", "1/4", "1/2"])
    midpoint = (x + other) * Fraction(1, 2)
    assert midpoint == RVec.parse(["13/40", "9/40", "9/20"])
    assert not classical_hrep(x).contains(midpoint)
    assert not classical_hrep(y).contains(midpoint)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(11, elapsed, "midpoint rejected by both polytopes, bit-exact")
