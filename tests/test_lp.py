import random
from fractions import Fraction

import pytest

from dmajor import (
    InfeasibleProgram,
    LinearProgram,
    RVec,
    UnboundedProgram,
    build_dmaj_hrep,
    enumerate_vertices,
    feasible,
    minimize,
)
from dmajor.lp import in_convex_hull, solve, verify_farkas

from helpers import rand_rvec, rand_weights


def test_single_variable_feasible():
    lp = LinearProgram.build([0], eq=[([1], 1)], nonneg=True)
    assert feasible(lp) == (Fraction(1),)


def test_single_variable_infeasible():
    lp = LinearProgram.build([0], eq=[([1], -1)], nonneg=True)
    assert feasible(lp) is None


def test_minimize_simple_bound():
    # min x subject to x >= 3, written as -x <= -3
    lp = LinearProgram.build([1], ub=[([-1], -3)], nonneg=True)
    value, assignment = minimize(lp)
    assert value == 3
    assert assignment == (Fraction(3),)


def test_minimize_free_variable_unbounded():
    lp = LinearProgram.build([1], nonneg=False)
    with pytest.raises(UnboundedProgram):
        minimize(lp)


def test_minimize_infeasible_raises():
    lp = LinearProgram.build([1], eq=[([1], -2)], nonneg=True)
    with pytest.raises(InfeasibleProgram):
        minimize(lp)


def test_equality_with_free_variables():
    # min x + y with x + y = 4, x <= 1 (x free, y free)
    lp = LinearProgram.build(
        [1, 1], eq=[([1, 1], 4)], ub=[([1, 0], 1)], nonneg=False
    )
    value, assignment = minimize(lp)
    assert value == 4
    assert sum(assignment) == 4


def test_degenerate_redundant_rows():
    lp = LinearProgram.build(
        [0, 0], eq=[([1, 1], 2), ([2, 2], 4), ([1, 1], 2)], nonneg=True
    )
    point = feasible(lp)
    assert point is not None
    assert point[0] + point[1] == 2
    lp = LinearProgram.build(
        [1, 0], eq=[([1, 1], 2), ([2, 2], 4), ([1, 1], 2)], nonneg=True
    )
    assert minimize(lp) == (0, (0, 2))
    lp = LinearProgram.build([-1, 0], eq=[([1, -1], 0), ([2, -2], 0)], nonneg=True)
    with pytest.raises(UnboundedProgram):
        minimize(lp)


def _assignment_satisfies(lp: LinearProgram, point) -> bool:
    for row, rhs in zip(lp.eq_rows, lp.eq_rhs):
        if sum(c * v for c, v in zip(row, point)) != rhs:
            return False
    for row, rhs in zip(lp.ub_rows, lp.ub_rhs):
        if sum(c * v for c, v in zip(row, point)) > rhs:
            return False
    return all(v >= 0 for flag, v in zip(lp.nonneg, point) if flag)


def test_random_systems_exact_assignment_or_certificate():
    rng = random.Random(20240817)
    feasible_seen = infeasible_seen = 0
    for _ in range(120):
        nvars = rng.randint(1, 4)
        lp = LinearProgram.build(
            [rng.randint(-2, 2) for _ in range(nvars)],
            eq=[
                (
                    [rng.randint(-3, 3) for _ in range(nvars)],
                    rng.randint(-4, 4),
                )
                for _ in range(rng.randint(0, 2))
            ],
            ub=[
                (
                    [rng.randint(-3, 3) for _ in range(nvars)],
                    rng.randint(-4, 4),
                )
                for _ in range(rng.randint(0, 3))
            ],
            nonneg=[rng.random() < 0.7 for _ in range(nvars)],
        )
        result = solve(lp)
        if result.status == "optimal":
            feasible_seen += 1
            assert _assignment_satisfies(lp, result.assignment)
        elif result.status == "infeasible":
            infeasible_seen += 1
            assert result.certificate is not None
            assert verify_farkas(lp, result.certificate)
    assert feasible_seen > 10 and infeasible_seen > 10


def test_witness_system_for_three_dim_cycle_pair():
    # the vectorized 9-variable system with a known solution
    d = RVec.of(3, 2, 1)
    x = RVec.of(1, 0, 0)
    y = RVec.parse(["0", "2/3", "1/3"])
    n = 3
    eq = []
    for i in range(n):
        row = [Fraction(0)] * 9
        for j in range(n):
            row[i * n + j] = y[j]
        eq.append((row, x[i]))
    for i in range(n):
        row = [Fraction(0)] * 9
        for j in range(n):
            row[i * n + j] = d[j]
        eq.append((row, d[i]))
    for j in range(n):
        row = [Fraction(0)] * 9
        for i in range(n):
            row[i * n + j] = Fraction(1)
        eq.append((row, Fraction(1)))
    lp = LinearProgram.build([0] * 9, eq=eq, nonneg=True)
    assert feasible(lp) is not None


def test_distance_to_singleton_polytope():
    # min 1-norm distance from (5,0,-1) to {(4,-2,2)} via slack variables
    target = RVec.of(4, -2, 2)
    point = RVec.of(5, 0, -1)
    ub = []
    for k in range(3):
        row_plus = [Fraction(0)] * 3
        row_plus[k] = Fraction(-1)
        ub.append((row_plus, target[k] - point[k]))
        row_minus = [Fraction(0)] * 3
        row_minus[k] = Fraction(-1)
        ub.append((row_minus, point[k] - target[k]))
    lp = LinearProgram.build([1, 1, 1], ub=ub, nonneg=True)
    value, _ = minimize(lp)
    assert value == 6


def test_minimize_agrees_with_vertex_scan():
    rng = random.Random(411)
    for _ in range(12):
        y = rand_rvec(rng, 3)
        d = rand_weights(rng, 3)
        hsys = build_dmaj_hrep(y, d)
        poly = enumerate_vertices(hsys)
        assert not poly.is_empty
        objective = [rand_rvec(rng, 3)[k] for k in range(3)]
        full = hsys.full_mask
        ub = []
        for m in range(1, full):
            row = [Fraction(1) if m & (1 << i) else Fraction(0) for i in range(3)]
            ub.append((row, hsys.b(m)))
        eq = [([Fraction(1)] * 3, hsys.trace)]
        lp = LinearProgram.build(objective, eq=eq, ub=ub, nonneg=False)
        value, _ = minimize(lp)
        brute = min(
            sum(c * v for c, v in zip(objective, vert.entries)) for vert in poly.vertices
        )
        assert value == brute


def test_in_convex_hull():
    square = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
              (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    assert in_convex_hull((Fraction(1, 2), Fraction(1, 2)), square)
    assert not in_convex_hull((Fraction(2), Fraction(0)), square)
