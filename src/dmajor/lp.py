"""Exact rational linear programming.

A small dense two-phase simplex with Bland's anti-cycling rule, used for
feasibility questions (witness construction, emptiness detection, convex-hull
membership) and for 1-norm point-to-polytope distances.  All pivots are done
in Fraction arithmetic by :func:`dmajor.exact.eliminate`; answers are exact.

Tableau: one ``[columns... | rhs]`` row per constraint, then the objective
row ``[reduced costs... | -value]``, priced once per phase and updated by
every pivot.  Phase 1 adds one artificial column per row; phase 2 drops them
and the all-zero redundant rows, and runs on the structural columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import RationalLike, eliminate, parse_rational

Row = tuple[Fraction, ...]


class InfeasibleProgram(ValueError):
    """The constraint system has no solution."""


class UnboundedProgram(ValueError):
    """The objective is unbounded below on the feasible set."""


def _coerce_row(row: Sequence[RationalLike]) -> Row:
    return tuple(parse_rational(v) for v in row)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  eq_rows x = eq_rhs,  ub_rows x <= ub_rhs.

    ``nonneg[j]`` marks variable j as constrained to x_j >= 0; other
    variables are free.
    """

    objective: Row
    eq_rows: tuple[Row, ...] = ()
    eq_rhs: Row = ()
    ub_rows: tuple[Row, ...] = ()
    ub_rhs: Row = ()
    nonneg: tuple[bool, ...] = ()

    @staticmethod
    def build(
        objective: Sequence[RationalLike],
        eq: Sequence[tuple[Sequence[RationalLike], RationalLike]] = (),
        ub: Sequence[tuple[Sequence[RationalLike], RationalLike]] = (),
        nonneg: Sequence[bool] | bool = True,
    ) -> "LinearProgram":
        obj = _coerce_row(objective)
        nvars = len(obj)
        if isinstance(nonneg, bool):
            flags = (nonneg,) * nvars
        else:
            flags = tuple(nonneg)
        eq_rows = tuple(_coerce_row(r) for r, _ in eq)
        eq_rhs = tuple(parse_rational(b) for _, b in eq)
        ub_rows = tuple(_coerce_row(r) for r, _ in ub)
        ub_rhs = tuple(parse_rational(b) for _, b in ub)
        lp = LinearProgram(obj, eq_rows, eq_rhs, ub_rows, ub_rhs, flags)
        lp._validate()
        return lp

    def _validate(self) -> None:
        nvars = len(self.objective)
        if len(self.nonneg) != nvars:
            raise ValueError("nonneg flags must match the variable count")
        for row in self.eq_rows + self.ub_rows:
            if len(row) != nvars:
                raise ValueError("constraint row width must match the variable count")
        if len(self.eq_rows) != len(self.eq_rhs) or len(self.ub_rows) != len(self.ub_rhs):
            raise ValueError("constraint rows and right-hand sides must pair up")

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None
    # Farkas certificate (one multiplier per constraint row, equality rows
    # first) produced when status == "infeasible"; see verify_farkas.
    certificate: tuple[Fraction, ...] | None = None


ZERO = Fraction(0)
ONE = Fraction(1)


class _Standardized:
    """Equality standard form min c.z, A z = b, z >= 0 plus back-mapping."""

    def __init__(self, lp: LinearProgram) -> None:
        self.lp = lp
        cols: list[tuple[int, int]] = []  # (original var, sign)
        for j, nn in enumerate(lp.nonneg):
            cols.append((j, +1))
            if not nn:
                cols.append((j, -1))
        self.cols = cols
        self.nslack = len(lp.ub_rows)
        self.ncols = len(cols) + self.nslack
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.flipped: list[bool] = []
        all_rows = list(zip(lp.eq_rows, lp.eq_rhs)) + list(zip(lp.ub_rows, lp.ub_rhs))
        for ridx, (row, b) in enumerate(all_rows):
            out = [row[j] * sign for (j, sign) in cols]
            out.extend(ONE if ridx - len(lp.eq_rows) == s else ZERO for s in range(self.nslack))
            flip = b < 0
            if flip:
                out = [-v for v in out]
                b = -b
            self.rows.append(out)
            self.rhs.append(b)
            self.flipped.append(flip)
        self.cost = [lp.objective[j] * sign for (j, sign) in cols] + [ZERO] * self.nslack

    def recover(self, z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        x = [ZERO] * self.lp.nvars
        for value, (j, sign) in zip(z, self.cols):
            x[j] += value * sign
        return tuple(x)


def _objective_row(
    rows: Sequence[Sequence[Fraction]], basis: Sequence[int], cost: Sequence[Fraction]
) -> list[Fraction]:
    """Reduced costs of ``cost`` in the given basis, then minus the objective value."""
    objective = list(cost) + [ZERO]
    for row, bv in zip(rows, basis):
        cb = cost[bv]
        if cb == 0:
            continue
        for j, a in enumerate(row):
            if a != 0:
                objective[j] -= cb * a
    return objective


def _simplex(tableau: list[list[Fraction]], basis: list[int]) -> bool:
    """Minimize the objective kept in the last tableau row, by Bland's rule.

    Returns False when an unbounded descent direction is found, else True.
    """
    while True:
        enter = next((j for j, c in enumerate(tableau[-1][:-1]) if c < 0), None)
        if enter is None:
            return True
        rows = [r for r in range(len(basis)) if tableau[r][enter] > 0]
        if not rows:
            return False
        # Ratio test; ties go to the smallest basic variable (Bland).
        leave = min(rows, key=lambda r: (tableau[r][-1] / tableau[r][enter], basis[r]))
        eliminate(tableau, leave, enter)
        basis[leave] = enter


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase exact simplex; returns status, optimum and certificate."""
    lp._validate()
    std = _Standardized(lp)
    m = len(std.rows)
    ncols = std.ncols

    # Phase 1: artificial basis, minimizing the sum of the artificials.
    tableau = [std.rows[r] + [ZERO] * m + [std.rhs[r]] for r in range(m)]
    for r in range(m):
        tableau[r][ncols + r] = ONE
    basis = [ncols + r for r in range(m)]
    tableau.append(_objective_row(tableau, basis, [ZERO] * ncols + [ONE] * m))
    _simplex(tableau, basis)

    if tableau[m][-1] < 0:
        # Simplex multipliers of the phase-1 optimum give a Farkas witness
        # w with A^T w <= 0 and b^T w > 0 for the standardized system.
        w = [ONE - tableau[m][ncols + r] for r in range(m)]
        w = [-wi if std.flipped[r] else wi for r, wi in enumerate(w)]
        return LpResult("infeasible", certificate=tuple(w))

    # Drive remaining artificials out of the basis.  Their rows have rhs 0,
    # so pivoting there changes no right-hand side; rows with no structural
    # entry left are redundant.
    for r in range(m):
        if basis[r] < ncols:
            continue
        col = next((j for j in range(ncols) if tableau[r][j] != 0), None)
        if col is not None:
            eliminate(tableau, r, col)
            basis[r] = col

    # Phase 2 on the structural columns: the redundant rows (all zero, with
    # an artificial still basic) and the artificial columns are dropped.
    kept = [r for r in range(m) if basis[r] < ncols]
    tableau = [tableau[r][:ncols] + [tableau[r][-1]] for r in kept]
    basis = [basis[r] for r in kept]
    tableau.append(_objective_row(tableau, basis, std.cost))
    if not _simplex(tableau, basis):
        return LpResult("unbounded")

    z = [ZERO] * ncols
    for r, bv in enumerate(basis):
        z[bv] = tableau[r][-1]
    assignment = std.recover(z)
    value = sum((c * v for c, v in zip(lp.objective, assignment)), ZERO)
    return LpResult("optimal", value, assignment)


def feasible(lp: LinearProgram) -> tuple[Fraction, ...] | None:
    """A point satisfying the constraints, or None when there is none."""
    probe = LinearProgram(
        (ZERO,) * lp.nvars, lp.eq_rows, lp.eq_rhs, lp.ub_rows, lp.ub_rhs, lp.nonneg
    )
    result = solve(probe)
    return result.assignment if result.status == "optimal" else None


def minimize(lp: LinearProgram) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum; raises on infeasible or unbounded programs."""
    result = solve(lp)
    if result.status == "infeasible":
        raise InfeasibleProgram("constraints admit no solution")
    if result.status == "unbounded":
        raise UnboundedProgram("objective is unbounded below")
    assert result.value is not None and result.assignment is not None
    return result.value, result.assignment


def verify_farkas(lp: LinearProgram, w: Sequence[Fraction]) -> bool:
    """Check a certificate of infeasibility by direct substitution.

    With multipliers w (equality rows first, then inequality rows) the
    combined row y = w^T A must satisfy y_j <= 0 for nonnegative variables
    and y_j = 0 for free ones, w must be <= 0 on inequality rows, and
    w . b must be > 0.
    """
    neq = len(lp.eq_rows)
    rows = lp.eq_rows + lp.ub_rows
    rhs = lp.eq_rhs + lp.ub_rhs
    if len(w) != len(rows):
        return False
    if any(w[neq + i] > 0 for i in range(len(lp.ub_rows))):
        return False
    for j in range(lp.nvars):
        combined = sum((w[r] * rows[r][j] for r in range(len(rows))), ZERO)
        if lp.nonneg[j]:
            if combined > 0:
                return False
        elif combined != 0:
            return False
    value = sum((w[r] * rhs[r] for r in range(len(rows))), ZERO)
    return value > 0


def in_convex_hull(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Exact membership of a point in the convex hull of finitely many points."""
    if not generators:
        return False
    n = len(point)
    m = len(generators)
    eq: list[tuple[list[Fraction], Fraction]] = []
    for k in range(n):
        eq.append(([parse_rational(g[k]) for g in generators], parse_rational(point[k])))
    eq.append(([ONE] * m, ONE))
    lp = LinearProgram.build([0] * m, eq=eq, nonneg=True)
    return feasible(lp) is not None
