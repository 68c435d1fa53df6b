"""Decision procedures for majorization relative to a positive weight vector.

``x`` is d-majorized by ``y`` when some column-stochastic matrix fixing d
maps y to x.  Three finite criteria decide the relation without producing
the matrix.  The witness is built by balayage: scaled as pi_ij = A_ij d_j,
a witness is a martingale coupling of mu = sum d_i delta(x_i/d_i) and
nu = sum d_j delta(y_j/d_j), and the Chacon-Walsh construction sweeps mu
towards nu in exact arithmetic, one linear piece of the potential of nu
at a time.  ``find_witness_lp`` keeps the exact phase-1 simplex on the
vectorized system as an independent oracle.  The relation is a preorder,
not a partial order: distinct vectors can majorize each other.

The finite criteria subsume their continuum counterparts: comparing
positive parts at the 2n ratio breakpoints is equivalent to comparing at
every real shift (and to testing every continuous convex function), so
nothing is lost by checking breakpoints only.

The one-norm and curve deciders are short callers of the curve core in
``curve.py``.  The positive-part decider is written directly from its
definition, and the balayage computes its own potential from tail sums of
the swept measure; neither touches the curve, so the agreement sweeps and
``check --criterion all`` keep comparing independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import curve_build, curve_leq
from .exact import DimensionMismatch, Permutation, RMatrix, RVec, require_weights
from .lp import LinearProgram, feasible

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class StochMatrix:
    """Column-stochastic matrix; the witness object of the relation."""

    entries: RMatrix

    def __post_init__(self) -> None:
        m = self.entries
        if m.nrows != m.ncols:
            raise ValueError("stochastic matrices are square")
        for i in range(m.nrows):
            for j in range(m.ncols):
                if m.rows[i][j] < 0:
                    raise ValueError(f"negative entry at ({i}, {j})")
        for j in range(m.ncols):
            if m.col(j).total() != 1:
                raise ValueError(f"column {j} does not sum to 1")

    @property
    def n(self) -> int:
        return self.entries.nrows

    def apply(self, v: RVec) -> RVec:
        return self.entries.matvec(v)

    def fixes(self, d: RVec) -> bool:
        return self.apply(d) == d

    @staticmethod
    def identity(n: int) -> "StochMatrix":
        return StochMatrix(RMatrix.identity(n))


def _check_pair(x: RVec, y: RVec, d: RVec) -> None:
    if len(x) != len(y) or len(x) != len(d):
        raise DimensionMismatch(f"lengths {len(x)}, {len(y)}, {len(d)} differ")
    require_weights(d)


def dmaj_by_positive_parts(x: RVec, y: RVec, d: RVec) -> bool:
    """Positive-part comparison at the 2n breakpoints x_i/d_i and y_i/d_i.

    The trace equality is checked explicitly on top of the breakpoint
    inequalities so that all deciders share one contract.
    """

    def positive_part_sum(v: RVec, t: Fraction) -> Fraction:
        return sum((max(v[j] - t * d[j], ZERO) for j in range(len(v))), ZERO)

    _check_pair(x, y, d)
    if x.total() != y.total():
        return False
    breakpoints = {x[i] / d[i] for i in range(len(x))}
    breakpoints.update(y[i] / d[i] for i in range(len(y)))
    return all(
        positive_part_sum(x, t) <= positive_part_sum(y, t) for t in breakpoints
    )


def dmaj_by_onenorm(x: RVec, y: RVec, d: RVec) -> bool:
    """Trace equality plus the n one-norm tests at t = y_i/d_i.

    With T the common trace, ||v - t d||_1 = 2 u_v(t) - T + t sum(d) for the
    potential u_v(t) = sum((v - t d)_+), so each one-norm test is the
    comparison of the two curve potentials at t.
    """
    _check_pair(x, y, d)
    if x.total() != y.total():
        return False
    cx, cy = curve_build(x, d), curve_build(y, d)
    ratios = (y[i] / d[i] for i in range(len(y)))
    return all(cx.potential(t) <= cy.potential(t) for t in ratios)


def dmaj_by_curve(x: RVec, y: RVec, d: RVec) -> bool:
    """Trace equality plus the elbow inequalities of the curve form.

    Each prefix sum of x, taken in the order that makes x/d nonincreasing,
    must stay below the curve of y at the matching prefix sum of d.
    """
    _check_pair(x, y, d)
    if x.total() != y.total():
        return False
    return curve_leq(curve_build(x, d), curve_build(y, d))


def find_witness(x: RVec, y: RVec, d: RVec) -> StochMatrix | None:
    """A column-stochastic A with A d = d and A y = x, or None.

    Row i of pi_ij = A_ij d_j is a kernel of mass d_i and mean x_i on the
    target ratios y_j/d_j.  The kernels start as point masses at x_i/d_i,
    and m, their sum, starts as mu.  For each linear piece of the potential
    u_nu(t) = sum_j (y_j - t d_j)_+ between consecutive distinct target
    ratios, with L the line extending it, the mass of every kernel inside
    {u_m < L} = (a, b) moves to a and b with its mean kept (Chacon-Walsh
    balayage); afterwards u_m >= L there and u_m <= u_nu still holds when
    x is majorized by y.  A witness exists exactly when m ends equal to
    nu; then A_ij is kernel i's mass at y_j/d_j over nu's mass there,
    which splits tied target ratios in proportion to d_j.  The result is
    checked exactly; a failed check after m = nu is an internal error.

    The potential here comes from tail sums of m, not from the curve core
    in ``curve.py`` that two of the deciders use, so ``check --criterion
    all`` compares the witness with them as a separate computation.
    """
    _check_pair(x, y, d)
    if x.total() != y.total():
        return None
    n = len(x)
    ratios = [y[j] / d[j] for j in range(n)]
    nu: dict[Fraction, Fraction] = {}
    for r, w in zip(ratios, d.entries):
        nu[r] = nu.get(r, ZERO) + w
    # atoms[p][i]: mass of kernel i at the point p; mass[p]: mass of m at p.
    atoms: dict[Fraction, dict[int, Fraction]] = {}
    mass: dict[Fraction, Fraction] = {}
    for i in range(n):
        p = x[i] / d[i]
        atoms.setdefault(p, {})[i] = d[i]
        mass[p] = mass.get(p, ZERO) + d[i]
    support = sorted(nu)
    for k in range(1, len(support)):
        # On (s_{k-1}, s_k), u_nu(t) = alpha - beta t over the ratios >= s_k.
        tail = support[k:]
        alpha = sum((s * nu[s] for s in tail), ZERO)
        beta = sum((nu[s] for s in tail), ZERO)
        _sweep(atoms, mass, alpha, beta)
    if mass != nu:
        return None
    rows = tuple(
        tuple(atoms[r].get(i, ZERO) / nu[r] for r in ratios) for i in range(n)
    )
    witness = StochMatrix(RMatrix(rows))
    if witness.apply(y) != x or witness.apply(d) != d:
        raise AssertionError(f"balayage witness fails A y = x or A d = d: {rows}")
    return witness


def _sweep(
    atoms: dict[Fraction, dict[int, Fraction]],
    mass: dict[Fraction, Fraction],
    alpha: Fraction,
    beta: Fraction,
) -> None:
    """Balayage of m out of {u_m < alpha - beta t}, kernel by kernel.

    With p_0 < p_1 < ... the points of m and S_q, M_q the first moment and
    mass of m on [p_q, oo), u_m(t) = S_q - t M_q on (p_{q-1}, p_q], so the
    concave gap g = L - u_m is alpha - S_q - p_q (beta - M_q) at p_q.  The
    points where g > 0 are consecutive; the ends a and b of the interval
    are the zeros of g on the pieces just outside them.
    """
    points = sorted(mass)
    tails = [(ZERO, ZERO)]
    for p in reversed(points):
        s, m = tails[-1]
        tails.append((s + mass[p] * p, m + mass[p]))
    tails.reverse()  # tails[q] = (S_q, M_q); tails[len(points)] = (0, 0)
    inside = [
        q for q, p in enumerate(points)
        if alpha - tails[q][0] - p * (beta - tails[q][1]) > 0
    ]
    if not inside:
        return
    lo, hi = inside[0], inside[-1]
    a = (tails[lo][0] - alpha) / (tails[lo][1] - beta)
    b = (tails[hi + 1][0] - alpha) / (tails[hi + 1][1] - beta)
    left, right = atoms.setdefault(a, {}), atoms.setdefault(b, {})
    for p in points[lo : hi + 1]:
        to_a, to_b = (b - p) / (b - a), (p - a) / (b - a)
        moved = mass.pop(p)
        mass[a] = mass.get(a, ZERO) + moved * to_a
        mass[b] = mass.get(b, ZERO) + moved * to_b
        for i, w in atoms.pop(p).items():
            left[i] = left.get(i, ZERO) + w * to_a
            right[i] = right.get(i, ZERO) + w * to_b


def find_witness_lp(x: RVec, y: RVec, d: RVec) -> StochMatrix | None:
    """A column-stochastic A with A d = d and A y = x, or None.

    The independent oracle for ``find_witness``.  Solved as exact phase-1
    feasibility on the n^2 nonnegative matrix entries with the 3n defining
    equality rows; one always-redundant weight row is dropped.
    """
    _check_pair(x, y, d)
    n = len(x)
    nv = n * n  # variable (i, j) at index i * n + j

    def unit_row() -> list[Fraction]:
        return [ZERO] * nv

    eq: list[tuple[list[Fraction], Fraction]] = []
    for i in range(n):  # image rows: sum_j A_ij y_j = x_i
        row = unit_row()
        for j in range(n):
            row[i * n + j] = y[j]
        eq.append((row, x[i]))
    for i in range(n - 1):  # weight rows: sum_j A_ij d_j = d_i (last is redundant)
        row = unit_row()
        for j in range(n):
            row[i * n + j] = d[j]
        eq.append((row, d[i]))
    for j in range(n):  # column sums: sum_i A_ij = 1
        row = unit_row()
        for i in range(n):
            row[i * n + j] = ONE
        eq.append((row, ONE))

    lp = LinearProgram.build([0] * nv, eq=eq, nonneg=True)
    point = feasible(lp)
    if point is None:
        return None
    rows = tuple(tuple(point[i * n + j] for j in range(n)) for i in range(n))
    return StochMatrix(RMatrix(rows))


def similarly_d_ordered(x: RVec, y: RVec, d: RVec) -> Permutation | None:
    """A permutation making both x/d and y/d nonincreasing, if one exists.

    Sorting by x/d with y/d as tie-break realizes a common refinement
    whenever there is one; the result is verified before returning.
    """
    _check_pair(x, y, d)
    n = len(x)
    rx = [x[i] / d[i] for i in range(n)]
    ry = [y[i] / d[i] for i in range(n)]
    order = sorted(range(n), key=lambda i: (-rx[i], -ry[i], i))
    for a, b in zip(order, order[1:]):
        if ry[a] < ry[b]:
            return None
    return Permutation(tuple(order))


def minimal_element(trace: Fraction, d: RVec) -> RVec:
    """The unique minimum on the trace plane: the rescaled weight vector."""
    require_weights(d)
    return d * (trace / d.total())


def maximal_element(d: RVec) -> tuple[RVec, bool]:
    """A maximal point of the scaled simplex and whether it is unique.

    The mass sits on a coordinate with minimal weight (smallest index on
    ties); uniqueness holds exactly when that minimal weight is strict.
    """
    require_weights(d)
    smallest = min(d.entries)
    k = d.entries.index(smallest)
    unique = sum(1 for v in d.entries if v == smallest) == 1
    return RVec.unit(len(d), k) * d.total(), unique
