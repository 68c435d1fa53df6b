"""Geometry of the weighted majorization polytope.

Construction of its halfspace description, the closed-form extreme points,
the corner that classically majorizes the whole polytope for nonnegative
input, exact 1-norm Hausdorff distances between vertex-described polytopes,
and the Lipschitz constant of the map from right-hand sides to polytopes.
Each vertex-to-polytope distance is one equality-form LP: the point is a
convex combination of the vertices plus p - q with p, q >= 0, and the LP
minimizes sum(p + q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, Sequence

from .curve import curve_build
from .exact import DimensionMismatch, Permutation, RMatrix, RVec, require_weights
from .halfspace import (
    DimensionCapExceeded,
    HalfspaceSystem,
    VPolytope,
    corners_with_labels,
    row_vector,
    subset_sums,
)
from .lp import LinearProgram, minimize

ZERO = Fraction(0)
ONE = Fraction(1)

LIPSCHITZ_CAP = 5

# lipschitz_constant(n) for n <= LIPSCHITZ_CAP; scripts/lipschitz_constants.py checks it.
LIPSCHITZ_CONSTANTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 9}


class NegativeEntries(ValueError):
    """The operation requires an entrywise nonnegative input vector."""


def build_dmaj_hrep(y: RVec, d: RVec) -> HalfspaceSystem:
    """Halfspace description of the set of vectors majorized by y under d.

    Each mask bound is the curve of (y, d) evaluated at the sum of d over
    the mask, which equals the minimum over i of
      sum((y - (y_i/d_i) d)_+) + (y_i/d_i) * (sum of d over the mask);
    the trace value is the entry sum of y.
    """
    curve = curve_build(y, d)
    dsums = list(subset_sums(d))
    return HalfspaceSystem.from_function(len(y), lambda m: curve.eval(dsums[m]), y.total())


def dmaj_vertices(y: RVec, d: RVec) -> VPolytope:
    """All extreme points, generated corner by corner over the permutations.

    The corner sweep is complete for systems of this shape, so no generic
    enumeration is needed.
    """
    sys = build_dmaj_hrep(y, d)
    return VPolytope(len(y), tuple(p for p, _ in corners_with_labels(sys)), sys)


def classical_max_corner(y: RVec, d: RVec) -> RVec:
    """The vertex that classically majorizes the whole polytope.

    Defined for entrywise nonnegative y only: with signed entries no such
    point needs to exist.  It is the corner along a permutation sorting d
    nonincreasingly (ties by index); its ratio vector against d is ordered
    like d itself.
    """
    sys = build_dmaj_hrep(y, d)
    if not y.is_nonnegative():
        raise NegativeEntries(
            "y has negative entries; no classical maximum exists in general"
        )
    order = sorted(range(len(y)), key=lambda i: (-d[i], i))
    return sys.corner(Permutation(tuple(order)))


@dataclass(frozen=True)
class HausdorffResult:
    distance: Fraction
    attaining_vertex: RVec
    side: Literal["left", "right"]


def distance_to_polytope(point: RVec, poly: VPolytope) -> Fraction:
    """Exact min 1-norm distance from a point to a convex hull, by LP.

    Equality form: point = sum_j lambda_j v_j + p - q with lambda, p, q >= 0
    and sum_j lambda_j = 1 (one row per coordinate plus the convexity row);
    minimizes sum(p + q).
    """
    if poly.is_empty:
        raise ValueError("distance to an empty polytope is undefined")
    n = len(point)
    m = len(poly.vertices)
    # variables: lambda_0..lambda_{m-1}, p_0..p_{n-1}, q_0..q_{n-1}
    objective = [ZERO] * m + [ONE] * (2 * n)
    eq = [([ONE] * m + [ZERO] * (2 * n), ONE)]
    for k in range(n):
        row = [v[k] for v in poly.vertices] + [ZERO] * (2 * n)
        row[m + k] = ONE
        row[m + n + k] = -ONE
        eq.append((row, point[k]))
    lp = LinearProgram.build(objective, eq=eq, nonneg=True)
    value, _ = minimize(lp)
    return value


def hausdorff(p: VPolytope, q: VPolytope) -> HausdorffResult:
    """Exact 1-norm Hausdorff distance between two vertex-described polytopes.

    The farthest point of a polytope from a convex set is one of its
    vertices, so both directed distances are maxima of vertex-to-polytope
    LP distances.
    """
    if p.is_empty or q.is_empty:
        raise ValueError("Hausdorff distance requires non-empty polytopes")
    if p.n != q.n:
        raise DimensionMismatch("polytopes of different dimension")
    best = HausdorffResult(Fraction(-1), p.vertices[0], "left")
    for side, src, dst in (("left", p, q), ("right", q, p)):
        for v in src.vertices:
            dist = distance_to_polytope(v, dst)
            if dist > best.distance:
                best = HausdorffResult(dist, v, side)  # type: ignore[arg-type]
    return best


def lipschitz_constant(n: int) -> Fraction:
    """Largest 1->1 norm of an inverse among invertible n-row subsystems.

    Sweeps all n-subsets of the distinct rows of the fixed 0/1 matrix (the
    proper masks plus the trace row; the negated trace row never changes
    the norm).  Growth in n is combinatorial, hence the hard cap.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n > LIPSCHITZ_CAP:
        raise DimensionCapExceeded(
            f"inverse-submatrix sweep supports n <= {LIPSCHITZ_CAP}"
        )
    rows = [row_vector(n, m) for m in range(1, (1 << n))]
    best = ZERO
    for subset in combinations(rows, n):
        inv = RMatrix(tuple(subset)).inverse()
        if inv is None:
            continue
        best = max(best, inv.one_to_one_norm())
    return best


def b_l1_distance(a: HalfspaceSystem, b: HalfspaceSystem) -> Fraction:
    """1-norm distance between full right-hand sides, trace rows included."""
    if a.n != b.n:
        raise DimensionMismatch("systems of different dimension")
    total = sum((abs(a.bvals[m] - b.bvals[m]) for m in range(1, a.full_mask)), ZERO)
    return total + 2 * abs(a.trace - b.trace)


def _union_hausdorff_bound(
    left: Sequence[VPolytope], right: Sequence[VPolytope]
) -> Fraction:
    """Upper bound for the Hausdorff distance between two finite unions.

    Exact when both unions have a single member; otherwise it is the
    standard pairwise min/max bound.
    """
    pairwise = [[hausdorff(a, b).distance for b in right] for a in left]
    forward = max(min(row) for row in pairwise)
    backward = max(min(pairwise[i][j] for i in range(len(left))) for j in range(len(right)))
    return max(forward, backward)


def nonexpansive_check(d: RVec, p: VPolytope, q: VPolytope) -> bool:
    """Check that mapping two hulls through the majorization operator
    does not increase their Hausdorff distance.

    The image of a finite point set is the union of the per-point
    polytopes; for multi-point inputs the union distance is replaced by
    its pairwise upper bound, which keeps the check sound but
    conservative.
    """
    require_weights(d)
    if p.is_empty or q.is_empty:
        raise ValueError("nonexpansiveness check requires non-empty inputs")
    images_p = [dmaj_vertices(v, d) for v in p.vertices]
    images_q = [dmaj_vertices(v, d) for v in q.vertices]
    lhs = _union_hausdorff_bound(images_p, images_q)
    rhs = hausdorff(p, q).distance
    return lhs <= rhs
