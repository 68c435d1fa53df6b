"""Halfspace systems over the fixed 0/1 constraint matrix.

Every majorization polytope in dimension n is cut out by the same matrix
whose rows are all 0/1 indicator vectors plus the trace row and its
negation; only the right-hand side b varies.  The matrix is never stored:
rows are addressed by subset bitmasks and the system is just the lookup
mask -> b together with the trace value (the two trace rows carry T and
-T, so the trace plane is an equality).  All mask sums come from one
recurrence, :func:`subset_sums`; the corner sweep sorts its corners by entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .exact import DimensionMismatch, Permutation, RMatrix, RVec, all_permutations
from .lp import LinearProgram, feasible

ZERO = Fraction(0)
ONE = Fraction(1)

GENERIC_ENUMERATION_CAP = 5
PERMUTATION_SWEEP_CAP = 7
MAX_N_ENV = "DMAJOR_MAX_N"


class EmptyIntersection(ValueError):
    """Intersection of systems on different trace planes is empty."""


class DimensionCapExceeded(ValueError):
    """The dimension exceeds the enforced combinatorial cap."""


def dimension_cap(default: int) -> int:
    """Active cap, overridable through the DMAJOR_MAX_N environment variable."""
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        return default


def mask_indices(mask: int) -> tuple[int, ...]:
    """0-based coordinate indices selected by a bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subset_sums(v: RVec) -> Iterator[Fraction]:
    """Row-times-vector for masks 0, 1, ..., 2^n - 1, in that order.

    A mask's sum is the sum without its lowest bit plus one entry, so each
    mask costs one addition; stopping early skips the remaining masks.
    """
    sums = [ZERO]
    yield ZERO
    for m in range(1, 1 << len(v)):
        low = m & -m
        sums.append(sums[m ^ low] + v.entries[low.bit_length() - 1])
        yield sums[m]


def proper_masks(n: int) -> Iterator[int]:
    """All 2^n - 2 proper nonempty masks, grouped by popcount then by value."""
    full = (1 << n) - 1
    masks = [m for m in range(1, full)]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return iter(masks)


def row_vector(n: int, mask: int) -> tuple[Fraction, ...]:
    return tuple(ONE if mask & (1 << i) else ZERO for i in range(n))


@dataclass(frozen=True)
class HalfspaceSystem:
    """Right-hand side for the fixed 0/1 matrix in dimension n.

    ``bvals[mask]`` holds the bound for the row with ones at the mask
    positions; index 0 is pinned to 0 and the full mask carries the trace
    value T (the paired rows T and -T force an equality).
    """

    n: int
    bvals: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.bvals) != (1 << self.n):
            raise ValueError("b table must have 2^n entries")
        if self.bvals[0] != 0:
            raise ValueError("the empty row is pinned to 0")

    @staticmethod
    def from_function(n: int, fn: Callable[[int], Fraction], trace: Fraction) -> "HalfspaceSystem":
        full = (1 << n) - 1
        vals = [ZERO] * (1 << n)
        for m in range(1, full):
            vals[m] = fn(m)
        vals[full] = trace
        return HalfspaceSystem(n, tuple(vals))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def trace(self) -> Fraction:
        return self.bvals[self.full_mask]

    def b(self, mask: int) -> Fraction:
        return self.bvals[mask]

    def b_vector(self) -> list[Fraction]:
        """Displayed b: proper masks by (popcount, mask value), then T and -T.

        Consumers relying on positional b indices must use this same row
        order.
        """
        vals = [self.bvals[m] for m in proper_masks(self.n)]
        vals.extend([self.trace, -self.trace])
        return vals

    def _check_dim(self, x: RVec) -> None:
        if len(x) != self.n:
            raise DimensionMismatch(f"system dimension {self.n}, vector length {len(x)}")

    def contains(self, x: RVec) -> bool:
        """Membership: the trace matches and every row bound holds (stops at a violation)."""
        self._check_dim(x)
        if x.total() != self.trace:
            return False
        return all(s <= b for s, b in zip(subset_sums(x), self.bvals))

    def is_subset_of(self, other: "HalfspaceSystem") -> bool:
        """Componentwise b comparison with equal traces."""
        if self.n != other.n:
            raise DimensionMismatch("systems of different dimension")
        if self.trace != other.trace:
            return False
        return all(self.bvals[m] <= other.bvals[m] for m in range(1, self.full_mask))

    def translate(self, p: RVec) -> "HalfspaceSystem":
        """Shift the solution set by p: b(S) -> b(S) + sum of p over S."""
        self._check_dim(p)
        return HalfspaceSystem(self.n, tuple(b + s for b, s in zip(self.bvals, subset_sums(p))))

    def intersect(self, other: "HalfspaceSystem") -> "HalfspaceSystem":
        """Componentwise minimum of bounds; traces must agree."""
        if self.n != other.n:
            raise DimensionMismatch("systems of different dimension")
        if self.trace != other.trace:
            raise EmptyIntersection(
                f"empty intersection: trace planes differ ({self.trace} vs {other.trace})"
            )
        vals = [min(a, b) for a, b in zip(self.bvals, other.bvals)]
        vals[self.full_mask] = self.trace
        return HalfspaceSystem(self.n, tuple(vals))

    def corner(self, sigma: Permutation) -> RVec:
        """Closed-form candidate vertex along the prefix chain of sigma.

        Entry sigma(j) is the difference of bounds of consecutive prefix
        masks; the last step uses the trace value.
        """
        if sigma.n != self.n:
            raise DimensionMismatch("permutation size differs from system dimension")
        out: list[Fraction] = [ZERO] * self.n
        mask = 0
        prev = ZERO
        for j in range(self.n):
            mask |= 1 << sigma(j)
            cur = self.bvals[mask]
            out[sigma(j)] = cur - prev
            prev = cur
        return RVec(tuple(out))

    def is_empty(self) -> bool:
        """Phase-1 feasibility of the full inequality system."""
        full = self.full_mask
        ub = [(row_vector(self.n, m), self.bvals[m]) for m in range(1, full)]
        eq = [(row_vector(self.n, full), self.trace)]
        lp = LinearProgram.build([0] * self.n, eq=eq, ub=ub, nonneg=False)
        return feasible(lp) is None


@dataclass(frozen=True)
class VPolytope:
    """Deduplicated extreme-point list, with the generating system if any."""

    n: int
    vertices: tuple[RVec, ...]
    origin: HalfspaceSystem | None = None

    @staticmethod
    def from_points(points: Iterable[RVec], origin: HalfspaceSystem | None = None) -> "VPolytope":
        unique = sorted({p.entries for p in points})
        if not unique:
            raise ValueError("a vertex list must contain at least one point")
        n = len(unique[0])
        return VPolytope(n, tuple(RVec(e) for e in unique), origin)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def vertex_set(self) -> set[tuple[Fraction, ...]]:
        return {v.entries for v in self.vertices}


def enumerate_vertices(sys: HalfspaceSystem) -> VPolytope:
    """Generic vertex enumeration for an arbitrary trace-paired system.

    Candidate active sets are the n-row subsets that contain the trace row;
    each full-rank subset is solved exactly and kept when the solution
    satisfies the whole system.  An empty system yields an empty polytope.
    """
    n = sys.n
    cap = dimension_cap(GENERIC_ENUMERATION_CAP)
    if n > cap:
        raise DimensionCapExceeded(
            f"generic enumeration supports n <= {cap} (set {MAX_N_ENV} to raise)"
        )
    if sys.is_empty():
        return VPolytope(n, (), sys)

    full = sys.full_mask
    row_of = [row_vector(n, m) for m in range(full + 1)]
    found: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(1, full), n - 1):
        rows = [row_of[m] for m in subset] + [row_of[full]]
        rhs = RVec(tuple(sys.bvals[m] for m in subset) + (sys.trace,))
        point = RMatrix(tuple(rows)).solve(rhs)
        if point is None:
            continue
        if sys.contains(point):
            found.add(point.entries)
    return VPolytope(n, tuple(RVec(e) for e in sorted(found)), sys)


def corners_with_labels(sys: HalfspaceSystem) -> list[tuple[RVec, Permutation]]:
    """All distinct corners, sorted by entries, with their first generating
    permutation."""
    n = sys.n
    cap = dimension_cap(PERMUTATION_SWEEP_CAP)
    if n > cap:
        raise DimensionCapExceeded(
            f"permutation sweeps support n <= {cap} (set {MAX_N_ENV} to raise)"
        )
    first: dict[tuple[Fraction, ...], tuple[RVec, Permutation]] = {}
    for sigma in all_permutations(n):
        point = sys.corner(sigma)
        first.setdefault(point.entries, (point, sigma))
    return [first[e] for e in sorted(first)]
