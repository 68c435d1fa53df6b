"""Piecewise-linear concave curves encoding a weighted majorization polytope.

For a vector y and strictly positive weights d, the curve through the elbow
points (partial sums of d, partial sums of y) along the ordering that makes
y_i/d_i nonincreasing equals, at every abscissa c, the minimum over i of
  sum((y - (y_i/d_i) d)_+)  +  (y_i/d_i) c.
Its values at subset sums of d are exactly the halfspace bounds of the
polytope of vectors majorized by y relative to d.  Dually, the potential
u(t) = sum((y - t d)_+) is the largest f - t c over the elbows.

This module is the one implementation of that function.  The curve decider
(criterion vii), the one-norm decider (criterion vi) and the halfspace
bounds of ``build_dmaj_hrep`` all read it off the elbows.  The
positive-part decider (criterion iv), the balayage witness (which keeps
its own potential of the swept measure) and the classical d = 1 routines
deliberately compute without it, so that the agreement sweeps compare
independent code.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .exact import DimensionMismatch, Permutation, RVec, require_weights

ZERO = Fraction(0)


@dataclass(frozen=True)
class ThermoCurve:
    """Curve stored by its elbow points (c_0, f_0), ..., (c_n, f_n)."""

    d: RVec
    y: RVec
    order: Permutation
    elbows: tuple[tuple[Fraction, Fraction], ...]

    @property
    def domain(self) -> Fraction:
        return self.elbows[-1][0]

    def eval(self, c: Fraction) -> Fraction:
        """Exact linear interpolation on the segment found by bisection."""
        if c < 0 or c > self.domain:
            raise ValueError(f"abscissa {c} outside [0, {self.domain}]")
        k = bisect_left(self.elbows, c, lo=1, key=itemgetter(0))
        (c0, f0), (c1, f1) = self.elbows[k - 1], self.elbows[k]
        return f0 + (f1 - f0) * (c - c0) / (c1 - c0)

    def potential(self, t: Fraction) -> Fraction:
        """sum((y - t d)_+), the largest f - t c over the elbows.

        The maximum sits at the elbow after the last segment steeper than
        t, found by bisecting the segment slopes y_i/d_i in elbow order.
        """
        k = bisect_left(self.order.image, -t, key=lambda i: -(self.y[i] / self.d[i]))
        c, f = self.elbows[k]
        return f - t * c

    def csv_rows(self, refine: int = 0) -> list[tuple[Fraction, Fraction]]:
        """Elbow samples plus an optional uniform refinement of the domain."""
        points = {c for c, _ in self.elbows}
        if refine > 0:
            points.update(self.domain * Fraction(k, refine) for k in range(refine + 1))
        return [(c, self.eval(c)) for c in sorted(points)]


def curve_build(y: RVec, d: RVec) -> ThermoCurve:
    """Elbow construction; ratio ties are broken by original index."""
    require_weights(d)
    if len(y) != len(d):
        raise DimensionMismatch(f"length {len(y)} vs {len(d)}")
    n = len(y)
    order = sorted(range(n), key=lambda i: (-(y[i] / d[i]), i))
    sigma = Permutation(tuple(order))
    elbows = [(ZERO, ZERO)]
    c = f = ZERO
    for i in order:
        c += d[i]
        f += y[i]
        elbows.append((c, f))
    return ThermoCurve(d, y, sigma, tuple(elbows))


def curve_leq(lower: ThermoCurve, upper: ThermoCurve) -> bool:
    """Pointwise comparison lower <= upper on the whole shared domain.

    Because the upper curve is concave, the comparison only has to be
    checked at the elbow abscissae of the lower curve.
    """
    if lower.domain != upper.domain:
        raise DimensionMismatch(
            f"curve domains differ ({lower.domain} vs {upper.domain})"
        )
    return all(f <= upper.eval(c) for c, f in lower.elbows)


def curves_equal(a: ThermoCurve, b: ThermoCurve) -> bool:
    """Equality as functions: agreement at the union of elbow abscissae."""
    if a.domain != b.domain:
        return False
    points = {c for c, _ in a.elbows} | {c for c, _ in b.elbows}
    return all(a.eval(c) == b.eval(c) for c in points)
