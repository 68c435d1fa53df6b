"""Seeded query generators, timed query bodies and exactness checks.

Each workload is a fixed cycle of slots.  A slot fixes the kind of query
and its dimension; the seed only draws the values inside it, so every seed
sees the same mix of sizes.  For every query ``run.py`` calls ``make``
(untimed), then ``run`` (timed), then ``check`` (untimed).  ``run`` reaches
the library only through module attributes such as ``dmaj.find_witness``
and ``exact.RVec.parse``, looked up at call time, so that a traced run can
wrap them.

The generators and checks use their own arithmetic, never the library's:
corners and h-rep bounds come from the closed form
``f(c) = min_i sum_j (y_j - r_i d_j)_+ + r_i c`` with ``r_i = y_i / d_i``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from dmajor import classical, cli, curve, dmaj, exact, halfspace, polytope, sd3

ZERO = Fraction(0)
ONE = Fraction(1)

# Lipschitz constants of the right-hand-side-to-polytope map (1-norms).
LIPSCHITZ = {3: Fraction(3), 4: Fraction(5)}
DECIDER_SAMPLE = 48


# ----------------------------------------------------------------- inputs


def rand_frac(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    den = rng.randint(1, 6)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vec(rng: random.Random, n: int, nonneg: bool = False) -> list[Fraction]:
    return [rand_frac(rng, 0 if nonneg else -5, 5) for _ in range(n)]


def rand_weights(rng: random.Random, n: int) -> list[Fraction]:
    out = []
    for _ in range(n):
        den = rng.randint(1, 6)
        out.append(Fraction(rng.randint(1, 5 * den), den))
    return out


def strictly_decreasing_weights(rng: random.Random) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < 3:
        vals.add(Fraction(rng.randint(1, 40), rng.randint(1, 4)))
    return sorted(vals, reverse=True)


def trace_matched(rng: random.Random, y: list[Fraction]) -> list[Fraction]:
    head = [rand_frac(rng) for _ in range(len(y) - 1)]
    return head + [sum(y, ZERO) - sum(head, ZERO)]


def strs(v: list[Fraction]) -> list[str]:
    return [str(e) for e in v]


def fracs(v: list[str]) -> list[Fraction]:
    return [Fraction(s) for s in v]


class Curve:
    """The closed-form bound f(c) of the polytope of vectors below (y, d)."""

    def __init__(self, y: list[Fraction], d: list[Fraction]) -> None:
        n = len(y)
        self.y, self.d = y, d
        self.trace = sum(y, ZERO)
        self.ratios = [y[i] / d[i] for i in range(n)]
        self.offsets = [
            sum((max(y[j] - r * d[j], ZERO) for j in range(n)), ZERO) for r in self.ratios
        ]

    def __call__(self, c: Fraction) -> Fraction:
        return min(o + r * c for o, r in zip(self.offsets, self.ratios))

    def corner(self, order: list[int]) -> list[Fraction]:
        """Vertex along the prefix chain of ``order``."""
        out = [ZERO] * len(order)
        prev = weight = ZERO
        for k, i in enumerate(order):
            weight += self.d[i]
            cur = self.trace if k == len(order) - 1 else self(weight)
            out[i] = cur - prev
            prev = cur
        return out

    def mask_bounds(self) -> list[Fraction]:
        """f at the d-sum of every mask, trace at the full mask."""
        n = len(self.d)
        full = (1 << n) - 1
        dsum = subset_sums(self.d)
        out = [ZERO] + [self(dsum[m]) for m in range(1, full)] + [self.trace]
        return out

    def corners(self) -> set[tuple[Fraction, ...]]:
        """The corners along all n! orders: the polytope's vertex set."""
        n = len(self.d)
        bounds = self.mask_bounds()
        out = set()
        for order in itertools.permutations(range(n)):
            point = [ZERO] * n
            mask, prev = 0, ZERO
            for i in order:
                mask |= 1 << i
                point[i] = bounds[mask] - prev
                prev = bounds[mask]
            out.add(tuple(point))
        return out


def general_position(rng: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """y and d whose n! corners are all distinct.

    Such a polytope has exactly n! vertices, so queries on it cost the same
    from one seed to the next.
    """
    while True:
        y, d = rand_vec(rng, n), rand_weights(rng, n)
        if len(Curve(y, d).corners()) == math.factorial(n):
            return y, d


def subset_sums(v: list) -> list:
    """The sum of v over every mask, one addition per mask."""
    sums = [v[0] * 0] * (1 << len(v))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + v[low.bit_length() - 1]
    return sums


def excesses(points, bvals: list[Fraction]) -> list[Fraction]:
    """How far each point breaks ``x(S) <= b(S)`` or ``x(N) = T``; 0 if it does not.

    A point's excess is a lower bound of its 1-norm distance to the
    polytope, since |x(S) - z(S)| <= |x - z|_1 for every z in it.
    Everything is scaled to integers by one common denominator first, so
    the 2^n row sums of each point cost integer additions only.
    """
    scale = math.lcm(*(b.denominator for b in bvals), *(e.denominator for p in points for e in p))
    bounds = [b.numerator * (scale // b.denominator) for b in bvals]
    full = len(bvals) - 1
    out = []
    for p in points:
        sums = subset_sums([e.numerator * (scale // e.denominator) for e in p])
        worst = max(0, abs(sums[full] - bounds[full]),
                    *(sums[m] - bounds[m] for m in range(1, full)))
        out.append(Fraction(worst, scale))
    return out


def brute_vertices(bvals: list[Fraction]) -> set[tuple[Fraction, ...]]:
    """Vertices of ``{x : x(S) <= b(S), x(N) = T}`` by brute force.

    Every n - 1 proper rows together with the trace row are solved by
    Gauss-Jordan elimination; a unique solution that breaks no row is a
    vertex.  Fine for n <= 4, where there are at most 364 candidates.
    """
    full = len(bvals) - 1
    n = full.bit_length()
    out = set()
    for rows in itertools.combinations(range(1, full), n - 1):
        system = [[Fraction((m >> j) & 1) for j in range(n)] + [bvals[m]]
                  for m in (*rows, full)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if system[r][col]), None)
            if pivot is None:
                break
            system[col], system[pivot] = system[pivot], system[col]
            lead = system[col]
            lead[:] = [v / lead[col] for v in lead]
            for r in range(n):
                factor = system[r][col]
                if r != col and factor:
                    system[r] = [u - factor * v for u, v in zip(system[r], lead)]
        else:
            point = tuple(row[n] for row in system)
            if not excesses([point], bvals)[0]:
                out.add(point)
    return out


def vertex_errors(found, expected: set[tuple[Fraction, ...]], what: str) -> list[str]:
    """A vertex list must hold every expected vertex once and nothing else."""
    found = [tuple(v) for v in found]
    errs = []
    if len(set(found)) != len(found):
        errs.append(f"{what}: repeated vertices")
    missing, extra = len(expected - set(found)), len(set(found) - expected)
    if missing or extra:
        errs.append(f"{what}: {missing} vertices missing, {extra} points not vertices")
    return errs


def convex_mix(rng: random.Random, f: Curve, n: int) -> list[Fraction]:
    """A random exact point of the polytope: a convex mix of 1 to 3 corners."""
    k = rng.randint(1, 3)
    raw = [Fraction(rng.randint(0, 12)) for _ in range(k)]
    if not any(raw):
        raw[0] = ONE
    total = sum(raw)
    point = [ZERO] * n
    for w in raw:
        order = list(range(n))
        rng.shuffle(order)
        for i, c in enumerate(f.corner(order)):
            point[i] += c * w / total
    return point


def stochastic_errors(rows: list[list[Fraction]], d: list[Fraction], src: list[Fraction],
                      dst: list[Fraction], what: str) -> list[str]:
    """A >= 0, columns sum to 1, A d = d and A src = dst."""
    n = len(d)
    errs = []
    if any(v < 0 for row in rows for v in row):
        errs.append(f"{what}: negative entry")
    if any(sum((rows[i][j] for i in range(n)), ZERO) != 1 for j in range(n)):
        errs.append(f"{what}: a column does not sum to 1")
    if any(sum((rows[i][j] * d[j] for j in range(n)), ZERO) != d[i] for i in range(n)):
        errs.append(f"{what}: A d != d")
    if any(sum((rows[i][j] * src[j] for j in range(n)), ZERO) != dst[i] for i in range(n)):
        errs.append(f"{what}: A y != x")
    return errs


# ----------------------------------------------------------------- workloads


@dataclass
class Query:
    kind: str
    n: int
    data: dict[str, Any]
    label: bool | None = None
    bytes_written: int = 0
    files: dict[str, Path] = field(default_factory=dict)


class Workload:
    """A fixed cycle of (kind, n) slots."""

    slots: tuple[tuple[str, int], ...] = ()

    def make(self, rng: random.Random, kind: str, n: int) -> Query:
        raise NotImplementedError

    def run(self, q: Query) -> Any:
        raise NotImplementedError

    def check(self, q: Query, result: Any) -> list[str]:
        raise NotImplementedError


def _cycle(*groups: tuple[int, tuple[str, ...]]) -> tuple[tuple[str, int], ...]:
    """Interleave groups of (n, kinds) round-robin, so that sizes alternate."""
    queues = [[(kind, n) for kind in kinds] for n, kinds in groups]
    slots: list[tuple[str, int]] = []
    while any(queues):
        slots += [q.pop(0) for q in queues if q]
    return tuple(slots)


class CheckWorkload(Workload):
    """The ``dmajor check`` computation: parse, three deciders, witness LP."""

    # 45 % convex mixes of corners, 45 % trace-matched, 10 % unconstrained.
    # Few slots at n >= 6: their LP costs vary 3x from one input to the
    # next, so more of them would make every seed read differently.  The
    # shares put the median among the n = 3 queries and the 90th percentile
    # among the n = 5 ones, where latencies are dense.
    _ten = ("mix", "trace", "mix", "trace", "free", "mix", "trace", "mix", "trace", "mix")
    _net = ("trace", "mix", "trace", "mix", "free", "trace", "mix", "trace", "mix", "trace")
    slots = _cycle(
        (2, _ten + _net),
        (3, _ten),
        (4, _net),
        (5, ("mix", "trace") * 4),
        (6, ("mix",)),
        (7, ("trace",)),
        (8, ("mix",)),
    )

    def make(self, rng, kind, n):
        y, d = rand_vec(rng, n), rand_weights(rng, n)
        label = None
        if kind == "mix":
            x, label = convex_mix(rng, Curve(y, d), n), True
        elif kind == "trace":
            x = trace_matched(rng, y)
        else:
            x = rand_vec(rng, n)
            if sum(x, ZERO) != sum(y, ZERO):
                label = False
        return Query(kind, n, {"x": strs(x), "y": strs(y), "d": strs(d)}, label)

    def run(self, q):
        x, y, d = (exact.RVec.parse(q.data[k]) for k in ("x", "y", "d"))
        return (
            dmaj.dmaj_by_positive_parts(x, y, d),
            dmaj.dmaj_by_onenorm(x, y, d),
            dmaj.dmaj_by_curve(x, y, d),
            dmaj.find_witness(x, y, d),
        )

    def check(self, q, result):
        a, b, c, witness = result
        verdicts = (a, b, c, witness is not None)
        errs = []
        if len(set(verdicts)) != 1:
            errs.append(f"deciders disagree: {verdicts}")
        if q.label is not None and verdicts[0] != q.label:
            errs.append(f"verdict {verdicts[0]}, expected {q.label}")
        if witness is not None:
            rows = [list(r) for r in witness.entries.rows]
            x, y, d = (fracs(q.data[k]) for k in ("x", "y", "d"))
            errs += stochastic_errors(rows, d, y, x, "witness")
        return errs


class WideWorkload(Workload):
    """The three deciders, both curves and their comparison at n = 32..128."""

    # Six slots of 100 to 200 ms (n = 64 positives, n = 96 and 128
    # negatives) span the 85th to 96th percentile, so that the 90th falls
    # among them rather than in the gap below them.
    slots = _cycle(
        (32, ("pos", "neg", "pos", "neg", "pos-unit", "neg-unit") * 6),
        (48, ("pos", "neg", "pos", "neg", "pos-unit", "neg-unit", "pos", "neg")),
        (64, ("pos", "neg", "pos-unit", "neg-unit", "pos-unit")),
        (96, ("pos-unit", "neg-unit", "neg")),
        (128, ("pos", "neg")),
    )

    @staticmethod
    def _block_average(rng, v, d):
        """d-proportional averages over random blocks: a d-stochastic map."""
        order = list(range(len(v)))
        rng.shuffle(order)
        out = list(v)
        start = 0
        while start < len(order):
            block = order[start:start + rng.randint(1, 8)]
            start += len(block)
            mass = sum((v[i] for i in block), ZERO)
            weight = sum((d[i] for i in block), ZERO)
            for i in block:
                out[i] = d[i] * mass / weight
        return out

    def make(self, rng, kind, n):
        unit = kind.endswith("-unit")
        d = [ONE] * n if unit else [Fraction(rng.randint(1, 9)) for _ in range(n)]
        y = [Fraction(rng.randint(-20, 20)) for _ in range(n)]
        x = self._block_average(rng, self._block_average(rng, y, d), d)
        positive = kind.startswith("pos")
        if not positive:
            # Move mass from the lowest to the highest ratio coordinate until
            # x/d exceeds max(y/d) there: then x is not below y.
            ratio = [x[i] / d[i] for i in range(n)]
            hi = max(range(n), key=ratio.__getitem__)
            lo = min(range(n), key=ratio.__getitem__)
            if lo == hi:
                lo = (hi + 1) % n
            top = max(y[i] / d[i] for i in range(n))
            eps = top * d[hi] - x[hi] + Fraction(rng.randint(1, 6), rng.randint(1, 6))
            x[hi] += eps
            x[lo] -= eps
        data = {"x": strs(x), "y": strs(y), "d": strs(d)}
        return Query(kind, n, data, positive)

    def run(self, q):
        x, y, d = (exact.RVec.parse(q.data[k]) for k in ("x", "y", "d"))
        out = [
            dmaj.dmaj_by_positive_parts(x, y, d),
            dmaj.dmaj_by_onenorm(x, y, d),
            dmaj.dmaj_by_curve(x, y, d),
            curve.curve_leq(curve.curve_build(x, d), curve.curve_build(y, d)),
        ]
        if q.kind.endswith("-unit"):
            out.append(classical.classical_majorizes(y, x).holds)
        return out

    def check(self, q, result):
        if all(v == q.label for v in result):
            return []
        return [f"verdicts {result}, expected {q.label}"]


class PolytopeWorkload(Workload):
    """Describe a polytope (n = 3..7) or compare two of them (n = 3, 4)."""

    # "describe+" draws y >= 0, so that classical_max_corner applies.
    slots = _cycle(
        (3, ("describe", "describe+") * 6),
        (4, ("describe", "describe+") * 5),
        (5, ("describe", "describe+") * 4),
        (6, ("describe", "describe+")),
        (7, ("describe",)),
        (3, ("translate", "intersect") * 8),
        (4, ("translate",)),
    )

    def make(self, rng, kind, n):
        d = rand_weights(rng, n)
        if kind.startswith("describe"):
            y = rand_vec(rng, n, nonneg=kind.endswith("+"))
            return Query(kind, n, {"y": strs(y), "d": strs(d)})
        if kind == "translate":
            (y, d), (y2, d2) = general_position(rng, n), general_position(rng, n)
            other = {"y2": strs(y2), "d2": strs(d2), "p": strs(rand_vec(rng, n))}
        else:
            # Same d and trace: both polytopes hold d * T / sum(d), so the
            # intersection is never empty.  The first polytope shifted by
            # gap * (e_1 - e_2), with gap beyond its range of x_1, has an
            # empty intersection with it.
            y = rand_vec(rng, n)
            bounds = Curve(y, d).mask_bounds()
            full = len(bounds) - 1
            gap = bounds[1] + bounds[full - 1] - bounds[full] + 1
            other = {"y2": strs(trace_matched(rng, y)), "d2": strs(d),
                     "gap": strs([gap, -gap] + [ZERO] * (n - 2))}
        return Query(kind, n, {"y": strs(y), "d": strs(d), **other})

    def run(self, q):
        if q.kind.startswith("describe"):
            y, d = exact.RVec.parse(q.data["y"]), exact.RVec.parse(q.data["d"])
            hsys = polytope.build_dmaj_hrep(y, d)
            poly = polytope.dmaj_vertices(y, d)
            rows = curve.curve_build(y, d).csv_rows()
            top = polytope.classical_max_corner(y, d) if q.kind.endswith("+") else None
            return hsys, poly, rows, top
        parse = exact.RVec.parse
        a = polytope.build_dmaj_hrep(parse(q.data["y"]), parse(q.data["d"]))
        b = polytope.build_dmaj_hrep(parse(q.data["y2"]), parse(q.data["d2"]))
        if q.kind == "translate":
            b = b.translate(parse(q.data["p"]))
            empty = (a.is_empty(), b.is_empty())
        else:
            b, disjoint = a.intersect(b), a.intersect(a.translate(parse(q.data["gap"])))
            empty = (a.is_empty(), b.is_empty(), disjoint.is_empty())
        pa, pb = halfspace.enumerate_vertices(a), halfspace.enumerate_vertices(b)
        return a, b, empty, pa, pb, polytope.hausdorff(pa, pb)

    def check(self, q, result):
        if q.kind.startswith("describe"):
            return self._check_describe(q, *result)
        return self._check_geometry(q, *result)

    def _check_describe(self, q, hsys, poly, rows, top):
        y, d = fracs(q.data["y"]), fracs(q.data["d"])
        f = Curve(y, d)
        errs = []
        bounds = f.mask_bounds()
        if list(hsys.bvals) != bounds:
            errs.append("h-rep bounds differ from the closed form")
        errs += vertex_errors([v.entries for v in poly.vertices], f.corners(), "vertex list")
        outside = sum(1 for e in excesses([v.entries for v in poly.vertices], bounds) if e)
        if outside:
            errs.append(f"{outside} vertices outside the h-rep")
        # The library decider costs O(n^2) Fraction operations a vertex, so
        # above n = 5 it checks an even spread of DECIDER_SAMPLE vertices.
        yv, dv = exact.RVec(tuple(y)), exact.RVec(tuple(d))
        step = 1 if q.n <= 5 else max(1, len(poly.vertices) // DECIDER_SAMPLE)
        for v in poly.vertices[::step]:
            if not dmaj.dmaj_by_positive_parts(v, yv, dv):
                errs.append(f"vertex {v} fails dmaj_by_positive_parts")
        if rows[0] != (ZERO, ZERO) or rows[-1] != (sum(d, ZERO), f.trace):
            errs.append("curve rows do not span (0, 0) to (sum d, T)")
        if any(fc != f(c) for c, fc in rows):
            errs.append("curve rows off the closed form")
        if top is not None:
            order = sorted(range(q.n), key=lambda i: (-d[i], i))
            if list(top.entries) != f.corner(order):
                errs.append(f"max corner {top} differs from the closed form")
            if top not in poly.vertices:
                errs.append("max corner is not a vertex")
        return errs

    def _check_geometry(self, q, a, b, empty, pa, pb, h):
        y, d, y2, d2 = (fracs(q.data[k]) for k in ("y", "d", "y2", "d2"))
        fa, fb = Curve(y, d), Curve(y2, d2)
        ba, bb = fa.mask_bounds(), fb.mask_bounds()
        va = fa.corners()
        if q.kind == "translate":
            shift = fracs(q.data["p"])
            bb = [u + v for u, v in zip(bb, subset_sums(shift))]
            vb = {tuple(u + v for u, v in zip(c, shift)) for c in fb.corners()}
            expected_empty = (False, False)
        else:
            bb = [min(u, v) for u, v in zip(ba, bb)]  # the traces are equal
            vb = brute_vertices(bb)
            expected_empty = (False, False, True)
        errs = []
        if empty != expected_empty:
            errs.append(f"is_empty reported {empty}, expected {expected_empty}")
        if list(a.bvals) != ba or list(b.bvals) != bb:
            errs.append("system bounds differ from the closed form")
        errs += vertex_errors([v.entries for v in pa.vertices], va, "first vertex list")
        errs += vertex_errors([v.entries for v in pb.vertices], vb, "second vertex list")
        if any(excesses(va, ba)) or any(excesses(vb, bb)):
            errs.append("a vertex lies outside its system")
        if errs:
            return errs
        if h.attaining_vertex.entries not in (va if h.side == "left" else vb):
            errs.append(f"attaining vertex {h.attaining_vertex} is not a {h.side} vertex")
        return errs + hausdorff_errors(q.n, h.distance, va, vb, ba, bb)


class CliWorkload(Workload):
    """``dmajor.cli.main`` in-process over problem files in a scratch directory."""

    # "check+" holds by construction and "check-" fails; "polytope+" draws
    # y >= 0, so that --max-corner applies.  Queries under 7 ms make up 60 %
    # of the cycle, so that the median falls among them.
    slots = _cycle(
        (2, ("check+", "check-") * 4 + ("check+",)),
        (3, ("sd3", "polytope", "sd3", "polytope+", "sd3")),
        (3, ("check+", "polytope", "sd3", "hausdorff", "polytope-sweep",
             "check-", "polytope+", "sd3", "hausdorff", "polytope-sweep",
             "check+", "polytope", "sd3", "hausdorff", "polytope-sweep")),
        (4, ("check-", "polytope+", "polytope-sweep", "check+", "polytope",
             "polytope-sweep", "check-", "polytope+", "polytope-sweep")),
        (5, ("check+", "polytope", "check-", "polytope+")),
        (3, ("sd3", "hausdorff", "polytope+") * 3),
        (4, ("hausdorff",)),
    )

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0

    def _write(self, q: Query, tag: str, payload: dict[str, Any]) -> str:
        path = self.workdir / f"q{self.count}-{tag}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        q.files[tag] = path
        return str(path)

    def _out(self, q: Query, tag: str, suffix: str) -> str:
        path = self.workdir / f"q{self.count}-{tag}{suffix}"
        q.files[tag] = path
        return str(path)

    def make(self, rng, kind, n):
        self.count += 1
        for old in self.workdir.iterdir():
            old.unlink()
        q = Query(kind, n, {})
        if kind.startswith("check"):
            y, d = rand_vec(rng, n), rand_weights(rng, n)
            if kind == "check+":
                x, q.label = convex_mix(rng, Curve(y, d), n), True
            else:
                x, q.label = trace_matched(rng, y), False
                x[0] += 1  # the trace sums now differ
            q.data = {"n": n, "x": strs(x), "y": strs(y), "d": strs(d)}
            q.data["argv"] = ["check", self._write(q, "in", q.data), "--both",
                              "--json", self._out(q, "json", ".json")]
        elif kind.startswith("polytope"):
            y, d = rand_vec(rng, n, nonneg=kind == "polytope+"), rand_weights(rng, n)
            if n == 3 and not sum(y, ZERO):
                y[0] += 1  # --svg needs a nonzero trace
            q.data = {"n": n, "y": strs(y), "d": strs(d)}
            if kind.endswith("sweep"):
                q.data["sweep"] = {"d_end": strs(rand_weights(rng, n))}
            argv = ["polytope", self._write(q, "in", q.data), "--json",
                    self._out(q, "json", ".json"), "--curve", self._out(q, "csv", ".csv")]
            if all(v >= 0 for v in y):
                argv.append("--max-corner")
            if n == 3:
                argv += ["--svg", self._out(q, "svg", ".svg")]
            if kind.endswith("sweep"):
                argv += ["--sweep", "0", "1", "3"]
            q.data["argv"] = argv
        elif kind == "hausdorff":
            a, b = ({"n": n, "y": strs(y), "d": strs(d)}
                    for y, d in (general_position(rng, n), general_position(rng, n)))
            q.data = {"a": a, "b": b}
            q.data["argv"] = ["hausdorff", self._write(q, "a", a), self._write(q, "b", b),
                              "--json", self._out(q, "json", ".json")]
        else:
            d = strictly_decreasing_weights(rng)
            q.data = {"n": 3, "y": strs(rand_vec(rng, 3)), "d": strs(d)}
            q.data["argv"] = ["sd3", self._write(q, "in", q.data), "--json",
                              self._out(q, "json", ".json")]
        return q

    def run(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.data["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, q, result):
        code, out, err = result
        expected = 0 if q.label in (None, True) else 1
        if code != expected:
            return [f"exit code {code}, expected {expected}: {err.strip()}"]
        written = [p for tag, p in q.files.items() if tag not in ("in", "a", "b")]
        q.bytes_written = len(out.encode()) + sum(p.stat().st_size for p in written)
        try:
            report = json.loads(q.files["json"].read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"JSON report unreadable: {exc}"]
        errs = [f"rational {s!r} does not round-trip" for s in _bad_rationals(report)]
        results = report["results"]
        if q.kind.startswith("check"):
            errs += self._check_check(q, results)
        elif q.kind.startswith("polytope"):
            errs += self._check_polytope(q, results)
        elif q.kind == "hausdorff":
            errs += self._check_hausdorff(q, results)
        else:
            errs += self._check_sd3(q, report)
        return errs

    @staticmethod
    def _check_check(q, results):
        x, y, d = (fracs(q.data[k]) for k in ("x", "y", "d"))
        errs = []
        if results["holds"] is not q.label:
            errs.append(f"holds = {results['holds']}, expected {q.label}")
        for key, src, dst, part in (("forward", y, x, results), ("reverse", x, y, results["reverse"])):
            if set(part["criteria"].values()) != {part["holds"]}:
                errs.append(f"{key}: criteria disagree with the verdict")
            if part["holds"]:
                if "witness" not in part:
                    errs.append(f"{key}: no witness")
                else:
                    rows = [fracs(r) for r in part["witness"]]
                    errs += stochastic_errors(rows, d, src, dst, f"{key} witness")
        cycle = results["holds"] and results["reverse"]["holds"] and x != y
        if results["preorder_cycle"] is not cycle:
            errs.append("preorder_cycle flag is wrong")
        return errs

    @staticmethod
    def _check_polytope(q, results):
        y, d = fracs(q.data["y"]), fracs(q.data["d"])
        f = Curve(y, d)
        errs = []
        if Fraction(results["T"]) != f.trace:
            errs.append("T differs from the trace of y")
        bvals = [ZERO] * (1 << q.n)
        bvals[-1] = f.trace
        dsum = subset_sums(d)
        for entry in results["b"]:
            m = sum(1 << (i - 1) for i in entry["mask"])
            bvals[m] = Fraction(entry["value"])
            if bvals[m] != f(dsum[m]):
                errs.append(f"b{entry['mask']} differs from the closed form")
        vertices = [fracs(v) for v in results["vertices"]]
        errs += vertex_errors(vertices, f.corners(), "vertex list")
        if any(excesses(vertices, bvals)):
            errs.append("a vertex lies outside the reported h-rep")
        with open(q.files["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["c", "f"] or any(
            str(Fraction(c)) != c or Fraction(fc) != f(Fraction(c)) for c, fc in rows[1:]
        ):
            errs.append("curve CSV is off the closed form")
        if "max_corner" in results:
            order = sorted(range(q.n), key=lambda i: (-d[i], i))
            if fracs(results["max_corner"]) != f.corner(order):
                errs.append("max corner differs from the closed form")
        elif all(v >= 0 for v in y):
            errs.append("max corner missing")
        if "svg" in q.files:
            svg = q.files["svg"].read_text(encoding="utf-8")
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                errs.append("SVG file is malformed")
        if "sweep" in q.data:
            sweep = results.get("sweep", [])
            if [Fraction(row["lambda"]) for row in sweep] != [Fraction(k, 3) for k in range(4)]:
                errs.append("sweep should report lambda = 0, 1/3, 2/3, 1")
            d_end = fracs(q.data["sweep"]["d_end"])
            for row in sweep:
                lam = Fraction(row["lambda"])
                dl = [(1 - lam) * u + lam * v for u, v in zip(d, d_end)]
                if fracs(row["d"]) != dl:
                    errs.append(f"sweep weights at lambda {lam} are wrong")
                errs += vertex_errors([fracs(v) for v in row["vertices"]],
                                      Curve(y, dl).corners(), f"sweep at lambda {lam}")
        return errs

    @staticmethod
    def _check_hausdorff(q, results):
        curves = [Curve(fracs(q.data[s]["y"]), fracs(q.data[s]["d"])) for s in ("a", "b")]
        ba, bb = (c.mask_bounds() for c in curves)
        check = results["bound_check"]
        dist = Fraction(results["distance"])
        va, vb = (c.corners() for c in curves)
        errs = []
        if Fraction(check["constant"]) != LIPSCHITZ[q.n]:
            errs.append(f"Lipschitz constant {check['constant']}, expected {LIPSCHITZ[q.n]}")
        if Fraction(check["b_distance"]) != b_distance(ba, bb) or check["bound_holds"] is not True:
            errs.append("bound check is wrong")
        if tuple(fracs(results["attaining_vertex"])) not in (va if results["side"] == "left" else vb):
            errs.append(f"attaining vertex is not a {results['side']} vertex")
        return errs + hausdorff_errors(q.n, dist, va, vb, ba, bb)

    @staticmethod
    def _check_sd3(q, report):
        d = fracs(q.data["d"])
        results = report["results"]
        regime = "wide" if d[0] >= d[1] + d[2] else "narrow"
        errs = []
        if results["regime"] != regime or results["count"] != (10 if regime == "wide" else 13):
            errs.append(f"regime {results['regime']} / {results['count']} matrices")
        if len(results["matrices"]) != results["count"]:
            errs.append("matrix list length differs from the count")
        for m in results["matrices"]:
            if m["extreme"] is not True:
                errs.append("a catalog matrix is not extreme")
            rows = [fracs(r) for r in m["rows"]]
            errs += stochastic_errors(rows, d, d, d, "catalog matrix")
        return errs


def b_distance(ba: list[Fraction], bb: list[Fraction]) -> Fraction:
    """1-norm distance of two right-hand sides, with the rows T and -T."""
    return sum((abs(u - v) for u, v in zip(ba[1:-1], bb[1:-1])), ZERO) + 2 * abs(ba[-1] - bb[-1])


def hausdorff_errors(n: int, dist: Fraction, va, vb, ba: list[Fraction],
                     bb: list[Fraction]) -> list[str]:
    """The distance must lie between the largest excess of a vertex over
    the other system and C(n) times the 1-norm distance of the bounds."""
    low = max(*excesses(va, bb), *excesses(vb, ba))
    b_dist = b_distance(ba, bb)
    if low <= dist <= LIPSCHITZ[n] * b_dist:
        return []
    return [f"Hausdorff {dist} outside [{low}, C(n) * {b_dist}]"]


def _bad_rationals(node: Any) -> list[str]:
    """Strings in a JSON tree that parse as rationals but are not canonical."""
    if isinstance(node, dict):
        return [s for v in node.values() for s in _bad_rationals(v)]
    if isinstance(node, list):
        return [s for v in node for s in _bad_rationals(v)]
    if isinstance(node, str):
        try:
            value = Fraction(node)
        except ValueError:
            return []
        return [] if str(value) == node else [node]
    return []


def make_workload(name: str, workdir: Path) -> Workload:
    if name == "cli":
        return CliWorkload(workdir)
    return {"check": CheckWorkload, "wide": WideWorkload, "polytope": PolytopeWorkload}[name]()
