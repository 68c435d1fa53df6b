"""Spans around the public functions of each ``dmajor`` module.

Installed only for a traced run.  Each target function is replaced in
every ``dmajor`` module that binds it (for example ``dmajor.dmaj.feasible``
and ``dmajor.halfspace.feasible`` both wrap ``dmajor.lp.feasible``), and
methods are replaced on their class.  A span records its name, start, end,
parent span and query id; spans stay in memory until the run ends.  Work
counts are computed from the arguments and results at the same boundary
and are labelled as computed: nothing inside the library is counted.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from dmajor import classical, cli, curve, dmaj, exact, halfspace, lp, polytope, sd3, svgplot


def _lp_cells(args: tuple, result: Any) -> dict[str, int]:
    prog = args[0]
    return {"lp.cells": (len(prog.eq_rows) + len(prog.ub_rows)) * prog.nvars}


def _corner_counts(args: tuple, result: Any) -> dict[str, int]:
    return {"halfspace.corners.perms": math.factorial(args[0].n),
            "halfspace.corners.distinct": len(result)}


def _enumerate_counts(args: tuple, result: Any) -> dict[str, int]:
    n = args[0].n
    swept = math.comb((1 << n) - 2, n - 1) if result.vertices else 0
    return {"halfspace.enumerate.candidates": swept,
            "halfspace.enumerate.vertices": len(result.vertices)}


# (span name, owner, attribute, computed counts).  The owner is the module
# or class that defines the function.
TARGETS: tuple[tuple[str, Any, str, Callable[[tuple, Any], dict[str, int]] | None], ...] = (
    ("exact.parse", exact.RVec, "parse", None),
    ("lp.feasible", lp, "feasible", _lp_cells),
    ("lp.minimize", lp, "minimize", _lp_cells),
    ("dmaj.positive_parts", dmaj, "dmaj_by_positive_parts", None),
    ("dmaj.onenorm", dmaj, "dmaj_by_onenorm", None),
    ("dmaj.curve", dmaj, "dmaj_by_curve", None),
    ("dmaj.find_witness", dmaj, "find_witness",
     lambda a, r: {"dmaj.find_witness.found": r is not None}),
    ("curve.build", curve, "curve_build", None),
    ("curve.leq", curve, "curve_leq", None),
    ("curve.csv_rows", curve.ThermoCurve, "csv_rows", None),
    ("classical.majorizes", classical, "classical_majorizes", None),
    ("halfspace.corners", halfspace, "corners_with_labels", _corner_counts),
    ("halfspace.enumerate", halfspace, "enumerate_vertices", _enumerate_counts),
    ("halfspace.is_empty", halfspace.HalfspaceSystem, "is_empty", None),
    ("polytope.build_hrep", polytope, "build_dmaj_hrep",
     lambda a, r: {"polytope.build_hrep.masks": (1 << len(a[0])) - 2}),
    ("polytope.dmaj_vertices", polytope, "dmaj_vertices", None),
    ("polytope.max_corner", polytope, "classical_max_corner", None),
    ("polytope.hausdorff", polytope, "hausdorff",
     lambda a, r: {"polytope.hausdorff.lps": len(a[0].vertices) + len(a[1].vertices)}),
    ("polytope.lipschitz", polytope, "lipschitz_constant",
     lambda a, r: {"polytope.lipschitz.subsets": math.comb((1 << a[0]) - 1, a[0])}),
    ("sd3.extremes", sd3, "sd3_extremes", None),
    ("sd3.verify", sd3, "verify_extremality", None),
    ("svgplot.render", svgplot, "render_polytope_svg", None),
    ("cli.load_problem", cli, "load_problem", None),
    ("cli.main", cli, "main", None),
)


class Tracer:
    """In-memory span log; ``active`` is true only while a query is timed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.query = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span, name, start, end, parent, self.query))
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "dmajor"]
        for name, owner, attr, counter in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, raw.__func__, counter)))
                continue
            wrapped = self._wrap(name, raw, counter)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self, factors: list[float]) -> dict[str, float]:
        """Total self time per span name in seconds, each span scaled by the
        speed factor of its query."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span, name, start, end, _, query in self.spans:
            totals[name] += (end - start - child_time[span]) * factors[query]
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, name, *_ in self.spans:
            out[name] += 1
        return out

    def dump(self) -> dict[str, Any]:
        keys = ("id", "name", "start", "end", "parent", "query")
        return {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": dict(self.counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, factors: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per query unless they are ratios.

    ``factors`` holds the speed factor of each query.  A layer the workload
    never reaches reads 0.  The ``trace.*`` metrics compare the traced and
    untraced halves and are filled in by ``run.py``.
    """
    queries = len(factors)
    self_ms = {k: v * 1e3 / queries for k, v in tracer.self_times(factors).items()}
    calls = {k: v / queries for k, v in tracer.calls().items()}
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for metric, unit in PER_LAYER:
        if unit == "ms":
            span = metric.rsplit(".", 1)[0]
            out[metric] = (self_ms.get(span, 0.0), unit)
        elif metric.endswith(".calls"):
            out[metric] = (calls.get(metric[: -len(".calls")], 0.0), unit)
        elif metric in counts:
            out[metric] = (counts[metric] / queries, unit)
        else:
            out[metric] = (0.0, unit)
    out["dmaj.witness_found_ratio"] = (
        _ratio(counts["dmaj.find_witness.found"], tracer.calls().get("dmaj.find_witness", 0)), "ratio")
    out["halfspace.corners.distinct_ratio"] = (
        _ratio(counts["halfspace.corners.distinct"], counts["halfspace.corners.perms"]), "ratio")
    out["halfspace.enumerate.hit_ratio"] = (
        _ratio(counts["halfspace.enumerate.vertices"], counts["halfspace.enumerate.candidates"]), "ratio")
    return out


# Every per-layer metric with its unit, in the order of BENCHMARK.json.
# ``*.ms`` and ``*.self_ms`` are mean self time per query; counts marked
# computed in the README are derived from inputs, not counted in the library.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("dmaj.positive_parts.ms", "ms"),
    ("dmaj.onenorm.ms", "ms"),
    ("dmaj.curve.ms", "ms"),
    ("dmaj.find_witness.self_ms", "ms"),
    ("dmaj.find_witness.calls", "count"),
    ("dmaj.witness_found_ratio", "ratio"),
    ("lp.feasible.ms", "ms"),
    ("lp.feasible.calls", "count"),
    ("lp.minimize.ms", "ms"),
    ("lp.minimize.calls", "count"),
    ("lp.cells", "count"),
    ("exact.parse.ms", "ms"),
    ("cli.load_problem.ms", "ms"),
    ("curve.build.ms", "ms"),
    ("curve.leq.ms", "ms"),
    ("curve.csv_rows.ms", "ms"),
    ("classical.majorizes.ms", "ms"),
    ("halfspace.corners.ms", "ms"),
    ("halfspace.corners.perms", "count"),
    ("halfspace.corners.distinct_ratio", "ratio"),
    ("halfspace.enumerate.self_ms", "ms"),
    ("halfspace.enumerate.candidates", "count"),
    ("halfspace.enumerate.hit_ratio", "ratio"),
    ("halfspace.is_empty.self_ms", "ms"),
    ("polytope.build_hrep.ms", "ms"),
    ("polytope.build_hrep.masks", "count"),
    ("polytope.dmaj_vertices.self_ms", "ms"),
    ("polytope.max_corner.ms", "ms"),
    ("polytope.hausdorff.self_ms", "ms"),
    ("polytope.hausdorff.lps", "count"),
    ("polytope.lipschitz.ms", "ms"),
    ("polytope.lipschitz.subsets", "count"),
    ("sd3.extremes.ms", "ms"),
    ("sd3.verify.ms", "ms"),
    ("svgplot.render.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_qps", "1/s"),
    ("trace.untraced_qps", "1/s"),
)
