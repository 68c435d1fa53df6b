"""Command-line front end.

Problem files are JSON with rational entries given as strings ("p/q",
integers or finite decimals).  All emitted numbers stay exact: JSON and
CSV outputs serialize rationals as strings, never as floats.

Exit codes: 0 success (relation holds), 1 negative result (relation fails,
or no classical maximum exists), 2 input or usage error, 3 internal
inconsistency (independent computations disagree).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .curve import curve_build
from .dmaj import (
    StochMatrix,
    dmaj_by_curve,
    dmaj_by_onenorm,
    dmaj_by_positive_parts,
    find_witness,
)
from .exact import NonPositiveWeight, RVec, parse_rational, require_weights
from .halfspace import VPolytope, corners_with_labels, mask_indices, proper_masks
from .polytope import (
    LIPSCHITZ_CONSTANTS,
    NegativeEntries,
    b_l1_distance,
    build_dmaj_hrep,
    classical_max_corner,
    dmaj_vertices,
    hausdorff,
)
from .sd3 import classify, sd3_extremes, verify_extremality
from .svgplot import render_polytope_svg

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    """Problem-file or usage error; maps to exit code 2."""


@dataclass(frozen=True)
class SweepSpec:
    d_end: RVec
    start: Fraction = Fraction(0)
    end: Fraction = Fraction(1)
    steps: int = 10


@dataclass(frozen=True)
class ProblemFile:
    n: int
    y: RVec
    d: RVec
    x: RVec | None = None
    sweep: SweepSpec | None = None


def _parse_vector(data: Any, name: str, n: int) -> RVec:
    if not isinstance(data, list) or not data:
        raise InputError(f"field '{name}' must be a non-empty list of rationals")
    try:
        vec = RVec.parse(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"field '{name}': {exc}") from exc
    if len(vec) != n:
        raise InputError(f"field '{name}' has length {len(vec)}, expected n = {n}")
    return vec


def load_problem(path: str | Path) -> ProblemFile:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "n" not in data or "y" not in data or "d" not in data:
        raise InputError(f"{path}: required fields are n, y, d")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"{path}: n must be a positive integer")
    y = _parse_vector(data["y"], "y", n)
    d = _parse_vector(data["d"], "d", n)
    try:
        require_weights(d)
    except NonPositiveWeight as exc:
        raise InputError(f"{path}: {exc}") from exc
    x = _parse_vector(data["x"], "x", n) if "x" in data else None
    sweep = None
    if "sweep" in data:
        spec = data["sweep"]
        if not isinstance(spec, dict) or "d_end" not in spec:
            raise InputError(f"{path}: sweep must be an object with a d_end vector")
        d_end = _parse_vector(spec["d_end"], "sweep.d_end", n)
        try:
            start = parse_rational(spec.get("start", 0))
            end = parse_rational(spec.get("end", 1))
        except (ValueError, TypeError) as exc:
            raise InputError(f"{path}: sweep bounds: {exc}") from exc
        steps = spec.get("steps", 10)
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            raise InputError(f"{path}: sweep.steps must be a positive integer")
        sweep = SweepSpec(d_end, start, end, steps)
    return ProblemFile(n, y, d, x, sweep)


def _text(value: Any) -> str:
    """``str`` of a rational, a vector or a matrix for output.

    Inputs are bounded at parse time, but values derived from them can pass
    the interpreter's int-to-str digit limit; that is reported as an input
    error, without raising the limit for the whole process.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(
            f"a derived value needs more than {sys.get_int_max_str_digits():,} "
            "digits to print"
        ) from exc


def _vec_json(v: RVec) -> list[str]:
    return [_text(e) for e in v.entries]


def _matrix_json(m: StochMatrix) -> list[list[str]]:
    return [[_text(v) for v in row] for row in m.entries.rows]


def _emit_json(path: str, n: int, inputs: dict[str, Any], results: dict[str, Any]) -> None:
    payload = {"version": __version__, "n": n, "inputs": inputs, "results": results}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _hrep_json(sys) -> list[dict[str, Any]]:
    return [
        {"mask": [i + 1 for i in mask_indices(m)], "value": _text(sys.b(m))}
        for m in proper_masks(sys.n)
    ]


# ---------------------------------------------------------------- check


def _run_direction(x: RVec, y: RVec, d: RVec, criterion: str) -> dict[str, Any]:
    criteria: dict[str, bool] = {}
    witness: StochMatrix | None = None
    if criterion in ("iv", "all"):
        criteria["iv"] = dmaj_by_positive_parts(x, y, d)
    if criterion in ("vi", "all"):
        criteria["vi"] = dmaj_by_onenorm(x, y, d)
    if criterion in ("vii", "all"):
        criteria["vii"] = dmaj_by_curve(x, y, d)
    if criterion == "all":
        witness = find_witness(x, y, d)
        verdicts = set(criteria.values()) | {witness is not None}
        if len(verdicts) != 1:
            raise AssertionError(f"decision procedures disagree: {criteria}")
        holds = witness is not None
    else:
        holds = next(iter(criteria.values()))
    out: dict[str, Any] = {"holds": holds, "criteria": criteria}
    if witness is not None:
        out["witness"] = _matrix_json(witness)
    if x.total() != y.total():
        out["reason"] = "trace"
    return out


def cmd_check(args: argparse.Namespace) -> int:
    problem = load_problem(args.file)
    if problem.x is None:
        raise InputError("check needs a problem file with x, y and d")
    x, y, d = problem.x, problem.y, problem.d
    forward = _run_direction(x, y, d, args.criterion)
    results: dict[str, Any] = dict(forward)
    print(f"x majorized by y relative to d: {forward['holds']}")
    for name, value in forward["criteria"].items():
        print(f"  criterion {name}: {value}")
    if forward.get("reason") == "trace":
        print("  reason: trace sums differ")
    if "witness" in forward:
        print("  witness matrix rows:")
        for row in forward["witness"]:
            print("    [" + ", ".join(row) + "]")
    if args.both:
        backward = _run_direction(y, x, d, args.criterion)
        results["reverse"] = backward
        cycle = forward["holds"] and backward["holds"] and x != y
        results["preorder_cycle"] = cycle
        print(f"y majorized by x relative to d: {backward['holds']}")
        if cycle:
            print("preorder cycle detected: each vector majorizes the other but they differ")
    if args.json:
        inputs = {"x": _vec_json(x), "y": _vec_json(y), "d": _vec_json(d)}
        _emit_json(args.json, problem.n, inputs, results)
    return EXIT_OK if forward["holds"] else EXIT_NEGATIVE


# ---------------------------------------------------------------- polytope


def _sweep_points(spec: SweepSpec, override: Sequence[str] | None) -> tuple[SweepSpec, list[Fraction]]:
    if override is not None:
        try:
            start, end = parse_rational(override[0]), parse_rational(override[1])
            steps = int(override[2])
        except (ValueError, TypeError) as exc:
            raise InputError(f"--sweep arguments: {exc}") from exc
        if steps < 1:
            raise InputError("--sweep step count must be >= 1")
        spec = SweepSpec(spec.d_end, start, end, steps)
    lams = [
        spec.start + (spec.end - spec.start) * Fraction(k, spec.steps)
        for k in range(spec.steps + 1)
    ]
    return spec, lams


def _interpolated_weights(d: RVec, d_end: RVec, lam: Fraction) -> RVec:
    return d * (1 - lam) + d_end * lam


def cmd_polytope(args: argparse.Namespace) -> int:
    problem = load_problem(args.file)
    y, d, n = problem.y, problem.d, problem.n
    hsys = build_dmaj_hrep(y, d)
    results: dict[str, Any] = {"T": _text(hsys.trace)}

    show_hrep = args.hrep or not (args.vertices or args.hrep)
    show_vertices = args.vertices or not (args.vertices or args.hrep)

    results["b"] = _hrep_json(hsys)
    if show_hrep:
        print(f"T = {results['T']}")
        for entry in results["b"]:
            print(f"  b{entry['mask']} = {entry['value']}")

    labelled = corners_with_labels(hsys)
    poly = VPolytope(n, tuple(v for v, _ in labelled), hsys)
    labels = [sigma for _, sigma in labelled]
    results["vertices"] = [_vec_json(v) for v in poly.vertices]
    results["vertex_labels"] = [list(sigma.one_based()) for sigma in labels]
    if show_vertices:
        print(f"{len(poly.vertices)} extreme points:")
        for v, sigma in labelled:
            print(f"  {_text(v)}  σ={sigma.one_based()}")

    if args.max_corner:
        try:
            z = classical_max_corner(y, d)
        except NegativeEntries as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_NEGATIVE
        results["max_corner"] = _vec_json(z)
        print(f"classically maximal corner: {_text(z)}")

    if args.curve:
        curve = curve_build(y, d)
        rows = curve.csv_rows(refine=args.curve_refine)
        with open(args.curve, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c", "f"])
            for c, f in rows:
                writer.writerow([_text(c), _text(f)])
        results["curve_elbows"] = [[_text(c), _text(f)] for c, f in curve.elbows]
        print(f"curve written to {args.curve}")

    if args.sweep or problem.sweep is not None:
        if problem.sweep is None:
            raise InputError("--sweep needs a problem file with a sweep.d_end vector")
        spec, lams = _sweep_points(problem.sweep, args.sweep)
        sweep_rows = []
        for lam in lams:
            dl = _interpolated_weights(d, spec.d_end, lam)
            pl = dmaj_vertices(y, dl)
            sweep_rows.append((lam, dl, pl))
        results["sweep"] = [
            {
                "lambda": _text(lam),
                "d": _vec_json(dl),
                "vertices": [_vec_json(v) for v in pl.vertices],
            }
            for lam, dl, pl in sweep_rows
        ]
        print(f"sweep over {len(lams)} values of λ:")
        for lam, dl, pl in sweep_rows:
            print(f"  λ={_text(lam)}: d={_text(dl)}, {len(pl.vertices)} vertices")
        if args.sweep_csv:
            with open(args.sweep_csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["lambda", "vertex"] + [f"x{i + 1}" for i in range(n)])
                for lam, _, pl in sweep_rows:
                    for k, v in enumerate(pl.vertices):
                        writer.writerow([_text(lam), k] + _vec_json(v))
            print(f"sweep vertices written to {args.sweep_csv}")

    if args.svg:
        if n != 3:
            raise InputError("--svg is available for n = 3 only")
        if hsys.trace == 0:
            raise InputError("--svg needs a nonzero trace value")
        svg = render_polytope_svg(poly, labels, hsys.trace, title=f"y={_text(y)}, d={_text(d)}")
        Path(args.svg).write_text(svg, encoding="utf-8")
        print(f"figure written to {args.svg}")
    elif n != 3 and (args.vertices or args.hrep):
        print("note: SVG figures are limited to n = 3; vertex tables above are complete")

    if args.json:
        inputs = {"y": _vec_json(y), "d": _vec_json(d)}
        _emit_json(args.json, n, inputs, results)
    return EXIT_OK


# ---------------------------------------------------------------- hausdorff


def cmd_hausdorff(args: argparse.Namespace) -> int:
    pa = load_problem(args.file_a)
    pb = load_problem(args.file_b)
    if pa.n != pb.n:
        raise InputError(f"dimension mismatch: {pa.n} vs {pb.n}")
    poly_a = dmaj_vertices(pa.y, pa.d)
    poly_b = dmaj_vertices(pb.y, pb.d)
    result = hausdorff(poly_a, poly_b)
    distance = _text(result.distance)
    print(f"Hausdorff distance (1-norm): {distance}")
    print(f"attained at {_text(result.attaining_vertex)} ({result.side} polytope)")
    results: dict[str, Any] = {
        "distance": distance,
        "attaining_vertex": _vec_json(result.attaining_vertex),
        "side": result.side,
    }
    constant = LIPSCHITZ_CONSTANTS.get(pa.n)
    if constant is None:
        results["bound_check"] = None
        print("bound check skipped: dimension exceeds the inverse-sweep cap")
    else:
        b_dist = b_l1_distance(poly_a.origin, poly_b.origin)
        bound_holds = result.distance <= constant * b_dist
        results["bound_check"] = {
            "constant": _text(constant),
            "b_distance": _text(b_dist),
            "bound_holds": bound_holds,
        }
        print(
            f"bound check: Δ = {distance} <= C·|b-b'| = {constant}·{_text(b_dist)}: "
            f"{bound_holds}"
        )
    if args.json:
        inputs = {
            "a": {"y": _vec_json(pa.y), "d": _vec_json(pa.d)},
            "b": {"y": _vec_json(pb.y), "d": _vec_json(pb.d)},
        }
        _emit_json(args.json, pa.n, inputs, results)
    return EXIT_OK


# ---------------------------------------------------------------- sd3


def cmd_sd3(args: argparse.Namespace) -> int:
    problem = load_problem(args.file)
    if problem.n != 3:
        raise InputError("sd3 requires n = 3")
    try:
        case = classify(problem.d)
        matrices = sd3_extremes(problem.d)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    print(f"regime: {case.regime} ({len(matrices)} extreme points)")
    entries = []
    for idx, m in enumerate(matrices):
        extreme = verify_extremality(m, problem.d)
        entries.append({"rows": _matrix_json(m), "extreme": extreme})
        print(f"matrix {idx + 1} (extreme: {extreme}):")
        for row in m.entries.rows:
            print("  [" + ", ".join(_text(v) for v in row) + "]")
    if args.json:
        inputs = {"d": _vec_json(problem.d)}
        _emit_json(
            args.json,
            problem.n,
            inputs,
            {"regime": case.regime, "count": len(matrices), "matrices": entries},
        )
    return EXIT_OK


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmajor",
        description="Exact computations for majorization relative to a positive weight vector.",
    )
    parser.add_argument("--version", action="version", version=f"dmajor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide whether x is majorized by y relative to d")
    p_check.add_argument("file")
    p_check.add_argument("--criterion", choices=["iv", "vi", "vii", "all"], default="all")
    p_check.add_argument("--both", action="store_true", help="also test the reverse direction")
    p_check.add_argument("--json", metavar="OUT")
    p_check.set_defaults(func=cmd_check)

    p_poly = sub.add_parser("polytope", help="halfspace description, vertices, curve, figure")
    p_poly.add_argument("file")
    p_poly.add_argument("--vertices", action="store_true")
    p_poly.add_argument("--hrep", action="store_true")
    p_poly.add_argument("--curve", metavar="OUT_CSV")
    p_poly.add_argument("--curve-refine", type=int, default=0, metavar="K")
    p_poly.add_argument("--svg", metavar="OUT_SVG")
    p_poly.add_argument("--max-corner", action="store_true")
    p_poly.add_argument("--sweep", nargs=3, metavar=("L0", "L1", "K"))
    p_poly.add_argument("--sweep-csv", metavar="OUT_CSV")
    p_poly.add_argument("--json", metavar="OUT")
    p_poly.set_defaults(func=cmd_polytope)

    p_h = sub.add_parser("hausdorff", help="exact 1-norm Hausdorff distance of two polytopes")
    p_h.add_argument("file_a")
    p_h.add_argument("file_b")
    p_h.add_argument("--json", metavar="OUT")
    p_h.set_defaults(func=cmd_hausdorff)

    p_sd3 = sub.add_parser("sd3", help="extreme points of the 3x3 weighted stochastic matrices")
    p_sd3.add_argument("file")
    p_sd3.add_argument("--json", metavar="OUT")
    p_sd3.set_defaults(func=cmd_sd3)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
