#!/usr/bin/env python3
"""Record every CLI output for a set of problem files, for diffing.

Usage: PYTHONPATH=src python3 scripts/cli_snapshot.py OUTDIR [FILES...]

Runs ``dmajor.cli.main`` in-process on ``problems/*.json`` plus FILES:
``check`` under each ``--criterion`` with ``--both --json`` (files with x),
``polytope`` with ``--json --curve --curve-refine 4`` (plus ``--svg`` for
n = 3 and ``--sweep-csv`` for files with a sweep), ``polytope --max-corner``,
``sd3`` (n = 3) and ``hausdorff`` on each pair of files of the same n.
Each run gets a directory under OUTDIR holding its arguments, stdout,
stderr, exit code and output files.  Inputs are copied to OUTDIR/inputs and
every path is relative to OUTDIR, so ``diff -r`` between two snapshots
shows only changes in output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
from itertools import combinations
from pathlib import Path

from dmajor.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
CRITERIA = ("iv", "vi", "vii", "all")


def run_case(outdir: Path, case: str, argv: list[str]) -> None:
    """Run one CLI call with OUTDIR as working directory and record it."""
    record = outdir / case
    record.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # recorded, not raised: a crash is an output too
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        code = "uncaught"
    finally:
        os.chdir(cwd)
    (record / "argv.txt").write_text(" ".join(argv) + "\n", encoding="utf-8")
    (record / "stdout.txt").write_text(out.getvalue(), encoding="utf-8")
    (record / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
    (record / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")


def load_inputs(outdir: Path, files: list[Path]) -> dict[str, dict]:
    """Copy each input to OUTDIR/inputs under a unique stem; parse what parses."""
    (outdir / "inputs").mkdir(parents=True)
    inputs: dict[str, dict] = {}
    for path in files:
        name = path.stem
        while name in inputs:
            name += "_"
        shutil.copyfile(path, outdir / "inputs" / f"{name}.json")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = None
        inputs[name] = data if isinstance(data, dict) else {}
    return inputs


def snapshot(outdir: Path, files: list[Path]) -> int:
    inputs = load_inputs(outdir, files)
    count = 0
    for name, data in inputs.items():
        src = f"inputs/{name}.json"
        if "x" in data:
            for crit in CRITERIA:
                case = f"check-{crit}-{name}"
                run_case(outdir, case, ["check", src, "--criterion", crit, "--both",
                                        "--json", f"{case}/out.json"])
                count += 1
        case = f"polytope-{name}"
        argv = ["polytope", src, "--json", f"{case}/out.json",
                "--curve", f"{case}/curve.csv", "--curve-refine", "4"]
        if data.get("n") == 3:
            argv += ["--svg", f"{case}/figure.svg"]
        if "sweep" in data:
            argv += ["--sweep-csv", f"{case}/sweep.csv"]
        run_case(outdir, case, argv)
        case = f"polytope-max-corner-{name}"
        run_case(outdir, case, ["polytope", src, "--max-corner", "--json", f"{case}/out.json"])
        count += 2
        if data.get("n") == 3:
            case = f"sd3-{name}"
            run_case(outdir, case, ["sd3", src, "--json", f"{case}/out.json"])
            count += 1
    for a, b in combinations(inputs, 2):
        if "n" in inputs[a] and inputs[a].get("n") == inputs[b].get("n"):
            case = f"hausdorff-{a}-{b}"
            run_case(outdir, case, ["hausdorff", f"inputs/{a}.json", f"inputs/{b}.json",
                                    "--json", f"{case}/out.json"])
            count += 1
    return count


def entry() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new directory for the snapshot")
    parser.add_argument("files", nargs="*", type=Path, help="extra problem files")
    args = parser.parse_args()
    if args.outdir.exists():
        parser.error(f"{args.outdir} exists; a snapshot needs a new directory")
    files = sorted(PROBLEMS.glob("*.json")) + args.files
    count = snapshot(args.outdir.resolve(), files)
    print(f"{count} runs on {len(files)} files recorded in {args.outdir}")


if __name__ == "__main__":
    entry()
