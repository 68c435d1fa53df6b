"""Steadiness self-check: run every workload with seeds 1..10.

    python3 bench/steady.py

Each run measures ``run_seconds`` from BENCHMARK.json.  For every
end-to-end metric it prints the median over the runs and the spread, taken
as the distance between the first and third quartile over the median, next
to the metric's bound in BENCHMARK.json.  A spread at or above the bound
fails; one above a third of the bound is flagged, because a later
comparison of two medians needs that headroom.  Runs go one after the
other in this process's checkout, so nothing else of the benchmark
competes for the processor.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = "ok"
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds)
            results.append(result)
            if not result["correct"]:
                print(f"{workload} seed {seed}: "
                      f"{result['failed']} of {result['attempted']} queries failed")
                worst = "FAIL"
        print(f"\n{workload}: {len(SEEDS)} runs of {seconds} s, seeds {SEEDS[0]}..{SEEDS[-1]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values)
            if share >= bound:
                status, worst = "FAIL", "FAIL"
            elif share > bound / 3:
                status = "wide"
                worst = worst if worst == "FAIL" else "wide"
            else:
                status = "ok"
            print(f"  {name:16s} median {statistics.median(values):12.4f}  "
                  f"spread {share:7.4f}  bound {bound:5.3f}  {status:4s} "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
    print(f"\nsteadiness: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
