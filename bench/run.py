"""Run one benchmark workload against the checkout's ``src/dmajor``.

    python3 bench/run.py --workload check --seed 1 --seconds 15 --trace 0

Every workload is a closed loop with one client: the next query is made
only after the previous one has returned and has been checked.  Only the
call into the library is timed; generating a query and checking its answer
exactly are not.  The loop runs whole cycles of the workload's slot list
until at least ``--seconds`` of timed work and at least 100 queries are
done, so every run sees the same mix of sizes.

Speed correction.  The machine this was tuned on is a shared virtual
machine whose speed swings by up to 2x, in stretches that can outlast a
run.  The loop times a fixed piece of Fraction arithmetic (the probe) just
before and just after each query and, from an interval timer, every
PROBE_INTERVAL_S during it.  The time the probes inside a query take is
taken out of its wall time, and what is left is scaled by
``REFERENCE_PROBE_S / probe``, with ``probe`` the mean of the query's
readings.  Reported times are therefore wall times at the speed at which
the probe takes ``REFERENCE_PROBE_S``; the raw figures are printed beside
them.  Traced runs take no probes inside queries, so that none lands
inside a span.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run, and the spans are written to
``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_QUERIES = 100
WALL_LIMIT_S = 120.0
SETUP_REPEATS = 21
# Best probe time on a 2-core Xeon (2.1 GHz) KVM guest with Python 3.11.
REFERENCE_PROBE_S = 1.35e-3
PROBE_INTERVAL_S = 0.05
# The untraced half of a traced run draws other queries from the same mix,
# so that no cache in the library could serve the traced half.
UNTRACED_SEED_OFFSET = 1_000_003
MODULES = ("exact", "lp", "dmaj", "curve", "classical", "halfspace", "polytope",
           "sd3", "svgplot", "cli")

IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dmajor
{imports}
print(time.perf_counter() - start)
""".format(imports="\n".join(f"import dmajor.{m}" for m in MODULES))


def probe_once() -> float:
    """Seconds for a fixed piece of Fraction arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        if total > 1000:
            total = Fraction(0)
    return time.perf_counter() - start


def probe() -> float:
    """The best of two probes."""
    return min(probe_once(), probe_once())


class InQueryProbes:
    """Probes taken from SIGALRM while a query runs, with their intervals."""

    def __init__(self) -> None:
        self.taken: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reading = probe_once()
        self.taken.append((start, time.perf_counter(), reading))

    def start(self) -> None:
        self.taken = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def inside(self, start: float, end: float) -> tuple[float, list[float]]:
        """Seconds of probing within [start, end], and the readings."""
        spent = sum(max(0.0, min(b, end) - max(a, start)) for a, b, _ in self.taken)
        return spent, [r for _, _, r in self.taken]


def import_time() -> float:
    """Seconds to import every dmajor module in a fresh interpreter.

    The time is taken inside the child and speed-corrected by probes taken
    just before and after it.
    """
    before = probe()
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    after = probe()
    return float(out.stdout.strip()) * 2 * REFERENCE_PROBE_S / (before + after)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "dmajor").glob("*.py")))


def run_loop(workload, seed: int, seconds: float, tracer=None,
             probes: InQueryProbes | None = None, setup: list[float] | None = None) -> dict:
    """Closed loop over whole slot cycles.

    Returns raw and speed-corrected latencies, the correction factor of
    each query, and the failures.  If ``setup`` is given, SETUP_REPEATS
    import times are appended to it, spread evenly over the timed work
    between queries, so that they see the same machine states as the
    queries do.
    """
    rng = random.Random(seed)
    raw: list[float] = []
    factors: list[float] = []
    failures: list[str] = []
    wall_start = time.perf_counter()
    before = probe()
    while True:
        for kind, n in workload.slots:
            query = workload.make(rng, kind, n)
            qid = len(raw)
            if tracer is not None:
                tracer.query, tracer.active = qid, True
            if probes is not None:
                probes.start()
            start = time.perf_counter()
            try:
                result = workload.run(query)
                error = None
            except Exception:  # a failed query is counted and the loop goes on
                error = traceback.format_exc(limit=3)
            finally:
                if probes is not None:
                    probes.stop()
            end = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            after = probe()
            spent, readings = probes.inside(start, end) if probes is not None else (0.0, [])
            raw.append(end - start - spent)
            factors.append(REFERENCE_PROBE_S / statistics.fmean([before, after, *readings]))
            before = after
            if error is None:
                try:
                    problems = workload.check(query, result)
                except Exception:  # a check that cannot read the answer fails it
                    problems = [traceback.format_exc(limit=3)]
            else:
                problems = [f"raised: {error}"]
            if problems:
                failures.append(f"query {qid} ({kind}, n={n}): " + "; ".join(problems))
            if tracer is not None and query.bytes_written:
                tracer.counts["cli.bytes_written"] += query.bytes_written
            if setup is not None:
                due = min(SETUP_REPEATS, int(sum(raw) * SETUP_REPEATS / seconds) + 1)
                if len(setup) < due:
                    setup.extend(import_time() for _ in range(due - len(setup)))
                    before = probe()
        done = sum(raw) >= seconds and len(raw) >= MIN_QUERIES
        if done or time.perf_counter() - wall_start > WALL_LIMIT_S:
            latencies = [t * f for t, f in zip(raw, factors)]
            return {"raw": raw, "latencies": latencies, "factors": factors,
                    "failures": failures}


def summarize(latencies: list[float]) -> dict[str, tuple[float, str]]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "throughput_qps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def traced_run(workload, args) -> tuple[list[dict], dict]:
    """An untraced half for the base, then a traced half."""
    import tracing

    half = args.seconds / 2
    plain = run_loop(workload, args.seed + UNTRACED_SEED_OFFSET, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, traced["factors"])
    plain_qps = summarize(plain["latencies"])["throughput_qps"][0]
    traced_qps = summarize(traced["latencies"])["throughput_qps"][0]
    metrics["trace.overhead_ratio"] = (traced_qps / plain_qps, "ratio")
    metrics["trace.traced_qps"] = (traced_qps, "1/s")
    metrics["trace.untraced_qps"] = (plain_qps, "1/s")
    dump = tracer.dump()
    dump.update(workload=args.workload, seed=args.seed, factors=traced["factors"],
                src_lines=src_lines())
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "wide", "polytope", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmajor" / "__init__.py").is_file():
        print(f"error: no dmajor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dmajor
    if Path(dmajor.__file__).resolve().parent != (SRC / "dmajor").resolve():
        print(f"error: imported dmajor from {dmajor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make_workload(args.workload, workdir)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  (closed loop, 1 client, {len(workload.slots)} slots a cycle)")
        if args.trace:
            loops, metrics = traced_run(workload, args)
        else:
            import_time()  # writes the bytecode cache, as an installed package has it
            setup: list[float] = []
            loops = [run_loop(workload, args.seed, args.seconds, probes=InQueryProbes(),
                              setup=setup)]
            metrics = summarize(loops[0]["latencies"])
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop["raw"]) for loop in loops)
    failures = [f for loop in loops for f in loop["failures"]]
    for line in failures[:20]:
        print(f"FAIL {line}")
    queries = len(loops[-1]["raw"])
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_p90_ms":
            note = f"  ({queries} samples, {queries - int(0.9 * queries)} beyond)"
        print(f"{name:36s} {value:14.6f} {unit}{note}")
    raw = summarize(loops[-1]["raw"])
    print("uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items())
          + f"; median speed factor {statistics.median(loops[-1]['factors']):.3f}")
    print(f"{'error_rate':36s} {len(failures) / attempted:14.6f} ratio  "
          f"({len(failures)} of {attempted} queries failed)")
    print(f"{'info.src_lines':36s} {src_lines():14d} lines (informational, not gated)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
