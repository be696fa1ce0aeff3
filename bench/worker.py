"""One workload process: import bellsquare from this checkout, run, report.

Started by run.py in a fresh interpreter, one at a time.  The checkout's
own ``src`` goes first on the path before anything else is imported, and
the process aborts if ``bellsquare`` resolves anywhere else.  The moment
``bellsquare`` and ``bellsquare.cli`` are imported ends the set-up.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result FILE
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bellsquare  # noqa: E402
import bellsquare.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, median_metrics  # noqa: E402

MIN_PASSES = 2  # untraced passes on each pass CPU
MIN_TRACED_PASSES = 2
MAX_FAILURE_NOTES = 20


# Passes alternate between (at most) two of the allowed CPUs.  On a shared
# host one CPU can run 1.5x slower than another for minutes at a time, and
# an unpinned process tends to stay on one CPU, so a whole run would read
# fast or slow by where it landed.  run.py averages the per-CPU medians.
ALL_CPUS = sorted(os.sched_getaffinity(0))
PASS_CPUS = ALL_CPUS[:2]


def _check_origin() -> str:
    origin = Path(bellsquare.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bellsquare was imported from {origin}, outside {SRC}")
    return str(origin)


def _run_pass(workload, tracer, cpu: int, traced: bool, notes: list) -> dict:
    """Run every operation once on ``cpu``; gates run after each op, untimed."""
    latencies, failed, worst = [], 0, 0.0
    context: dict = {}
    for op in workload.ops:
        # Processes inherit the affinity: a pool gets every allowed CPU.
        os.sched_setaffinity(0, ALL_CPUS if op.starts_processes else {cpu})
        tracer.enabled = traced
        started = time.perf_counter()
        try:
            output, error = op.call(), None
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - started)
        tracer.enabled = False

        if error is None:
            if traced and isinstance(output, workloads.CliResult):
                tracer.add("cli.report_bytes", len(output.text))
            try:
                checks = op.check(output, context)
            except Exception:  # a malformed output is a failed gate
                checks, error = [], "gate raised: " + traceback.format_exc(limit=3)
            bad = [c for c in checks if not c.passed]
            worst = max([worst] + [c.margin for c in checks])
            if bad:
                error = "; ".join(f"{c.name}: error {c.error:.3g} > tol {c.tol:g}" for c in bad[:3])
        if error is not None:
            failed += 1
            worst = float("inf")
            if len(notes) < MAX_FAILURE_NOTES:
                notes.append(f"{op.label}: {error}")
    return {"traced": traced, "cpu": cpu, "wall_s": sum(latencies), "op_s": latencies,
            "attempted": len(workload.ops), "failed": failed, "worst_margin": worst}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="report set-up and exit")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args()
    origin = _check_origin()
    if args.probe:
        print(json.dumps({"imported_at": IMPORTED_AT, "bellsquare_file": origin}))
        return 0
    if args.workload is None or args.result is None:
        parser.error("--workload and --result are required")

    workload = workloads.make(args.workload, args.seed, args.tiny)
    tracer = Tracer()
    passes, notes = [], []
    started = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes, so each CPU gets
        # one of each in turn.  The wrappers are installed only for a traced
        # pass, so untraced passes run the unmodified program.
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        cpu = PASS_CPUS[(k // (1 + args.trace)) % len(PASS_CPUS)]
        tracer.run_id = k
        if traced:
            tracer.install()
        try:
            passes.append(_run_pass(workload, tracer, cpu, traced, notes))
        finally:
            tracer.uninstall()
        n_traced = sum(p["traced"] for p in passes)
        enough = (len(passes) - n_traced >= MIN_PASSES * len(PASS_CPUS)
                  and n_traced >= MIN_TRACED_PASSES * args.trace)
        typical = statistics.median(p["wall_s"] for p in passes)
        if enough and time.perf_counter() - started + typical > args.seconds:
            break
    os.sched_setaffinity(0, ALL_CPUS)

    result = {
        "bellsquare_file": origin,
        "numpy": np.__version__,
        "inputs": workload.inputs,
        "ops_per_pass": [op.label for op in workload.ops],
        "passes": passes,
        "failure_notes": notes,
        "measured_s": time.perf_counter() - started,
    }
    if args.trace:
        per_pass = tracer.pass_metrics()
        result["per_layer"] = median_metrics(per_pass)
        result["per_layer_passes"] = len(per_pass)
        spans_path = args.result.with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["span_count"] = len(tracer.spans)
    args.result.write_text(json.dumps(result, indent=1, ensure_ascii=False, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
