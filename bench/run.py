"""Benchmark entry point: run one bellsquare workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run runs the workload in a fresh
interpreter (bench/worker.py) under a timeout and, untraced, measures
set-up in several more fresh interpreters before and after it, one
process at a time.  It prints a table of every metric with its unit and
sample count, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of
tracer.PER_LAYER.

A crashed, failed or timed-out workload process fails the run: its
stderr is shown, no result line is printed and the exit code is 1.  The
full record of each run, with provenance, is written to
bench/out/<workload>-trace<k>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "bellsquare"

sys.path.insert(0, str(BENCH))
from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("werner_sweep", "general_states", "hv_audit", "shot_sampling")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
SETUP_PROBES = 10  # half before the workload process, half after it
PROBE_TIMEOUT_S = 10.0
PROBE_ERRORS = (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError)
RUN_DEADLINE_S = 170.0  # the whole run, probes included, ends before this
LATE_PROBES_S = 15.0  # kept back from the workload for the probes after it


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BELLSQUARE_OUT", None)  # reports must go to stdout
    return env


def measure_setup(first: int, count: int) -> list[tuple[int, float]]:
    """Interpreter start to ``bellsquare.cli`` imported, in fresh interpreters.

    Returns (cpu, seconds) samples of probes ``first`` to ``first + count``;
    probes alternate between two CPUs.
    """
    samples = []
    cpus = sorted(os.sched_getaffinity(0))[:2]
    for k in range(first, first + count):
        cpu = cpus[k % len(cpus)]
        started = time.monotonic()
        done = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--probe"], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        report = json.loads(done.stdout.splitlines()[-1])
        samples.append((cpu, report["imported_at"] - started))
    return samples


def _end_group(pgid: int) -> None:
    """Kill what is left of the worker's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(argv: list[str], stdout_path: Path, stderr_path: Path, timeout: float):
    """Run the workload process; returns (exit code or None on timeout, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
    deadline = time.monotonic() + timeout
    code = None
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, _, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        proc.returncode = -1  # reaped above by wait4, so Popen must not wait
        _end_group(proc.pid)
    return code, usage


def cpu_median(samples: list[tuple[int, float]]) -> float:
    """Mean over CPUs of the median of the samples taken on each CPU.

    Passes and set-up probes alternate between two CPUs, whose speeds can
    differ by half for minutes on a shared host; averaging the per-CPU
    medians keeps a run from reading fast or slow by where it landed.
    """
    by_cpu: dict[int, list[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(statistics.median(values) for values in by_cpu.values())


def end_to_end(record: dict, setup: list[tuple[int, float]], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, and their sample counts."""
    passes = [p for p in record["passes"] if not p["traced"]]
    attempted = sum(p["attempted"] for p in record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    values = {
        "setup_s": cpu_median(setup),
        "wall_s": cpu_median([(p["cpu"], p["wall_s"]) for p in passes]),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }
    samples = {
        "setup_s": f"{len(setup)} interpreters",
        "wall_s": f"{len(passes)} passes",
        "peak_rss_mb": "1 process",
        "success_rate": f"{attempted} operations",
    }
    return values, samples


def per_layer(record: dict) -> tuple[dict, dict]:
    untraced = [(p["cpu"], p["wall_s"]) for p in record["passes"] if not p["traced"]]
    traced = [(p["cpu"], p["wall_s"]) for p in record["passes"] if p["traced"]]
    values = dict(record["per_layer"])
    values["trace.overhead_s"] = cpu_median(traced) - cpu_median(untraced)
    worst = max(p["worst_margin"] for p in record["passes"])
    values["check.worst_margin"] = worst if math.isfinite(worst) else sys.float_info.max
    count = f"{len(traced)} traced passes"
    samples = {name: count for name in values}
    samples["trace.overhead_s"] = f"{len(traced)} traced + {len(untraced)} untraced passes"
    samples["check.worst_margin"] = f"{len(record['passes'])} passes"
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    args = parser.parse_args()
    # A terminated run still ends its workload process: SystemExit unwinds
    # through run_worker, which kills the process group and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"bench: signal {signum}"))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        return _fail(f"no bellsquare package at {PACKAGE.relative_to(ROOT)}; run from a full checkout")

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    info = provenance(args)
    setup: list[tuple[int, float]] = []
    if not args.trace:
        try:
            setup = measure_setup(0, SETUP_PROBES // 2)
        except PROBE_ERRORS as exc:
            return _fail(f"set-up probe failed: {exc}")

    stem = OUT / f"{args.workload}-trace{args.trace}"
    result_path = stem.with_suffix(".result.json")
    stderr_path = stem.with_suffix(".stderr")
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", str(result_path)] + (["--tiny"] if args.tiny else [])
    info["load_avg_start"] = os.getloadavg()
    launched = time.monotonic()
    code, usage = run_worker(argv, stem.with_suffix(".stdout"), stderr_path,
                             RUN_DEADLINE_S - (launched - started)
                             - (0.0 if args.trace else LATE_PROBES_S))
    info["load_avg_end"] = os.getloadavg()

    stderr = stderr_path.read_text(errors="replace").strip()
    if code != 0 or not result_path.is_file():
        reason = "timed out" if code is None else f"exited with code {code}"
        failure = {"provenance": info, "failure": reason, "stderr": stderr[-4000:]}
        (stem.with_suffix(".json")).write_text(json.dumps(failure, indent=1) + "\n")
        return _fail(f"workload process {reason}\n{stderr[-4000:]}")
    record = json.loads(result_path.read_text())
    if not args.trace:
        # Probes on both sides of the workload sample the host's speed over
        # the whole run rather than over its first seconds.
        try:
            setup += measure_setup(len(setup), SETUP_PROBES - len(setup))
        except PROBE_ERRORS as exc:
            return _fail(f"set-up probe failed: {exc}")
    info["bellsquare_file"] = record["bellsquare_file"]
    info["numpy"] = record["numpy"]
    info["inputs"] = record["inputs"]

    if args.trace:
        values, samples = per_layer(record)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, samples = end_to_end(record, setup, usage.ru_maxrss / 1024)
        units = dict(END_TO_END)
    missing = set(units) - set(values)
    if missing:
        return _fail(f"metrics missing from the run: {sorted(missing)}")

    attempted = sum(p["attempted"] for p in record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {"provenance": info, "samples": samples, "failure_notes": record["failure_notes"],
            "ops_per_pass": record["ops_per_pass"], "passes": record["passes"], **summary}
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1, ensure_ascii=False) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={info['git_sha'] or 'n/a'} nproc={info['nproc']} "
          f"load={info['load_avg_start'][0]:.2f}->{info['load_avg_end'][0]:.2f}")
    for note in record["failure_notes"]:
        print(f"# FAILED {note}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit:6s} ({samples[name]})")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
