"""The four benchmark workloads: generated inputs, timed operations, gates.

Every workload is a closed loop with a single client: one pass runs the
workload's operations one after another, each starting when the last one
returned, and the loop repeats passes until the run's time is used.  The
workload seed is an argument of the benchmark; bellsquare sees only the
inputs generated from it.  CLI operations call ``bellsquare.cli.main``
in-process and parse its JSON report.

Why these four (see README.md for the layer -> metric map):

* ``werner_sweep`` -- the exact engine on the paper's own state family:
  ``sweep --grid 0:1:0.01 --chi-expt x`` plus eight ``quantum
  --visibility v`` calls, x in [-6, 6] and v in [0, 1] drawn from the
  seed.  A Werner-only closed form shows its gain here.
* ``general_states`` -- ``omega(DensityState(rho))`` on 100 seeded
  four-qubit states, 50 full-rank (Ginibre) and 50 pure.  Same engine,
  inputs no Werner shortcut covers, and pure states prune other branches.
  A Werner-only change must read "no change" here.
* ``hv_audit`` -- ``hv-bound --variant both --relaxed`` plus a pooled
  signed scan and an abs scan that decodes 8 witnesses.  Nearly all time
  is in hv_models; the only workload that runs the process pool and the
  witness rescan.
* ``shot_sampling`` -- ``sample --shots 1000000`` at v in [0.85, 1] plus
  200 000 shots of ``sample()`` in record form.  The only workload that
  measures the sampler, and the one with the largest memory use.

Each operation has a gate, evaluated outside the timed region: a list of
``oracle.Check`` records compared with the independent numpy oracle.  A
gate that fails, an exception or a non-zero exit code fails the operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bellsquare.cli
from bellsquare import hv_models, inequality, sequences, states

import oracle
from oracle import Check, close, holds

NAMES = ("werner_sweep", "general_states", "hv_audit", "shot_sampling")

TOL = 1e-9
Z_LIMIT = 5.0
N_MODELS = 1 << 21
N_RELAXED_MODELS = 1 << 24


@dataclass(frozen=True)
class Op:
    """One timed operation and the gate that judges its output.

    ``check(output, context)`` returns Check records; ``context`` is a
    dict shared by the operations of one pass.  ``starts_processes`` marks
    an operation that runs a process pool.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], list[Check]]
    starts_processes: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict  # the generated inputs, recorded as provenance
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class CliResult:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliResult:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = bellsquare.cli.main(argv)
    return CliResult(code, buffer.getvalue())


def _cli_report(out: CliResult, checks: list[Check]) -> dict:
    """Parse a CLI report, adding the exit-code and ``passed`` checks."""
    checks.append(holds("cli exit code 0", out.code == 0))
    report = json.loads(out.text)
    checks.append(holds("cli report passed", report["passed"] is True))
    return report["results"]


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Build a workload's inputs from ``seed``; ``tiny`` shrinks every size."""
    return _FACTORIES[name](np.random.default_rng(seed % 2**64), tiny)


# -- werner_sweep ---------------------------------------------------------


def _grid_points(grid: str) -> int:
    start, stop, step = (float(p) for p in grid.split(":"))
    return round((stop - start) / step) + 1


def check_sweep(out: CliResult, ctx: dict, grid: str, chi_expt: float) -> list[Check]:
    checks: list[Check] = []
    results = _cli_report(out, checks)
    rows = results["rows"]
    checks.append(holds("sweep row count", len(rows) == _grid_points(grid)))
    for row in rows:
        expected = oracle.omega_closed_form(row["visibility"])
        checks.append(close("row omega_signed = 6 + 4V + 8V^2", row["omega_signed"], expected, TOL))
        checks.append(close("row omega_abs = 6 + 4V + 8V^2", row["omega_abs"], expected, TOL))
        checks.append(close("row chi = 6", row["chi"], oracle.CHI_QUANTUM, TOL))
    checks.append(close("crossing = (sqrt(21) - 1)/4", results["crossing"], oracle.CROSSING, TOL))
    checks.append(close("threshold for chi_expt", results["threshold_for_chi_expt"],
                        oracle.threshold_closed_form(chi_expt), TOL))
    return checks


def check_quantum(out: CliResult, ctx: dict, visibility: float) -> list[Check]:
    checks: list[Check] = []
    results = _cli_report(out, checks)
    rho = oracle.werner_state(visibility)
    checks.append(close("chi = 6", results["chi"], oracle.CHI_QUANTUM, TOL))
    checks.append(close("omega_signed = 6 + 4V + 8V^2", results["omega_signed"],
                        oracle.omega_closed_form(visibility), TOL))
    checks += _term_checks(results["chi_terms"], results["s_terms"], rho)
    return checks


def _term_checks(chi_terms, s_terms, rho) -> list[Check]:
    checks = [close(f"correlator {key} = tr(rho A B)", s_terms[key], value, TOL)
              for key, value in oracle.correlators(rho).items()]
    checks += [close(f"chi term {seq} = tr(rho A1 A2 A3)", chi_terms[seq], value, TOL)
               for seq, value in oracle.chi_terms(rho).items()]
    return checks


def _werner_sweep(rng, tiny: bool) -> Workload:
    chi_expt = float(rng.uniform(-6.0, 6.0))
    visibilities = [float(v) for v in rng.uniform(0.0, 1.0, size=1 if tiny else 8)]
    grid = "0.85:0.95:0.05" if tiny else "0:1:0.01"
    ops = [Op("cli sweep", lambda: run_cli(["sweep", "--grid", grid, "--chi-expt", repr(chi_expt)]),
              lambda out, ctx: check_sweep(out, ctx, grid, chi_expt))]
    for v in visibilities:
        ops.append(Op("cli quantum", lambda v=v: run_cli(["quantum", "--visibility", repr(v)]),
                      lambda out, ctx, v=v: check_quantum(out, ctx, v)))
    inputs = {"grid": grid, "chi_expt": chi_expt, "visibilities": visibilities}
    return Workload("werner_sweep", inputs, tuple(ops))


# -- general_states -------------------------------------------------------


def check_general(report, ctx: dict, rho: np.ndarray) -> list[Check]:
    checks = [close("chi = 6", report.chi, oracle.CHI_QUANTUM, TOL)]
    checks += _term_checks(report.chi_terms.terms, report.s_terms.terms, rho)
    corr = oracle.correlators(rho)
    signed = oracle.CHI_QUANTUM + sum(t[4] * corr[k] for k, t in zip(oracle.S_KEYS, oracle.S_TERMS))
    checks.append(close("omega_signed = 6 + signed S", report.omega_signed, signed, TOL))
    checks.append(close("omega_abs = 6 + abs S", report.omega_abs,
                        oracle.CHI_QUANTUM + sum(abs(v) for v in corr.values()), TOL))
    return checks


def _general_states(rng, tiny: bool) -> Workload:
    n = 2 if tiny else 50
    matrices = []
    for _ in range(n):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        full_rank = g @ g.conj().T
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        pure = np.outer(psi, psi.conj())
        matrices += [full_rank / np.trace(full_rank).real, pure / np.vdot(psi, psi).real]
    ops = tuple(
        Op("omega full-rank" if i % 2 == 0 else "omega pure",
           lambda m=m: inequality.omega(states.DensityState(m)),
           lambda out, ctx, m=m: check_general(out, ctx, m))
        for i, m in enumerate(matrices))
    return Workload("general_states", {"full_rank": n, "pure": n, "dim": 16}, ops)


# -- hv_audit -------------------------------------------------------------


def _payload_model(witness: dict):
    alice = {(seq, pos + 1): v for seq, values in witness["alice"].items() for pos, v in enumerate(values)}
    return alice, dict(witness["bob"])


def _model(model) -> tuple[dict, dict]:
    return dict(model.alice), dict(model.bob)


def _witness_checks(label: str, models, variant: str, bound: int) -> list[Check]:
    checks = []
    for alice, bob in models:
        signed, absolute = oracle.model_omega(alice, bob)
        value = signed if variant == "signed" else absolute
        checks.append(close(f"{label} witness evaluates to {bound}", value, bound, 0.0))
        checks.append(holds(f"{label} witness shares leader values", oracle.leaders_shared(alice)))
    return checks


def check_hv_cli(out: CliResult, ctx: dict, relaxed: bool) -> list[Check]:
    checks: list[Check] = []
    results = _cli_report(out, checks)
    expected = {"signed": 16, "abs": 18}
    for variant, bound in expected.items():
        entry = results["bounds"][variant]
        checks.append(close(f"{variant} bound", entry["max_value"], bound, 0.0))
        checks.append(close(f"{variant} models scanned", entry["models_scanned"], N_MODELS, 0.0))
        models = [_payload_model(w) for w in entry["witnesses"]]
        checks.append(holds(f"{variant} has a witness", len(models) >= 1))
        checks += _witness_checks(variant, models, variant, bound)
        ctx[f"serial {variant}"] = models[0] if models else None
    for key in ("noncontextual_chi", "first_measurement_chi"):
        entry = results[key]
        checks.append(close(f"{key} bound", entry["max_value"], 4, 0.0))
        checks.append(holds(f"{key} has a witness", len(entry["witnesses"]) >= 1))
        checks += [close(f"{key} witness evaluates to 4", oracle.assignment_chi(w["values"]), 4, 0.0)
                   for w in entry["witnesses"]]
    checks.append(holds("chain inequality holds", results["chain_inequality"]["all_hold"] is True))
    if relaxed or "relaxed" in results:
        for variant in ("signed", "abs"):
            entry = results["relaxed"][variant]
            checks.append(close(f"relaxed {variant} bound", entry["max_value"], 18, 0.0))
            checks.append(close(f"relaxed {variant} models scanned", entry["models_scanned"],
                                N_RELAXED_MODELS, 0.0))
    return checks


def check_pooled(result, ctx: dict) -> list[Check]:
    models = [_model(m) for m in result.argmax_models]
    checks = [close("pooled signed bound", result.max_value, 16, 0.0),
              close("pooled models scanned", result.models_scanned, N_MODELS, 0.0),
              holds("pooled witness equals serial witness", models[:1] == [ctx.get("serial signed")])]
    return checks + _witness_checks("pooled", models, "signed", 16)


def check_witnesses(result, ctx: dict, count: int) -> list[Check]:
    models = [_model(m) for m in result.argmax_models]
    checks = [close("abs bound", result.max_value, 18, 0.0),
              close("abs witness count", len(models), count, 0.0),
              holds("abs witnesses distinct", len({repr(sorted(a.items())) + repr(sorted(b.items()))
                                                   for a, b in models}) == len(models)),
              holds("first abs witness equals serial witness", models[:1] == [ctx.get("serial abs")])]
    return checks + _witness_checks("abs rescan", models, "abs", 18)


def _hv_audit(rng, tiny: bool) -> Workload:
    workers = min(2, os.cpu_count() or 1)
    count = 2 if tiny else 8
    relaxed = not tiny
    argv = ["hv-bound", "--variant", "both"] + (["--relaxed"] if relaxed else [])
    ops = (
        Op("cli hv-bound", lambda: run_cli(argv), lambda out, ctx: check_hv_cli(out, ctx, relaxed)),
        Op("local_omega_bound pooled",
           lambda: hv_models.local_omega_bound("signed", workers=workers), check_pooled,
           starts_processes=workers > 1),
        Op("local_omega_bound witnesses",
           lambda: hv_models.local_omega_bound("abs", max_witnesses=count),
           lambda out, ctx: check_witnesses(out, ctx, count)),
    )
    return Workload("hv_audit", {"argv": argv, "workers": workers, "max_witnesses": count}, ops)


# -- shot_sampling --------------------------------------------------------


def _z_check(name: str, estimate: float, exact: float, n: int) -> Check:
    sigma = math.sqrt(max(1.0 - exact * exact, 0.0) / n)
    if sigma == 0.0:
        return close(name, estimate, exact, 0.0)
    return Check(name, abs(float(estimate) - exact) / sigma, Z_LIMIT)


def check_sample_cli(out: CliResult, ctx: dict, visibility: float, shots: int) -> list[Check]:
    checks: list[Check] = []
    results = _cli_report(out, checks)
    rho = oracle.werner_state(visibility)
    checks.append(holds("within_5_sigma", results["within_5_sigma"] is True))
    for seq, value in oracle.chi_terms(rho).items():
        term = results["chi_terms"][seq]
        checks.append(close(f"chi term {seq} exact = oracle", term["exact"], value, TOL))
        checks.append(close(f"chi term {seq} estimate exact", term["estimate"], term["exact"], 0.0))
        checks.append(close(f"chi term {seq} shots", term["n_shots"], 2 * shots, 0.0))
    for key, value in oracle.correlators(rho).items():
        term = results["s_terms"][key]
        checks.append(close(f"correlator {key} exact = oracle", term["exact"], value, TOL))
        checks.append(_z_check(f"correlator {key} within 5 sigma", term["estimate"], value, shots))
        checks.append(close(f"correlator {key} shots", term["n_shots"], shots, 0.0))
    return checks


def check_records(records, ctx: dict, visibility: float, count: int, seed: int) -> list[Check]:
    checks = [close("record count", len(records), count, 0.0),
              holds("record indices and seed", all(r.shot_index == i and r.seed == seed
                                                   for i, r in enumerate(records)))]
    if not records:
        return checks
    outcomes = np.array([r.outcomes for r in records], dtype=np.int64)
    rho = oracle.werner_state(visibility)
    product = oracle.chi_terms(rho)["ABC"]
    checks.append(holds("every ABC product equals tr(rho A B C)",
                        bool(np.all(outcomes[:, :3].prod(axis=1) == round(product)))))
    # S term (B, B', ABC): Alice slot 2 against Bob.
    exact = oracle.correlators(rho)["BB'|ABC"]
    checks.append(_z_check("record correlator BB'|ABC within 5 sigma",
                           float((outcomes[:, 1] * outcomes[:, 3]).mean()), exact, count))
    return checks


def _shot_sampling(rng, tiny: bool) -> Workload:
    visibility = float(rng.uniform(0.85, 1.0))
    cli_seed, record_seed = (int(s) for s in rng.integers(0, 2**62, size=2))
    shots, count = (2_000, 1_000) if tiny else (1_000_000, 200_000)
    rho = states.four_qubit_state(visibility)
    spec = sequences.SequenceSpec("ABC", "B'")
    argv = ["sample", "--visibility", repr(visibility), "--shots", str(shots), "--seed", str(cli_seed)]
    ops = (
        Op("cli sample", lambda: run_cli(argv),
           lambda out, ctx: check_sample_cli(out, ctx, visibility, shots)),
        Op("sample records", lambda: sequences.sample(rho, spec, count, record_seed),
           lambda out, ctx: check_records(out, ctx, visibility, count, record_seed)),
    )
    inputs = {"visibility": visibility, "cli_seed": cli_seed, "record_seed": record_seed,
              "shots": shots, "records": count}
    return Workload("shot_sampling", inputs, ops)


_FACTORIES = {
    "werner_sweep": _werner_sweep,
    "general_states": _general_states,
    "hv_audit": _hv_audit,
    "shot_sampling": _shot_sampling,
}
