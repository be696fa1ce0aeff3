"""Smoke check of the benchmark itself.  Run from the root of a checkout:

    python3 bench/smoke.py

1. BENCHMARK.json names exactly the metrics that run.py and tracer.py emit.
2. Every workload runs end to end at tiny sizes through run.py, traced and
   untraced, with every gate passing and every metric present.
3. Every gate is fed a deliberately wrong result and must report a failure.

Exits 0 when every step holds, 1 otherwise.
"""

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bellsquare.hv_models import decode_model  # noqa: E402
from bellsquare.inequality import STerms  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import CliResult  # noqa: E402

RELAXED_OK = {v: {"max_value": 18.0, "models_scanned": workloads.N_RELAXED_MODELS,
                  "leader_sharing_load_bearing": True} for v in ("signed", "abs")}


def check_contract() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["workloads"]] != list(run.WORKLOADS) or run.WORKLOADS != workloads.NAMES:
        problems.append("BENCHMARK.json, run.WORKLOADS and workloads.NAMES differ")
    if {(m["name"], m["unit"]) for m in spec["end_to_end"]} != set(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    return problems


def check_runs() -> list[str]:
    problems = []
    names = {0: {n for n, _ in run.END_TO_END}, 1: {n for n, _, _ in PER_LAYER}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: gates failed: {done.stdout[-800:]}")
            elif set(result["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ names[trace])}")
            print(f"ran {label}: {'ok' if done.returncode == 0 else 'FAILED'}")
    return problems


# -- wrong results ---------------------------------------------------------


def cli_edit(edit):
    """A corruption that edits the parsed ``results`` of a CLI report."""
    def corrupt(out: CliResult) -> CliResult:
        report = json.loads(out.text)
        edit(report["results"])
        return CliResult(out.code, json.dumps(report))
    return corrupt


def _set(path, value):
    def edit(results):
        node = results
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return edit


def _first_key(results, field):
    return next(iter(results[field]))


def _bump_first(field, by):
    return lambda r: r[field].__setitem__(_first_key(r, field), r[field][_first_key(r, field)] + by)


def _flip_witness(results):
    witness = results["bounds"]["signed"]["witnesses"][0]
    witness["bob"][next(iter(witness["bob"]))] *= -1


def _flip_assignment(results):
    values = results["first_measurement_chi"]["witnesses"][0]["values"]
    values[next(iter(values))] *= -1


def _shift_term(field, key, by):
    return lambda r: r[field][next(iter(r[field]))].__setitem__(key, r[field][next(iter(r[field]))][key] + by)


def _report_with(**changes):
    def corrupt(report):
        return dataclasses.replace(report, **{k: f(report) for k, f in changes.items()})
    return corrupt


def _bumped_s_terms(report):
    terms = dict(report.s_terms.terms)
    key = next(iter(terms))
    terms[key] += 1e-6
    return STerms(terms=terms)


def _bumped_chi_terms(report):
    terms = dict(report.chi_terms.terms)
    key = next(iter(terms))
    terms[key] -= 1e-6
    return dataclasses.replace(report.chi_terms, terms=terms)


def _with_models(models):
    return lambda result: dataclasses.replace(result, argmax_models=tuple(models(result)))


def _records_edit(edit):
    def corrupt(records):
        records = list(records)
        edit(records)
        return records
    return corrupt


def _flip_bob(records):
    for i in range(0, len(records), 2):
        r = records[i]
        records[i] = r._replace(outcomes=r.outcomes[:3] + (-r.outcomes[3],))


CORRUPTIONS = {
    "werner_sweep": [
        (0, "non-zero exit code", lambda out: CliResult(1, out.text)),
        (0, "report not passed", lambda out: CliResult(0, out.text.replace('"passed": true', '"passed": false'))),
        (0, "row count", cli_edit(lambda r: r["rows"].pop())),
        (0, "row omega_signed", cli_edit(lambda r: r["rows"][1].__setitem__("omega_signed", r["rows"][1]["omega_signed"] + 1e-6))),
        (0, "row omega_abs", cli_edit(lambda r: r["rows"][0].__setitem__("omega_abs", r["rows"][0]["omega_abs"] - 1e-6))),
        (0, "row chi", cli_edit(lambda r: r["rows"][-1].__setitem__("chi", 5.999999))),
        (0, "crossing", cli_edit(_set(("crossing",), lambda v: v + 1e-6))),
        (0, "threshold for chi_expt", cli_edit(_set(("threshold_for_chi_expt",), lambda v: v + 1e-6))),
        (1, "quantum chi", cli_edit(_set(("chi",), 6.000001))),
        (1, "quantum omega_signed", cli_edit(_set(("omega_signed",), lambda v: v - 1e-6))),
        (1, "quantum correlator", cli_edit(_bump_first("s_terms", 1e-6))),
        (1, "quantum chi term", cli_edit(_bump_first("chi_terms", -2.0))),
    ],
    "general_states": [
        (i, what, _report_with(**{field: fn}))
        for i in (0, 1)
        for what, field, fn in (
            ("chi", "chi", lambda r: r.chi + 1e-6),
            ("correlator", "s_terms", _bumped_s_terms),
            ("chi term", "chi_terms", _bumped_chi_terms),
            ("omega_signed", "omega_signed", lambda r: r.omega_signed + 1e-6),
            ("omega_abs", "omega_abs", lambda r: r.omega_abs - 1e-6),
        )
    ],
    "hv_audit": [
        (0, "signed bound", cli_edit(_set(("bounds", "signed", "max_value"), 17.0))),
        (0, "abs bound", cli_edit(_set(("bounds", "abs", "max_value"), 17.0))),
        (0, "models scanned", cli_edit(_set(("bounds", "signed", "models_scanned"), 1 << 20))),
        (0, "signed witness value", cli_edit(_flip_witness)),
        (0, "no abs witness", cli_edit(_set(("bounds", "abs", "witnesses"), []))),
        (0, "noncontextual bound", cli_edit(_set(("noncontextual_chi", "max_value"), 6.0))),
        (0, "first-measurement witness", cli_edit(_flip_assignment)),
        (0, "chain inequality", cli_edit(_set(("chain_inequality", "all_hold"), False))),
        (0, "relaxed signed bound", cli_edit(lambda r: r.update(relaxed={
            **copy.deepcopy(RELAXED_OK), "signed": {**RELAXED_OK["signed"], "max_value": 16.0}}))),
        (0, "relaxed models scanned", cli_edit(lambda r: r.update(relaxed={
            **copy.deepcopy(RELAXED_OK), "abs": {**RELAXED_OK["abs"], "models_scanned": 1 << 21}}))),
        (1, "pooled bound", lambda res: dataclasses.replace(res, max_value=15.0)),
        (1, "pooled witness differs from serial",
         _with_models(lambda res: [decode_model(0b111111 << 15)])),
        (2, "abs bound", lambda res: dataclasses.replace(res, max_value=17.0)),
        (2, "witness count", _with_models(lambda res: res.argmax_models[:1])),
        (2, "duplicate witnesses", _with_models(lambda res: [res.argmax_models[0]] * len(res.argmax_models))),
        (2, "witness value", _with_models(lambda res: [res.argmax_models[0], decode_model(1 << 3)])),
    ],
    "shot_sampling": [
        (0, "within_5_sigma", cli_edit(_set(("within_5_sigma",), False))),
        (0, "chi term not exact", cli_edit(_shift_term("chi_terms", "estimate", -1e-6))),
        (0, "chi term shots", cli_edit(_shift_term("chi_terms", "n_shots", -1))),
        (0, "correlator exact", cli_edit(_shift_term("s_terms", "exact", 1e-6))),
        (0, "correlator 6 sigma off", cli_edit(_shift_term("s_terms", "estimate", 6 * 0.03))),
        (0, "correlator shots", cli_edit(_shift_term("s_terms", "n_shots", 1))),
        (1, "record count", _records_edit(lambda rs: rs.pop())),
        (1, "record index", _records_edit(lambda rs: rs.__setitem__(3, rs[3]._replace(shot_index=0)))),
        (1, "record product", _records_edit(lambda rs: rs.__setitem__(
            0, rs[0]._replace(outcomes=(-rs[0].outcomes[0],) + rs[0].outcomes[1:])))),
        (1, "record correlator", _records_edit(_flip_bob)),
    ],
}


def _failed_checks(workload, outputs, index, output) -> list[str]:
    context: dict = {}
    for earlier in range(index):  # earlier operations fill the pass context
        workload.ops[earlier].check(outputs[earlier], context)
    try:
        checks = workload.ops[index].check(output, context)
    except Exception as exc:  # the worker counts a raising gate as failed too
        return [f"raised {type(exc).__name__}"]
    return [c.name for c in checks if not c.passed]


def check_gates() -> list[str]:
    problems = []
    for name, corruptions in CORRUPTIONS.items():
        workload = workloads.make(name, seed=7, tiny=True)
        outputs = [op.call() for op in workload.ops]
        for index in range(len(outputs)):
            failed = _failed_checks(workload, outputs, index, outputs[index])
            if failed:
                problems.append(f"{name} op {index}: true result fails {failed[:3]}")
        for index, what, corrupt in corruptions:
            failed = _failed_checks(workload, outputs, index, corrupt(copy.deepcopy(outputs[index])))
            status = "caught" if failed else "MISSED"
            print(f"gate {name} op {index} {what}: {status} ({', '.join(failed[:2])})")
            if not failed:
                problems.append(f"{name} op {index}: wrong {what} passed the gate")
    # Tiny runs skip the 2^24 scans, so the relaxed gate also gets a correct
    # hand-made payload, next to the wrong ones above.
    workload = workloads.make("hv_audit", seed=7, tiny=True)
    out = cli_edit(lambda r: r.update(relaxed=copy.deepcopy(RELAXED_OK)))(workload.ops[0].call())
    if any(not c.passed for c in workloads.check_hv_cli(out, {}, relaxed=True)):
        problems.append("hv_audit: correct relaxed payload fails the relaxed gate")
    return problems


def main() -> int:
    problems = check_contract() + check_gates() + check_runs()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("smoke check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
