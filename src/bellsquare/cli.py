"""Command-line front end.

Subcommands:
    identities   operator-identity audit of the six sequences
    quantum      exact inequality values at a given visibility
    sample       seeded finite-shot estimates of all ingredients
    hv-bound     exhaustive hidden-variable bound scans
    sweep        inequality values over a visibility grid

Reports are JSON (CSV is available for the sweep table only).  All floats
are serialized with 12 significant digits.  Exit codes: 0 all checks
passed, 1 a physics check failed, 2 usage error (an option that the
library's own check refuses, ``sweep``'s for the ``--grid`` points, or an
unwritable report path).  When ``--out`` is not given and the environment
variable ``BELLSQUARE_OUT`` names a directory, the report is written there
as ``<command>.<format>``; otherwise it goes to stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from itertools import count, takewhile

from . import __version__
from .hv_models import (
    BoundResult,
    HVModel,
    bound_gap_report,
    chain_inequality_scan,
    evaluate_model,
    local_omega_bound,
    first_measurement_bound,
    noncontextual_chi_bound,
    relaxed_omega_scan,
)
from .inequality import (
    LOCAL_OMEGA_BOUND,
    MAX_GRID_POINTS,
    NONCONTEXTUAL_CHI_BOUND,
    _check_chi_expt,
    _check_grid,
    _check_shots,
    estimate_inequality,
    omega,
    sweep,
    visibility_threshold,
)
from .observables import CHI_SIGNS, OBSERVABLES, SEQUENCE_ORDER, mermin_square_check
from .states import _check_visibility, four_qubit_state

OUTPUT_DIR_ENV = "BELLSQUARE_OUT"

EXIT_PASS = 0
EXIT_PHYSICS_FAILURE = 1
EXIT_USAGE = 2

IDENTITY_MATRIX_TOL = 1e-12
CHI_CONSTANCY_TOL = 1e-9


# The inequality values of a report, in the order that the witness, sample
# and CSV payloads list them.
_VALUES = ("chi", "s_abs", "s_signed", "omega_abs", "omega_signed")
# The keys of a sweep row, in JSON and as CSV columns.
_SWEEP_COLUMNS = ("visibility", *_VALUES)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(value):
    """Recursively convert a payload, rounding floats to 12 significant digits;
    a non-finite float, which strict JSON cannot hold, becomes null."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _round12(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _model_payload(model: HVModel) -> dict:
    report = evaluate_model(model)
    return {
        "alice": {seq: [model.alice[seq, p] for p in (1, 2, 3)] for seq in SEQUENCE_ORDER},
        "bob": dict(model.bob),
        **{name: getattr(report, name) for name in _VALUES},
    }


def _bound_payload(result: BoundResult, expected: float) -> dict:
    """A scanned bound and its witnesses; ``matches_expected`` holds when the
    maximum equals ``expected`` and every witness attains the maximum."""
    witnesses, values = [], []
    for witness in result.argmax_models:
        if isinstance(witness, HVModel):
            payload = _model_payload(witness)
            values.append(payload[f"omega_{result.variant}"])
        else:
            payload = {"values": dict(witness.values), "chi": witness.chi()}
            values.append(payload["chi"])
        witnesses.append(payload)
    return {
        "variant": result.variant,
        "max_value": result.max_value,
        "models_scanned": result.models_scanned,
        "witnesses": witnesses,
        "expected": expected,
        "matches_expected": result.max_value == expected
        and all(value == result.max_value for value in values),
    }


def cmd_identities(args) -> tuple[dict, bool]:
    check = mermin_square_check()
    # Each product must carry its chi sign, so that every chi term is +1.
    passed = (
        check.products == CHI_SIGNS
        and check.max_matrix_deviation <= IDENTITY_MATRIX_TOL
        and check.chi_combination == 6.0
    )
    results = {
        "observables": {label: pauli.label for label, pauli in OBSERVABLES.items()},
        "sequence_products": check.products,
        "chi_sign_combination": check.chi_combination,
        "symbolic_vs_matrix_max_deviation": check.max_matrix_deviation,
        "all_triples_commute": True,  # mermin_square_check raises otherwise
    }
    return results, passed


def cmd_quantum(args) -> tuple[dict, bool]:
    v = args.visibility
    report = omega(four_qubit_state(v))
    results = {
        "visibility": v,
        "chi_terms": dict(report.chi_terms.terms),
        "s_terms": dict(report.s_terms.terms),
        "chi": report.chi,
        "chi_bound": NONCONTEXTUAL_CHI_BOUND,
        "chi_violated": report.chi_violated,
        "omega_bound": LOCAL_OMEGA_BOUND,
        "s_abs": report.s_abs,
        "omega_abs": report.omega_abs,
        "violated_abs": report.violated_abs,
        "s_signed": report.s_signed,
        "omega_signed": report.omega_signed,
        "violated_signed": report.violated_signed,
    }
    # Every correlator of this family is 0 or carries its ideal sign, so
    # both variants equal the paper's closed form (the engine is within
    # 1.1e-14 of it on [0, 1]).
    closed_form = 6.0 + 4.0 * v + 8.0 * v * v
    passed = report.chi == 6.0 and all(
        abs(value - closed_form) <= 1e-12 for value in (report.omega_signed, report.omega_abs)
    )
    return results, passed


def cmd_sample(args) -> tuple[dict, bool]:
    estimate = estimate_inequality(args.visibility, args.shots, args.seed)
    results = {
        "visibility": estimate.visibility,
        "shots_per_setting": estimate.shots_per_setting,
        "seed": estimate.seed,
        "chi_terms": {k: asdict(t) for k, t in estimate.chi_terms.items()},
        "s_terms": {k: asdict(t) for k, t in estimate.s_terms.items()},
        **{f"{name}_estimate": getattr(estimate.point, name) for name in _VALUES},
        "chi_exact": estimate.exact.chi,
        "omega_signed_exact": estimate.exact.omega_signed,
        "max_abs_z": estimate.max_abs_z,
        "within_5_sigma": estimate.within(5.0),
    }
    return results, estimate.within(5.0)


def cmd_hv_bound(args) -> tuple[dict, bool]:
    variants = ("signed", "abs") if args.variant == "both" else (args.variant,)
    # Each bound entry is gated by its matches_expected: its maximum and its witnesses.
    scans = {variant: local_omega_bound(variant) for variant in variants}
    expected = {"signed": LOCAL_OMEGA_BOUND, "abs": 18.0}
    results: dict = {"bounds": {v: _bound_payload(scans[v], expected[v]) for v in variants}}
    entries = list(results["bounds"].values())

    chain = chain_inequality_scan()
    results["chain_inequality"] = asdict(chain)
    passed = chain.all_hold

    if args.variant == "both":
        chi_b = noncontextual_chi_bound()
        first_mb = first_measurement_bound()
        results["noncontextual_chi"] = _bound_payload(chi_b, NONCONTEXTUAL_CHI_BOUND)
        results["first_measurement_chi"] = _bound_payload(first_mb, NONCONTEXTUAL_CHI_BOUND)
        entries += [results["noncontextual_chi"], results["first_measurement_chi"]]
        gap = bound_gap_report(
            chi_bound=chi_b,
            first_bound=first_mb,
            signed_bound=scans["signed"],
            abs_bound=scans["abs"],
        )
        results["gap_report"] = asdict(gap)
        passed &= gap.gaps_equal

    if args.relaxed:
        # Superset scan: dropping leader sharing frees the six sequence
        # products from each other, so the signed bound rises to the
        # quantum value.  Both maxima are 18, and gated at it.
        for variant in variants:
            relaxed = relaxed_omega_scan(variant)
            entry = {
                **_bound_payload(relaxed, 18.0),
                "leader_sharing_load_bearing": relaxed.max_value > scans[variant].max_value,
            }
            results.setdefault("relaxed", {})[variant] = entry
            entries.append(entry)

    passed &= all(entry["matches_expected"] for entry in entries)
    return results, passed


def cmd_sweep(args) -> tuple[dict, bool]:
    result = sweep(args.grid_points)  # parsed and checked once, by _validate
    rows = [{"visibility": v, **{name: getattr(r, name) for name in _VALUES}}
            for v, r in zip(result.grid, result.reports)]
    chi_measured = result.reports[0].chi
    results = {
        "rows": rows,
        "crossing_bracket": list(result.crossing_bracket) if result.crossing_bracket else None,
        "crossing": result.crossing,
        "chi_measured": chi_measured,
        "threshold_for_measured_chi": visibility_threshold(chi_measured),
    }
    if args.chi_expt is not None:
        results["chi_expt"] = args.chi_expt
        results["threshold_for_chi_expt"] = visibility_threshold(args.chi_expt)

    chi_constant = all(abs(r.chi - chi_measured) <= CHI_CONSTANCY_TOL for r in result.reports)
    omegas = [r.omega_signed for r in result.reports]
    monotone = all(b >= a - 1e-12 for a, b in zip(omegas, omegas[1:]))
    results["chi_constant"] = chi_constant
    results["omega_signed_monotone"] = monotone
    return results, chi_constant and monotone


def _sweep_csv(results: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in results["rows"]:
        writer.writerow([f"{row[c]:.12g}" for c in _SWEEP_COLUMNS])
    return buffer.getvalue()


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"grid parts must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if not start < stop:
        raise ValueError(f"grid must satisfy start < stop, got {text!r}")
    # With a slack over half a step the points below would clamp whole steps to stop.
    # They are floor(this) + 1, then stop if the last falls short.
    slack = min(1e-12, step / 2)
    if (stop + slack - start) / step >= MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    points = takewhile(lambda v: v <= stop + slack, (start + i * step for i in count()))
    values = [_round12(min(v, stop)) for v in points]
    if values[-1] < stop - slack:
        values.append(stop)
    return values


_COMMANDS = {
    "identities": cmd_identities,
    "quantum": cmd_quantum,
    "sample": cmd_sample,
    "hv-bound": cmd_hv_bound,
    "sweep": cmd_sweep,
}


def _option(parse, check):
    """An argparse ``type=`` that parses an option's text with ``parse`` and
    applies the library's ``check``; its ``ValueError`` is a usage error."""
    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one;
    ``parse_args`` returns a fresh namespace each time, so calls share no values."""
    parser = argparse.ArgumentParser(
        prog="bellsquare",
        description="Exact quantum predictions and exhaustive classical bounds "
        "for the sequential-measurement Bell test.",
    )
    parser.add_argument("--version", action="version", version=f"bellsquare {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p, formats=("json",)):
        p.add_argument("--format", choices=formats, default="json", help="report format")
        p.add_argument("--out", help="output file path (default: env BELLSQUARE_OUT dir or stdout)")

    p = sub.add_parser("identities", help="operator-identity audit")
    add_output_flags(p)

    visibility = _option(float, _check_visibility)
    p = sub.add_parser("quantum", help="exact inequality values at a visibility")
    p.add_argument("--visibility", type=visibility, default=1.0)
    add_output_flags(p)

    p = sub.add_parser("sample", help="seeded finite-shot estimates")
    p.add_argument("--visibility", type=visibility, default=1.0)
    p.add_argument("--shots", type=_option(int, _check_shots), default=1_000_000,
                   help="shots per (sequence, Bob observable) setting")
    p.add_argument("--seed", type=int, default=42)
    add_output_flags(p)

    p = sub.add_parser("hv-bound", help="exhaustive hidden-variable bound scans")
    p.add_argument("--variant", choices=["abs", "signed", "both"], default="both")
    p.add_argument("--relaxed", action="store_true",
                   help="also run the 2^24 scan without leader sharing")
    add_output_flags(p)

    p = sub.add_parser("sweep", help="inequality values over a visibility grid")
    p.add_argument("--grid", default="0:1:0.01", help="start:stop:step in [0, 1]")
    p.add_argument("--chi-expt", type=_option(float, _check_chi_expt), default=None,
                   help="observed chi value for an extra threshold entry")
    add_output_flags(p, formats=("json", "csv"))
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "sweep":
        try:
            args.grid_points = _check_grid(_parse_grid(args.grid))
        except ValueError as exc:
            parser.error(f"argument --grid: {exc}")


def _config_echo(args) -> dict:
    """The command and its set options in parser order; ``grid_points`` comes from ``grid``."""
    return {key: value for key, value in vars(args).items()
            if value is not None and key != "grid_points"}


def _emit(text: str, args) -> None:
    path = args.out
    if path is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV)
        if out_dir:
            extension = args.format
            path = os.path.join(out_dir, f"{args.command}.{extension}")
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"report written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)

    started = time.perf_counter()
    results, passed = _COMMANDS[args.command](args)
    elapsed = time.perf_counter() - started

    if args.format == "csv":
        text = _sweep_csv(results)
    else:
        report = {
            "tool": "bellsquare",
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args),
            "passed": passed,
            "results": results,
            "elapsed_seconds": elapsed,
        }
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    try:
        _emit(text, args)
    except OSError as exc:  # an unwritable --out or BELLSQUARE_OUT path; exc names it
        print(f"bellsquare: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if passed else EXIT_PHYSICS_FAILURE


if __name__ == "__main__":
    sys.exit(main())
