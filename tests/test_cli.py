"""CLI tests: exit codes, payload schemas, golden files, CSV round trips."""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

import bellsquare.cli
from bellsquare import (
    SEQUENCE_ORDER, BoundResult, NoncontextualAssignment, decode_model, estimate_inequality)
from bellsquare.observables import SquareCheck
from bellsquare.cli import main
from bellsquare.inequality import _report, omega

GOLDEN_DIR = Path(__file__).parent / "golden"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_loads(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, strict_loads(captured.out)


def strip_timing(report: dict) -> dict:
    report = dict(report)
    report.pop("elapsed_seconds", None)
    return report


class TestExitCodes:
    def test_identities_passes(self, capsys):
        code, report = run_json(["identities"], capsys)
        assert code == 0
        assert report["passed"] is True

    def test_bad_visibility_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["quantum", "--visibility", "1.5"])
        assert excinfo.value.code == 2

    def test_zero_shots_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--shots", "0"])
        assert excinfo.value.code == 2

    def test_shots_past_the_stream_are_usage_error(self, capsys, monkeypatch):
        def uncounted(*args):
            raise AssertionError("the counting pass ran")

        monkeypatch.setattr(bellsquare.inequality, "_count_settings", uncounted)
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--shots", str(2**64)])
        assert excinfo.value.code == 2
        assert "argument --shots: " in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_quantum_takes_no_variant(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["quantum", "--variant", "signed"])
        assert excinfo.value.code == 2

    def test_csv_outside_sweep_is_usage_error(self, capsys):
        for command in ("identities", "quantum", "sample", "hv-bound"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--format", "csv"])
            assert excinfo.value.code == 2
            assert "argument --format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--chi-expt", "7"], id="chi-expt-7"),
        pytest.param(["quantum", "--visibility", "nan"], id="quantum-visibility-nan"),
        pytest.param(["sample", "--visibility", "nan"], id="sample-visibility-nan"),
        pytest.param(["sample", "--shots", "-3"], id="shots-minus-3"),
    ])
    def test_option_outside_its_range_is_usage_error(self, capsys, monkeypatch, argv):
        # The parser rejects the option before any command runs.
        monkeypatch.setitem(bellsquare.cli._COMMANDS, argv[0], None)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[1]}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", ["0:2:0.5", "0:1:nan", "0:1:inf", "0.5:0.5000000000001:1e-14", "0:1:1e-9",
                 "-0.5:1:0.5", "1:0:0.5", "0:1", "0:1:x"]
    )
    def test_bad_grid_is_usage_error(self, capsys, grid):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", grid])
        assert excinfo.value.code == 2


class TestIdentities:
    def test_payload(self, capsys):
        _, report = run_json(["identities"], capsys)
        results = report["results"]
        assert results["sequence_products"] == {
            "ABC": 1, "bac": 1, "γβα": 1, "Aaα": 1, "bBβ": 1, "γcC": -1,
        }
        assert results["chi_sign_combination"] == 6.0
        assert len(results["observables"]) == 15
        assert results["symbolic_vs_matrix_max_deviation"] <= 1e-12

    @pytest.mark.parametrize("check", [
        # The γcC product comes out +1, so the chi combination is 4.
        SquareCheck(products=dict.fromkeys(SEQUENCE_ORDER, 1), chi_combination=4.0,
                    max_matrix_deviation=0.0),
        # Right signs, but the matrix products miss the identity by 1e-9.
        SquareCheck(products={**dict.fromkeys(SEQUENCE_ORDER, 1), "γcC": -1},
                    chi_combination=6.0, max_matrix_deviation=1e-9),
    ])
    def test_failed_check_exits_one(self, capsys, monkeypatch, check):
        monkeypatch.setattr(bellsquare.cli, "mermin_square_check", lambda: check)
        code, report = run_json(["identities"], capsys)
        assert code == 1
        assert report["passed"] is False


class TestQuantum:
    def test_ideal(self, capsys):
        code, report = run_json(["quantum", "--visibility", "1"], capsys)
        assert code == 0
        results = report["results"]
        assert results["omega_signed"] == pytest.approx(18.0, abs=1e-9)
        assert results["violated_signed"] is True

    def test_visibility_093(self, capsys):
        _, report = run_json(["quantum", "--visibility", "0.93"], capsys)
        results = report["results"]
        expected = 6 + 4 * 0.93 + 8 * 0.93**2  # 16.6392
        assert results["omega_signed"] == pytest.approx(expected, abs=1e-9)
        assert results["violated_signed"] is True
        # Both variants, always: on Werner states they are the same number.
        assert results["omega_abs"] == pytest.approx(expected, abs=1e-9)
        assert results["violated_abs"] is True

    def test_visibility_05_not_violated(self, capsys):
        _, report = run_json(["quantum", "--visibility", "0.5"], capsys)
        results = report["results"]
        assert results["omega_signed"] == pytest.approx(10.0, abs=1e-9)
        assert results["violated_signed"] is False

    def test_correlator_off_the_closed_form_fails(self, capsys, monkeypatch):
        # One correlator 1e-6 off: omega = chi + S still holds, the closed form does not.
        def shifted(rho):
            true = omega(rho)
            s_terms = {**true.s_terms.terms, "BB'|ABC": true.s_terms.terms["BB'|ABC"] + 1e-6}
            return _report(dict(true.chi_terms.terms), s_terms)

        monkeypatch.setattr(bellsquare.cli, "omega", shifted)
        code, report = run_json(["quantum", "--visibility", "0.93"], capsys)
        assert code == 1
        assert report["passed"] is False


class TestSample:
    def test_small_run_passes_and_repeats(self, capsys):
        argv = ["sample", "--shots", "2000", "--seed", "42", "--visibility", "0.9"]
        code1, report1 = run_json(argv, capsys)
        code2, report2 = run_json(argv, capsys)
        assert code1 == code2 == 0
        assert strip_timing(report1) == strip_timing(report2)
        assert report1["results"]["within_5_sigma"] is True

    def test_estimates_track_exact(self, capsys):
        _, report = run_json(
            ["sample", "--shots", "5000", "--seed", "7", "--visibility", "1"], capsys
        )
        results = report["results"]
        assert results["omega_signed_estimate"] == 18.0
        assert results["omega_signed_exact"] == pytest.approx(18.0, abs=1e-9)

    def test_infinite_z_is_null(self, capsys, monkeypatch):
        # A χ term has σ = 0, so one shot off its exact ±1 gives z = ∞,
        # which strict JSON cannot hold: the report writes null and fails.
        def one_shot_off(visibility, shots, seed):
            estimate = estimate_inequality(visibility, shots, seed)
            term = estimate.chi_terms["ABC"]
            off = dataclasses.replace(term, estimate=term.estimate - 2 / term.n_shots)
            return dataclasses.replace(estimate, chi_terms={**estimate.chi_terms, "ABC": off})

        monkeypatch.setattr(bellsquare.cli, "estimate_inequality", one_shot_off)
        code, report = run_json(["sample", "--shots", "2000", "--seed", "7"], capsys)
        assert code == 1
        results = report["results"]
        assert results["max_abs_z"] is None
        assert results["chi_terms"]["ABC"]["z_score"] is None
        assert results["within_5_sigma"] is False


class TestHvBound:
    def test_signed(self, capsys):
        code, report = run_json(["hv-bound", "--variant", "signed"], capsys)
        assert code == 0
        entry = report["results"]["bounds"]["signed"]
        assert entry["max_value"] == 16.0
        assert entry["models_scanned"] == 2097152
        assert entry["witnesses"][0]["omega_signed"] == 16
        assert report["results"]["chain_inequality"]["all_hold"] is True

    def test_both_includes_gap_report(self, capsys):
        code, report = run_json(["hv-bound", "--variant", "both"], capsys)
        assert code == 0
        results = report["results"]
        assert results["bounds"]["abs"]["max_value"] == 18.0
        for key in ("noncontextual_chi", "first_measurement_chi"):
            assert results[key]["max_value"] == results[key]["expected"] == 4.0
            assert results[key]["matches_expected"] is True
        gap = results["gap_report"]
        assert gap["chi_gap"] == pytest.approx(2.0, abs=1e-9)
        assert gap["signed_gap"] == pytest.approx(2.0, abs=1e-9)
        assert gap["gaps_equal"] is True
        assert gap["abs_variant_reaches_quantum_value"] is True

    def test_wrong_witness_is_physics_failure(self, capsys, monkeypatch):
        # The bound matches but its witness reaches only omega_signed = 8.
        bogus = BoundResult("signed", 16.0, (decode_model(0),), 2**21)
        monkeypatch.setattr(bellsquare.cli, "local_omega_bound", lambda variant: bogus)
        code, report = run_json(["hv-bound", "--variant", "signed"], capsys)
        assert code == 1
        assert report["passed"] is False
        entry = report["results"]["bounds"]["signed"]
        assert entry["matches_expected"] is False
        assert entry["witnesses"][0]["omega_signed"] == 8

    def test_wrong_context_free_bound_is_physics_failure(self, capsys, monkeypatch):
        real = bellsquare.cli.first_measurement_bound()
        bogus = dataclasses.replace(real, max_value=5.0)
        monkeypatch.setattr(bellsquare.cli, "first_measurement_bound", lambda: bogus)
        code, report = run_json(["hv-bound", "--variant", "both"], capsys)
        assert code == 1
        results = report["results"]
        assert results["first_measurement_chi"]["matches_expected"] is False
        assert results["noncontextual_chi"]["matches_expected"] is True

    def test_wrong_context_free_witness_is_physics_failure(self, capsys, monkeypatch):
        # The bound is 4, but its witness with A flipped reaches only chi = 0.
        real = bellsquare.cli.noncontextual_chi_bound()
        values = {**real.argmax_models[0].values, "A": -real.argmax_models[0].values["A"]}
        bogus = dataclasses.replace(real, argmax_models=(NoncontextualAssignment(values),))
        monkeypatch.setattr(bellsquare.cli, "noncontextual_chi_bound", lambda: bogus)
        code, report = run_json(["hv-bound", "--variant", "both"], capsys)
        assert code == 1
        assert report["passed"] is False
        results = report["results"]
        assert results["noncontextual_chi"]["max_value"] == 4.0
        assert results["noncontextual_chi"]["witnesses"] == [{"values": values, "chi": 0.0}]
        assert results["noncontextual_chi"]["matches_expected"] is False
        others = [*results["bounds"].values(), results["first_measurement_chi"]]
        assert all(entry["matches_expected"] is True for entry in others)

    def test_relaxed_scan_reported(self, capsys):
        code, report = run_json(["hv-bound", "--variant", "signed", "--relaxed"], capsys)
        assert code == 0
        relaxed = report["results"]["relaxed"]["signed"]
        assert relaxed["max_value"] == 18.0
        assert relaxed["models_scanned"] == 2**24
        assert relaxed["leader_sharing_load_bearing"] is True

    @pytest.mark.parametrize("variant", ["signed", "abs"])
    def test_wrong_relaxed_maximum_is_physics_failure(self, capsys, monkeypatch, variant):
        bogus = BoundResult(variant, 17.0, (), 2**24)
        monkeypatch.setattr(bellsquare.cli, "relaxed_omega_scan", lambda variant: bogus)
        code, report = run_json(["hv-bound", "--variant", variant, "--relaxed"], capsys)
        assert code == 1
        assert report["passed"] is False
        assert report["results"]["bounds"][variant]["matches_expected"] is True
        entry = report["results"]["relaxed"][variant]
        assert entry["max_value"] == 17.0 and entry["expected"] == 18.0
        assert entry["matches_expected"] is False


class TestSweep:
    def test_json_payload(self, capsys):
        _, report = run_json(
            ["sweep", "--grid", "0:1:0.25", "--chi-expt", "5.30"], capsys
        )
        results = report["results"]
        omegas = [row["omega_signed"] for row in results["rows"]]
        assert omegas[0] == pytest.approx(6.0, abs=1e-9)
        assert omegas[-1] == pytest.approx(18.0, abs=1e-9)
        assert results["crossing"] == pytest.approx((math.sqrt(21) - 1) / 4, abs=1e-6)
        assert results["threshold_for_chi_expt"] == pytest.approx(0.9332159566, abs=1e-9)
        assert results["threshold_for_measured_chi"] == pytest.approx(0.8956439237, abs=1e-9)
        assert results["chi_constant"] is True

    def test_csv_round_trip(self, capsys):
        code = main(["sweep", "--grid", "0:1:0.25", "--format", "csv"])
        csv_text = capsys.readouterr().out
        code2, report = run_json(["sweep", "--grid", "0:1:0.25"], capsys)
        assert code == code2 == 0

        parsed = list(csv.DictReader(io.StringIO(csv_text)))
        rows = report["results"]["rows"]
        assert len(parsed) == len(rows) == 5
        for got, want in zip(parsed, rows):
            for column, value in want.items():
                # 12-significant-digit serialization round-trips exactly.
                assert float(got[column]) == value

    def test_grid_endpoint_inclusion(self, capsys):
        _, report = run_json(["sweep", "--grid", "0:1:0.3"], capsys)
        grid = [row["visibility"] for row in report["results"]["rows"]]
        assert grid == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_grid_step_below_slack(self, capsys):
        # A step far below the 1e-12 endpoint slack still gives distinct points.
        _, report = run_json(["sweep", "--grid", "0:1e-13:1e-14"], capsys)
        grid = [row["visibility"] for row in report["results"]["rows"]]
        assert grid == [i * 1e-14 for i in range(10)] + [1e-13]


class TestParserReuse:
    # quantum, sweep, a usage error, --version and quantum again, in one process.
    CALLS = [
        ["quantum", "--visibility", "0.3"],
        ["sweep", "--grid", "0.85:0.95:0.05"],
        ["quantum", "--visibility", "1.5"],
        ["--version"],
        ["quantum", "--visibility", "0.9"],
    ]

    @staticmethod
    def outcome(argv, capsys):
        """Exit code, stdout (a report without ``elapsed_seconds``) and stderr of one call."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = strip_timing(strict_loads(captured.out)) if captured.out.startswith("{") else captured.out
        return code, out, captured.err

    def test_calls_in_one_process_match_lone_calls(self, capsys):
        in_turn = [self.outcome(argv, capsys) for argv in self.CALLS]
        lone = []
        for argv in self.CALLS:
            bellsquare.cli._build_parser.cache_clear()  # as in a fresh process
            lone.append(self.outcome(argv, capsys))
        assert in_turn == lone
        assert [code for code, _, _ in in_turn] == [0, 0, 2, 0, 0]
        assert in_turn[3][1] == f"bellsquare {bellsquare.__version__}\n"

    def test_parser_built_once(self):
        assert bellsquare.cli._build_parser() is bellsquare.cli._build_parser()

    def test_no_namespace_value_carries_over(self, capsys, monkeypatch):
        seen = []

        def spy(command):
            def run(args):
                seen.append(vars(args).copy())
                return command(args)
            return run

        for name in ("sweep", "quantum"):
            monkeypatch.setitem(bellsquare.cli._COMMANDS, name, spy(bellsquare.cli._COMMANDS[name]))
        for argv in (["sweep", "--grid", "0.85:0.95:0.05", "--chi-expt", "5.3"],
                     ["quantum", "--visibility", "0.9"],
                     ["sweep", "--grid", "0:1:0.5"]):
            assert main(argv) == 0
        capsys.readouterr()
        output = {"format": "json", "out": None}
        assert seen == [
            {"command": "sweep", "grid": "0.85:0.95:0.05", "chi_expt": 5.3, **output,
             "grid_points": (0.85, 0.9, 0.95)},
            {"command": "quantum", "visibility": 0.9, **output},
            {"command": "sweep", "grid": "0:1:0.5", "chi_expt": None, **output,
             "grid_points": (0.0, 0.5, 1.0)},
        ]


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["identities", "--out", str(target)])
        assert code == 0
        report = strict_loads(target.read_text())
        assert report["command"] == "identities"
        assert capsys.readouterr().out == ""

    def test_env_dir_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BELLSQUARE_OUT", str(tmp_path))
        code = main(["identities"])
        assert code == 0
        report = strict_loads((tmp_path / "identities.json").read_text())
        assert report["passed"] is True

    def test_out_flag_on_directory_is_usage_error(self, tmp_path, capsys):
        code = main(["identities", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(tmp_path) in err and len(err.splitlines()) == 1

    def test_env_dir_on_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("BELLSQUARE_OUT", str(not_a_dir))
        code = main(["identities"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(not_a_dir) in err and len(err.splitlines()) == 1


class TestGolden:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("identities", ["identities"]),
            ("quantum_v05", ["quantum", "--visibility", "0.5"]),
            ("hv_bound_signed", ["hv-bound", "--variant", "signed"]),
            ("sweep_small", ["sweep", "--grid", "0:1:0.25"]),
            ("sample_small", ["sample", "--shots", "2000", "--seed", "7", "--visibility", "0.9"]),
            ("hv_bound_both", ["hv-bound", "--variant", "both"]),
        ],
    )
    def test_payload_matches_golden(self, name, argv, capsys):
        # Regenerate with: python tests/golden/regenerate.py
        _, report = run_json(argv, capsys)
        golden = strict_loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert strip_timing(report) == golden

    def test_csv_matches_golden(self, capsys):
        # Compared as text, so the column order and number format are pinned.
        assert main(["sweep", "--grid", "0:1:0.25", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "sweep_small.csv").read_text()
