"""CLI tests: exit codes, payload schemas, golden files, CSV round trips."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

import bellsquare.cli
from bellsquare import BoundResult, decode_model
from bellsquare.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


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

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_quantum_takes_no_variant(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["quantum", "--variant", "signed"])
        assert excinfo.value.code == 2

    def test_csv_outside_sweep_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["quantum", "--format", "csv"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "grid", ["0:2:0.5", "0:1:nan", "0:1:inf", "0.5:0.5000000000001:1e-14", "0:1:1e-9"]
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
        assert results["noncontextual_chi"]["max_value"] == 4.0
        assert results["first_measurement_chi"]["max_value"] == 4.0
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
        assert entry["matches_expected"] is True
        assert entry["witnesses"][0]["omega_signed"] == 8

    def test_relaxed_scan_reported(self, capsys):
        code, report = run_json(["hv-bound", "--variant", "signed", "--relaxed"], capsys)
        assert code == 0
        relaxed = report["results"]["relaxed"]["signed"]
        assert relaxed["max_value"] == 18.0
        assert relaxed["models_scanned"] == 2**24
        assert relaxed["leader_sharing_load_bearing"] is True


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


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["identities", "--out", str(target)])
        assert code == 0
        report = json.loads(target.read_text())
        assert report["command"] == "identities"
        assert capsys.readouterr().out == ""

    def test_env_dir_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BELLSQUARE_OUT", str(tmp_path))
        code = main(["identities"])
        assert code == 0
        report = json.loads((tmp_path / "identities.json").read_text())
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
        ],
    )
    def test_payload_matches_golden(self, name, argv, capsys):
        # Regenerate with: python tests/golden/regenerate.py
        _, report = run_json(argv, capsys)
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert strip_timing(report) == golden
