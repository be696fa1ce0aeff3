"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import bellsquare as bs

from conftest import random_density_matrix


@contextlib.contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_1_operator_identities():
    with criterion(1, "operator identities"):
        started = time.perf_counter()
        expected = {"ABC": 1, "bac": 1, "γβα": 1, "Aaα": 1, "bBβ": 1, "γcC": -1}

        # Symbolic route.
        products = {}
        for name, labels in bs.SEQUENCES.items():
            prod = bs.pauli_product(bs.OBSERVABLES[lab] for lab in labels)
            assert prod.x_mask == 0 and prod.z_mask == 0
            products[name] = int(prod.phase.real)
        assert products == expected

        # Matrix route, entrywise within 1e-12.
        for name, labels in bs.SEQUENCES.items():
            numeric = np.eye(16, dtype=complex)
            for lab in labels:
                numeric = numeric @ bs.to_matrix(bs.OBSERVABLES[lab])
            assert np.max(np.abs(numeric - expected[name] * np.eye(16))) <= 1e-12

        check = bs.mermin_square_check()
        assert check.products == expected
        assert check.max_matrix_deviation <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_quantum_correlations():
    with criterion(2, "quantum correlations at V=1"):
        started = time.perf_counter()
        rho = bs.four_qubit_state(1.0)
        signs = {"B": -1, "C": 1, "a": -1, "c": 1, "α": 1, "β": 1}

        # Global expectations of the six products.
        for alice, sign in signs.items():
            bob = alice + "'"
            pair = bs.pauli_mul(bs.OBSERVABLES[alice], bs.OBSERVABLES[bob])
            assert bs.expectation(rho, pair) == pytest.approx(sign, abs=1e-10)

        # Per-sequence, from each setting's joint distribution: all twelve entries.
        s_terms = bs.omega(rho).s_terms
        for term in bs.S_TERMS:
            value = s_terms.terms[term.key]
            assert abs(value) == pytest.approx(1.0, abs=1e-10)
            assert value == pytest.approx(signs[term.alice], abs=1e-10)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_quantum_inequality_values():
    with criterion(3, "chi = 6 and omega = 18, state independence"):
        report = bs.omega(bs.four_qubit_state(1.0))
        assert report.chi == pytest.approx(6.0, abs=1e-9)
        assert report.omega_signed == pytest.approx(18.0, abs=1e-9)
        assert report.omega_abs == pytest.approx(18.0, abs=1e-9)

        rng = np.random.default_rng(314159)
        for _ in range(100):
            rho = bs.DensityState(
                np.kron(random_density_matrix(rng, 4), random_density_matrix(rng, 4))
            )
            assert bs.omega(rho).chi == pytest.approx(6.0, abs=1e-9)


def test_criterion_4_classical_bounds_by_exhaustive_scan():
    with criterion(4, "classical bounds 4 / 4 / 16 by exhaustive scan"):
        chi_bound = bs.noncontextual_chi_bound()
        assert chi_bound.max_value == 4.0
        assert chi_bound.models_scanned == 512

        first_mb = bs.first_measurement_bound()
        assert first_mb.max_value == 4.0
        assert first_mb.models_scanned == 512

        started = time.perf_counter()
        signed = bs.local_omega_bound("signed", workers=1)
        single_threaded = time.perf_counter() - started
        assert signed.max_value == 16.0
        assert signed.models_scanned == 2**21
        assert len(signed.argmax_models) >= 1
        assert bs.evaluate_model(signed.argmax_models[0]).omega_signed == 16
        assert single_threaded < 60.0

        for workers in (2, 8):
            parallel = bs.local_omega_bound("signed", workers=workers)
            assert parallel.max_value == signed.max_value
            assert [bs.encode_model(m) for m in parallel.argmax_models] == [
                bs.encode_model(m) for m in signed.argmax_models
            ]


def test_criterion_5_abs_variant_audit():
    with criterion(5, "abs-variant bound 18, chain check, surfaced discrepancy"):
        abs_bound = bs.local_omega_bound("abs")
        assert abs_bound.max_value == 18.0
        witness = abs_bound.argmax_models[0]
        evaluation = bs.evaluate_model(witness)
        assert evaluation.omega_abs == 18
        assert evaluation.chi == 6 and evaluation.s_abs == 12

        chain = bs.chain_inequality_scan()
        assert chain.all_hold and chain.identities_hold
        assert chain.cases_checked == 192

        gap = bs.bound_gap_report(
            bs.noncontextual_chi_bound(),
            bs.first_measurement_bound(),
            bs.local_omega_bound("signed"),
            abs_bound,
        )
        assert gap.abs_gap == pytest.approx(0.0, abs=1e-9)
        assert gap.abs_variant_reaches_quantum_value
        assert gap.note  # the discrepancy is stated, not silently resolved


def test_criterion_6_visibility_threshold():
    with criterion(6, "visibility thresholds and fidelity"):
        root = (math.sqrt(21) - 1) / 4
        assert bs.visibility_threshold(6.0) == pytest.approx(root, abs=1e-12)

        crossing = bs.find_violation_threshold()
        assert crossing == pytest.approx(bs.visibility_threshold(6.0), abs=1e-6)

        assert 0.930 <= bs.visibility_threshold(5.30) <= 0.934
        assert 0.969 <= bs.visibility_threshold(4.59) <= 0.971
        assert round(bs.fidelity_from_visibility(0.97), 2) == 0.99


def test_criterion_7_no_signaling():
    with criterion(7, "no-signaling across Alice sequences"):
        for visibility in (0.0, 0.5, 1.0):
            rho = bs.four_qubit_state(visibility)
            for bob in bs.BOB_LABELS:
                marginals = [
                    bs.bob_marginal(
                        bs.sequence_distribution(rho, bs.SequenceSpec(name, bob))
                    )
                    for name in bs.SEQUENCE_ORDER
                ]
                for marginal in marginals[1:]:
                    assert marginal[1] == pytest.approx(marginals[0][1], abs=1e-10)
                    assert marginal[-1] == pytest.approx(marginals[0][-1], abs=1e-10)


def test_criterion_8_sampling_fidelity():
    with criterion(8, "sampling fidelity at one million shots"):
        started = time.perf_counter()
        shots = 1_000_000

        ideal = bs.estimate_inequality(1.0, shots, seed=42)
        assert ideal.within(5.0)
        sigma_omega = math.sqrt(sum(t.sigma**2 for t in ideal.s_terms.values()))
        assert abs(ideal.point.omega_signed - 18.0) <= max(5 * sigma_omega, 1e-9)

        noisy = bs.estimate_inequality(0.9, shots, seed=42)
        assert noisy.within(5.0)

        rerun = bs.estimate_inequality(0.9, shots, seed=42)
        assert all(
            rerun.s_terms[k].estimate == noisy.s_terms[k].estimate
            for k in noisy.s_terms
        )
        assert all(
            rerun.chi_terms[k].estimate == noisy.chi_terms[k].estimate
            for k in noisy.chi_terms
        )
        assert rerun.point == noisy.point
        assert time.perf_counter() - started < 30.0
