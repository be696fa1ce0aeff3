"""Tests for inequality assembly, thresholds and sampled estimates."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsquare import (
    CHI_SIGNS,
    DensityState,
    PAIR_SIGNS,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    estimate_inequality,
    fidelity_from_visibility,
    find_violation_threshold,
    four_qubit_state,
    omega,
    sweep,
    visibility_threshold,
    werner_pair,
)

from conftest import (
    LETTER_DEFS,
    oracle_matrix,
    oracle_omega_via_distributions,
    oracle_sampled_inequality,
    random_density_matrix,
    seeded_state,
)

ROOT_V = (math.sqrt(21) - 1) / 4  # visibility where signed omega reaches 16


class TestChi:
    def test_ideal_state(self, ideal_state):
        terms = omega(ideal_state).chi_terms
        assert terms.chi == pytest.approx(6.0, abs=1e-9)
        for name in SEQUENCE_ORDER:
            expected = -1.0 if name == "γcC" else 1.0
            assert terms.terms[name] == pytest.approx(expected, abs=1e-10)

    def test_maximally_mixed_state(self, mixed_state):
        assert omega(mixed_state).chi == pytest.approx(6.0, abs=1e-9)

    def test_state_independence_random_products(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            rho = DensityState(
                np.kron(random_density_matrix(rng, 4), random_density_matrix(rng, 4))
            )
            assert omega(rho).chi == pytest.approx(6.0, abs=1e-9)


class TestS:
    def test_ideal_state_both_variants(self, ideal_state):
        report = omega(ideal_state)
        for total in (report.s_abs, report.s_signed):
            assert total == pytest.approx(12.0, abs=1e-9)

    def test_terms_have_quantum_signs(self, ideal_state):
        s_terms = omega(ideal_state).s_terms
        for term in S_TERMS:
            assert s_terms.terms[term.key] == pytest.approx(PAIR_SIGNS[term.alice], abs=1e-10)

    def test_mixed_state(self, mixed_state):
        report = omega(mixed_state)
        for total in (report.s_abs, report.s_signed):
            assert total == pytest.approx(0.0, abs=1e-10)

    def test_signed_at_09(self):
        total = omega(four_qubit_state(0.9)).s_signed
        assert total == pytest.approx(4 * 0.9 + 8 * 0.9**2, abs=1e-9)  # 10.08

    def test_signed_polynomial_on_grid(self):
        for v in (0.0, 0.25, 0.5, 0.75, 1.0):
            total = omega(four_qubit_state(v)).s_signed
            assert total == pytest.approx(4 * v + 8 * v * v, abs=1e-9)


class TestOmega:
    def test_ideal_state(self, ideal_state):
        report = omega(ideal_state)
        assert report.omega_signed == pytest.approx(18.0, abs=1e-9)
        assert report.omega_abs == pytest.approx(18.0, abs=1e-9)
        assert report.violated_signed and report.violated_abs and report.chi_violated

    def test_mixed_state(self, mixed_state):
        report = omega(mixed_state)
        assert report.omega_signed == pytest.approx(6.0, abs=1e-9)
        assert not report.violated_signed

    def test_at_crossing_visibility(self):
        report = omega(four_qubit_state(ROOT_V))
        assert report.omega_signed == pytest.approx(16.0, abs=1e-9)

    def test_omega_equals_chi_plus_s(self):
        for v in (0.3, 0.8):
            report = omega(four_qubit_state(v))
            assert report.omega_abs == report.chi + report.s_abs
            assert report.omega_signed == report.chi + report.s_signed


    @pytest.mark.parametrize(
        "kind, param",
        [pytest.param("werner", v, id=str(v)) for v in (0.0, 0.5, 0.9, 1.0)]
        + [pytest.param("full_rank", s, id=f"full_rank-{s}") for s in range(31, 41)]
        + [pytest.param("pure", s, id=f"pure-{s}") for s in range(41, 51)],
    )
    def test_matches_distribution_oracle(self, kind, param):
        rho = seeded_state(kind, param)
        report = omega(rho)
        want = oracle_omega_via_distributions(rho)
        for name in SEQUENCE_ORDER:
            assert report.chi_terms.terms[name] == pytest.approx(want["chi_terms"][name], abs=1e-12)
        for term in S_TERMS:
            assert report.s_terms.terms[term.key] == pytest.approx(want["s_terms"][term.key], abs=1e-12)
        assert report.omega_abs == pytest.approx(want["omega_abs"], abs=1e-12)
        assert report.omega_signed == pytest.approx(want["omega_signed"], abs=1e-12)

    def test_rejects_state_not_on_four_qubits(self):
        rho = werner_pair(0.5)
        with pytest.raises(ValueError, match="sequences are defined on 4 qubits"):
            omega(rho)

    def test_imaginary_correlator_raises(self):
        # An anti-Hermitian part within the state's Hermiticity tolerance
        # per entry still adds up to a correlator imaginary part of 6.4e-10.
        bb = oracle_matrix("B") @ oracle_matrix("B'")
        rho = DensityState(np.eye(16) / 16 + 4e-11j * bb)
        with pytest.raises(RuntimeError, match="imaginary part"):
            omega(rho)


class TestOmegaProperties:
    """The Pauli-expectation engine on random states, against the
    distribution route; a fixed example seed and no deadline keep the
    draws deterministic."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["full_rank", "pure"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_distribution_oracle(self, kind, seed):
        rho = seeded_state(kind, seed)
        report = omega(rho)
        assert report.chi == 6.0
        want = oracle_omega_via_distributions(rho)
        for name in SEQUENCE_ORDER:
            assert abs(report.chi_terms.terms[name] - want["chi_terms"][name]) <= 1e-12
        for term in S_TERMS:
            assert abs(report.s_terms.terms[term.key] - want["s_terms"][term.key]) <= 1e-12
        assert abs(report.omega_abs - want["omega_abs"]) <= 1e-12
        assert abs(report.omega_signed - want["omega_signed"]) <= 1e-12


# Real integer letter tables.  Y = i·W with W = XZ, so the one complex
# observable γ = YY equals -W⊗W and every matrix below stays real.
_INT_LETTER = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Z": ((1, 0), (0, -1)),
    "W": ((0, -1), (1, 0)),
}
_RADICAND = 21  # Q(sqrt 21) elements are pairs (a, b) meaning a + b * sqrt(21)


def _int_matrix(label: str) -> list[list[int]]:
    letters = LETTER_DEFS[label]
    n_y = letters.count("Y")
    assert n_y % 2 == 0
    sign = (-1) ** (n_y // 2)
    tables = [_INT_LETTER["W" if ch == "Y" else ch] for ch in letters]
    return [
        [sign * math.prod(t[(i >> (3 - q)) & 1][(j >> (3 - q)) & 1] for q, t in enumerate(tables))
         for j in range(16)]
        for i in range(16)
    ]


def _int_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(16)) for j in range(16)] for i in range(16)]


def _exact_four_qubit_state(v: Fraction) -> list[list[Fraction]]:
    """Noisy singlets on qubit pairs (1,3) and (2,4) at visibility v, exactly."""
    singlet = [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]]
    pair = [[v * Fraction(singlet[i][j], 2) + (1 - v) * Fraction(int(i == j), 4)
             for j in range(4)] for i in range(4)]

    def bits(i):  # (qubit 1, 2, 3, 4) bits of index i, qubit 1 most significant
        return (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1

    def entry(i, j):
        (a1, a2, a3, a4), (b1, b2, b3, b4) = bits(i), bits(j)
        return pair[2 * a1 + a3][2 * b1 + b3] * pair[2 * a2 + a4][2 * b2 + b4]

    return [[entry(i, j) for j in range(16)] for i in range(16)]


def _exact_expectation(rho, matrix) -> Fraction:
    return sum((rho[i][j] * matrix[j][i] for i in range(16) for j in range(16) if matrix[j][i]),
               Fraction(0))


def _exact_omega_signed(v: Fraction) -> Fraction:
    rho = _exact_four_qubit_state(v)
    assert sum(rho[i][i] for i in range(16)) == 1
    chi = Fraction(0)
    for name in SEQUENCE_ORDER:
        a, b, c = (_int_matrix(lab) for lab in SEQUENCES[name])
        chi += CHI_SIGNS[name] * _exact_expectation(rho, _int_matmul(_int_matmul(a, b), c))
    s_signed = sum(
        (t.sign * _exact_expectation(rho, _int_matmul(_int_matrix(t.alice), _int_matrix(t.bob)))
         for t in S_TERMS),
        Fraction(0),
    )
    return chi + s_signed


def _q21_mul(x, y):
    return (x[0] * y[0] + _RADICAND * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


class TestExactCertificate:
    """The paper's numbers in exact rational arithmetic, no floats inside."""

    @pytest.mark.parametrize(
        "v", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)],
        ids=str,
    )
    def test_signed_omega_polynomial(self, v):
        assert _exact_omega_signed(v) == 6 + 4 * v + 8 * v * v

    def test_threshold_brackets_the_root(self):
        # Bisection down to adjacent floats; the root lies within one ulp.
        crossing = find_violation_threshold(tol=1e-300)
        lo = Fraction(math.nextafter(crossing, 0.0))
        hi = Fraction(math.nextafter(crossing, 1.0))
        assert 8 * lo * lo + 4 * lo - 10 < 0 < 8 * hi * hi + 4 * hi - 10

    def test_closed_form_root(self):
        # V = (sqrt(21) - 1) / 4 as an element of Q(sqrt 21).
        v = (Fraction(-1, 4), Fraction(1, 4))
        four_v_plus_1 = (4 * v[0] + 1, 4 * v[1])
        assert _q21_mul(four_v_plus_1, four_v_plus_1) == (21, 0)
        v_squared = _q21_mul(v, v)
        poly = (8 * v_squared[0] + 4 * v[0] - 10, 8 * v_squared[1] + 4 * v[1])
        assert poly == (0, 0)


class TestVisibilityThreshold:
    def test_ideal_chi(self):
        assert visibility_threshold(6.0) == pytest.approx(ROOT_V, abs=1e-12)

    def test_observed_chi_530(self):
        value = visibility_threshold(5.30)
        assert 0.930 <= value <= 0.934
        assert value == pytest.approx(0.9332159566199232, abs=1e-12)

    def test_observed_chi_459(self):
        value = visibility_threshold(4.59)
        assert 0.969 <= value <= 0.971
        assert value == pytest.approx(0.9701434341912429, abs=1e-12)

    @pytest.mark.parametrize("chi", [-6.0, 0.0, 3.0, 6.0])
    def test_is_positive_quadratic_root(self, chi):
        threshold = visibility_threshold(chi)
        assert 8 * threshold**2 + 4 * threshold + (chi - 16) == pytest.approx(0.0, abs=1e-9)
        assert threshold > 0

    def test_domain(self):
        for bad in (-6.1, 6.1):
            with pytest.raises(ValueError):
                visibility_threshold(bad)

    def test_inverts_engine_sweep(self):
        crossing = find_violation_threshold(tol=1e-10)
        assert crossing == pytest.approx(visibility_threshold(6.0), abs=1e-8)
        report = omega(four_qubit_state(visibility_threshold(6.0)))
        assert report.omega_signed == pytest.approx(16.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            find_violation_threshold(lo=0.85, hi=0.95, tol=tol)

    def test_tolerance_below_float_spacing_returns(self):
        crossing = find_violation_threshold(lo=0.85, hi=0.95, tol=1e-300)
        assert 0.85 <= crossing <= 0.95
        assert crossing == pytest.approx((math.sqrt(21) - 1) / 4, abs=1e-9)


class TestFidelity:
    def test_reported_point(self):
        assert fidelity_from_visibility(0.97) == pytest.approx(0.9886859966642595, abs=1e-12)
        assert round(fidelity_from_visibility(0.97), 2) == 0.99

    def test_endpoints(self):
        assert fidelity_from_visibility(1.0) == pytest.approx(1.0, abs=1e-15)
        assert fidelity_from_visibility(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            fidelity_from_visibility(1.2)


class TestSweep:
    def test_endpoints_and_constancy(self):
        result = sweep([0.0, 0.25, 0.5, 0.75, 1.0])
        omegas = [row.omega_signed for row in result.rows]
        assert omegas[0] == pytest.approx(6.0, abs=1e-9)
        assert omegas[-1] == pytest.approx(18.0, abs=1e-9)
        for row in result.rows:
            assert row.chi == pytest.approx(6.0, abs=1e-9)

    def test_monotone_nondecreasing(self):
        result = sweep([i / 20 for i in range(21)])
        omegas = [row.omega_signed for row in result.rows]
        assert all(b >= a - 1e-12 for a, b in zip(omegas, omegas[1:]))

    def test_crossing_bracket_fine_grid(self):
        grid = [0.894 + 0.001 * i for i in range(5)]  # 0.894 .. 0.898
        result = sweep(grid)
        lo, hi = result.crossing_bracket
        assert 0.895 <= lo < hi <= 0.897
        assert result.crossing == pytest.approx(ROOT_V, abs=1e-6)

    def test_coarse_grid_refines_crossing(self):
        result = sweep([0.0, 0.5, 1.0])
        assert result.crossing_bracket == (0.5, 1.0)
        assert result.crossing == pytest.approx(ROOT_V, abs=1e-8)

    def test_abs_and_signed_omega_coincide(self):
        # Why sweep and the bisection need no variant: on the noisy-singlet
        # family both conventions are the same number.
        result = sweep([i / 100 for i in range(101)])
        assert all(row.omega_abs == row.omega_signed for row in result.rows)
        report = omega(four_qubit_state(result.crossing))
        assert report.omega_abs == report.omega_signed

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([])
        with pytest.raises(ValueError):
            sweep([0.0, 1.5])
        with pytest.raises(ValueError):
            sweep([0.5, 0.5])


class TestEstimate:
    def test_deterministic_at_full_visibility(self):
        # Every correlator is certain at V=1, so estimates are exactly ±1.
        estimate = estimate_inequality(1.0, 2000, seed=42)
        assert estimate.omega_signed == 18.0
        assert all(t.estimate in (1.0, -1.0) for t in estimate.s_terms.values())
        assert estimate.max_abs_z < 1e-3  # exact values carry ~1e-16 rounding

    def test_within_five_sigma_noisy(self):
        estimate = estimate_inequality(0.9, 20_000, seed=42)
        assert estimate.within(5.0)
        assert estimate.omega_signed == pytest.approx(estimate.exact.omega_signed, abs=0.2)

    def test_seed_reproducibility(self):
        first = estimate_inequality(0.8, 5000, seed=1)
        second = estimate_inequality(0.8, 5000, seed=1)
        assert first.omega_signed == second.omega_signed
        assert all(
            first.s_terms[k].estimate == second.s_terms[k].estimate for k in first.s_terms
        )

    def test_chi_terms_are_exact_products(self):
        # Sequence products are deterministic at every visibility.
        estimate = estimate_inequality(0.37, 1000, seed=3)
        for term in estimate.chi_terms.values():
            assert term.estimate in (1.0, -1.0)
            assert term.sigma <= 1e-8
            assert abs(term.estimate - term.exact) <= 1e-12

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            estimate_inequality(1.0, 0, seed=1)

    @pytest.mark.parametrize("name, bad", [
        ("shots", 2.5), ("shots", True), ("shots", -1), ("shots", "10"),
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", None),
    ])
    def test_rejects_non_integer_shots_and_seed(self, name, bad):
        args = {"shots": 10, "seed": 1, name: bad}
        with pytest.raises(ValueError, match=name):
            estimate_inequality(0.9, **args)

    @pytest.mark.parametrize("shots", [1, 2000, 65535, 65536, 65537, 200_003])
    @pytest.mark.parametrize("visibility", [0.0, 0.37, 0.9, 1.0])
    def test_counts_match_per_shot_oracle(self, visibility, shots):
        # Bit-identical to the per-shot route, exact references from omega.
        got = estimate_inequality(visibility, shots, seed=11)
        want = oracle_sampled_inequality(visibility, shots, seed=11)
        exact = omega(four_qubit_state(visibility))
        assert got.exact == exact
        for terms, want_terms, exact_terms in (
            (got.chi_terms, want["chi_terms"], exact.chi_terms.terms),
            (got.s_terms, want["s_terms"], exact.s_terms.terms),
        ):
            assert list(terms) == list(want_terms)
            for key, term in terms.items():
                assert (term.estimate, term.n_shots) == want_terms[key]
                assert term.exact == exact_terms[key]
                assert term.sigma == math.sqrt(max(1.0 - term.exact**2, 0.0) / term.n_shots)
        for name in ("chi", "s_abs", "s_signed", "omega_abs", "omega_signed"):
            assert getattr(got, name) == want[name], name

    def test_memory_does_not_grow_with_shots(self):
        # Keeping every shot peaked near 46 MB; counts need O(chunk) memory.
        tracemalloc.start()
        try:
            estimate_inequality(0.9, 1_000_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
