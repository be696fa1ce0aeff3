"""Tests for inequality assembly, thresholds and sampled estimates."""

import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsquare import (
    ALICE_LABELS,
    BOB_LABELS,
    CHI_SIGNS,
    DensityState,
    OBSERVABLES,
    PAIR_SIGNS,
    PauliString,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    commutes,
    estimate_inequality,
    fidelity_from_visibility,
    find_violation_threshold,
    four_qubit_state,
    omega,
    pauli_product,
    sweep,
    visibility_threshold,
)
from bellsquare import inequality
from bellsquare.inequality import MAX_GRID_POINTS, TermEstimate, _check_grid, _report

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
        # A 2-qubit state is refused on construction, before omega reads it.
        with pytest.raises(ValueError, match="16x16"):
            omega(DensityState(np.eye(4) / 4))

    def test_imaginary_correlator_raises(self):
        # An anti-Hermitian part within 1e-10 per entry still gives the BB'
        # correlator an imaginary part of 6.4e-10, so the state is refused
        # on construction, before omega could read it.
        bb = oracle_matrix("B") @ oracle_matrix("B'")
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(np.eye(16) / 16 + 4e-11j * bb)


class TestQuantumMaximum:
    """S_signed = tr(ρ·W) with W = Σ sign·A·A′ over the twelve S terms, so
    the spectrum of W bounds ω_signed = 6 + S_signed over every state."""

    W = sum(t.sign * oracle_matrix(t.alice) @ oracle_matrix(t.bob) for t in S_TERMS)

    def test_spectrum(self):
        eigenvalues = np.linalg.eigvalsh(self.W)
        assert np.abs(eigenvalues - np.round(eigenvalues)).max() < 1e-9
        assert Counter(np.round(eigenvalues).astype(int).tolist()) == {
            12: 1, 4: 3, 0: 8, -4: 3, -12: 1}

    def test_spectrum_from_stabilizer_signs(self):
        # Each pair operator A·A′ is ± a product of the singlet stabilizers,
        # which commute and are independent, so their 16 sign patterns label
        # 16 one-dimensional joint eigenspaces; W takes one integer on each.
        stabilizers = [PauliString.from_label(s) for s in ("-ZIZI", "-XIXI", "-IZIZ", "-IXIX")]
        assert all(commutes(p, q) for p in stabilizers for q in stabilizers)
        identity = PauliString.identity()
        group = {}
        for subset in itertools.product((0, 1), repeat=4):
            g = pauli_product([identity, *(p for p, t in zip(stabilizers, subset) if t)])
            group[g.x_mask, g.z_mask] = (subset, g.phase.real)
        assert len(group) == 16
        # Each pair lies in two sequences, so W = 2·Σ sign·A·A′ over the six pairs.
        assert Counter(t.alice for t in S_TERMS) == dict.fromkeys(PAIR_SIGNS, 2)
        terms = []
        for alice, sign in PAIR_SIGNS.items():
            pair = pauli_product([OBSERVABLES[alice], OBSERVABLES[f"{alice}'"]])
            subset, phase = group[pair.x_mask, pair.z_mask]
            terms.append((2 * sign * int(pair.phase.real * phase), subset))
        spectrum = Counter(
            sum(c * math.prod(s for s, t in zip(signs, subset) if t) for c, subset in terms)
            for signs in itertools.product((1, -1), repeat=4)
        )
        assert spectrum == {12: 1, 4: 3, 0: 8, -4: 3, -12: 1}

    def test_only_the_ideal_state_reaches_18(self, ideal_state):
        top = np.linalg.eigh(self.W)[1][:, -1]
        overlap = np.real(top.conj() @ ideal_state.matrix @ top)
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, param",
        [pytest.param("werner", v, id=str(v)) for v in (0.0, 0.5, ROOT_V, 0.9, 1.0)]
        + [pytest.param("full_rank", s, id=f"full_rank-{s}") for s in range(61, 66)]
        + [pytest.param("pure", s, id=f"pure-{s}") for s in range(66, 71)],
    )
    def test_fidelity_bound(self, ideal_state, kind, param):
        # Top eigenvalue 12 on the ideal state ψ, at most 4 elsewhere:
        # ω_signed ≤ 6 + 12F + 4(1 − F) with F = ⟨ψ|ρ|ψ⟩.
        rho = seeded_state(kind, param)
        fidelity = np.real(np.trace(rho.matrix @ ideal_state.matrix))
        assert omega(rho).omega_signed <= 10 + 8 * fidelity + 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["full_rank", "pure"]), seed=st.integers(0, 2**32 - 1),
           weight=st.floats(0.0, 1.0))
    def test_fidelity_bound_on_drawn_states(self, ideal_state, kind, seed, weight):
        # The ideal state ψ mixed with a full-rank state, or superposed with
        # a pure one, so that the drawn fidelities span [0, 1].
        other = seeded_state(kind, seed).matrix
        if kind == "full_rank":
            rho = DensityState(weight * ideal_state.matrix + (1 - weight) * other)
        else:
            psi = np.linalg.eigh(ideal_state.matrix)[1][:, -1]
            phi = np.linalg.eigh(other)[1][:, -1]
            vec = math.sqrt(weight) * psi + math.sqrt(1 - weight) * phi
            rho = DensityState(np.outer(vec, vec.conj()) / np.vdot(vec, vec).real)
        fidelity = np.real(np.trace(rho.matrix @ ideal_state.matrix))
        assert omega(rho).omega_signed <= 10 + 8 * fidelity + 1e-9


class TestOmegaProperties:
    """The Pauli-expectation engine on random states, against outcome
    distributions from plain numpy projector sandwiches; a fixed example
    seed and no deadline keep the draws deterministic."""

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
        # Bisection of the engine down to adjacent floats; the root lies
        # within one ulp of their midpoint.
        lo, hi = 0.0, 1.0
        while (mid := (lo + hi) / 2) not in (lo, hi):
            if omega(four_qubit_state(mid)).omega_signed < 16:
                lo = mid
            else:
                hi = mid
        crossing = (lo + hi) / 2
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


class TestOneShotLocalModel:
    """With one observable per side and no sequence, the correlations of the
    noisy preparation admit a local model, in exact rational arithmetic."""

    @pytest.mark.parametrize("v", [Fraction(1, 3), Fraction(9, 10), Fraction(1)], ids=str)
    def test_one_shot_distributions(self, v):
        rho = _exact_four_qubit_state(v)
        for label in (*ALICE_LABELS, *BOB_LABELS):
            assert _exact_expectation(rho, _int_matrix(label)) == 0
        partner_correlation = {"B": -v, "a": -v, "C": v * v, "c": v * v, "α": v * v, "β": v * v}
        assert partner_correlation.keys() == PAIR_SIGNS.keys()
        for alice, bob in itertools.product(ALICE_LABELS, BOB_LABELS):
            partner = bob[:-1]
            a_matrix, b_matrix = _int_matrix(alice), _int_matrix(bob)
            ab_matrix = _int_matmul(a_matrix, b_matrix)
            correlation = partner_correlation[partner] if alice == partner else 0
            assert _exact_expectation(rho, ab_matrix) == correlation
            # Alice's nine values are i.i.d. uniform; Bob answers the pair
            # sign times his partner's value with probability (1 + |E|)/2.
            keep = (1 + abs(partner_correlation[partner])) / 2
            for a, b in itertools.product((1, -1), repeat=2):
                projector_product = [  # 4 · (I + aA)/2 · (I + bB′)/2
                    [int(i == j) + a * a_matrix[i][j] + b * b_matrix[i][j] + a * b * ab_matrix[i][j]
                     for j in range(16)]
                    for i in range(16)
                ]
                quantum = _exact_expectation(rho, projector_product) / 4
                partner_values = (a,) if alice == partner else (1, -1)
                model = sum(
                    Fraction(1, 2 * len(partner_values))
                    * (keep if b == PAIR_SIGNS[partner] * x else 1 - keep)
                    for x in partner_values
                )
                assert model == quantum, (alice, bob, a, b)


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

    # A numpy bool is no number, and bytes are no more a number than a str.
    @pytest.mark.parametrize("bad", [True, False, "6", "5.3", *(
        pytest.param(value, id=repr(value))
        for value in (np.True_, np.bool_(0), b"1", bytearray(b"1")))])
    def test_refuses_bool_and_str(self, bad):
        with pytest.raises(ValueError, match="chi_expt must be a number"):
            visibility_threshold(bad)

    def test_inverts_engine_sweep(self):
        crossing = find_violation_threshold()
        assert crossing == pytest.approx(visibility_threshold(6.0), abs=1e-8)
        report = omega(four_qubit_state(visibility_threshold(6.0)))
        assert report.omega_signed == pytest.approx(16.0, abs=1e-8)


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

    @pytest.mark.parametrize("bad", [True, np.True_, np.bool_(0), "1", b"1", bytearray(b"1")],
                             ids=repr)
    def test_refuses_bool_str_and_bytes(self, bad):
        with pytest.raises(ValueError, match="visibility must be a number"):
            fidelity_from_visibility(bad)


class TestSweep:
    def test_endpoints_and_constancy(self):
        result = sweep([0.0, 0.25, 0.5, 0.75, 1.0])
        omegas = [row.omega_signed for row in result.reports]
        assert omegas[0] == pytest.approx(6.0, abs=1e-9)
        assert omegas[-1] == pytest.approx(18.0, abs=1e-9)
        for row in result.reports:
            assert row.chi == pytest.approx(6.0, abs=1e-9)

    def test_monotone_nondecreasing(self):
        result = sweep([i / 20 for i in range(21)])
        omegas = [row.omega_signed for row in result.reports]
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
        assert all(row.omega_abs == row.omega_signed for row in result.reports)
        report = omega(four_qubit_state(result.crossing))
        assert report.omega_abs == report.omega_signed

    def test_reports_are_omega_of_each_grid_point(self):
        grid = [0, 0.25, np.float64(0.5), ROOT_V, 1]
        result = sweep(grid)
        assert result.grid == (0.0, 0.25, 0.5, ROOT_V, 1.0)
        assert all(type(v) is float for v in result.grid)
        assert len(result.reports) == len(grid)
        for v, report in zip(grid, result.reports):
            assert report == omega(four_qubit_state(v))

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([])
        with pytest.raises(ValueError):
            sweep([0.0, 1.5])
        with pytest.raises(ValueError):
            sweep([0.5, 0.5])

    # As for four_qubit_state: a bool is no visibility, nor is a str or bytes.
    @pytest.mark.parametrize("bad", [True, "0.5", b"0.5", None, *(
        pytest.param(value, id=repr(value)) for value in (np.True_, np.bool_(0)))])
    def test_refuses_points_that_are_no_visibility(self, bad):
        with pytest.raises(ValueError, match="visibility must be a number"):
            sweep([bad])

    @pytest.mark.parametrize("endless", [False, True], ids=["list", "endless-iterator"])
    def test_grid_past_the_cap_refused_before_any_state(self, monkeypatch, endless):
        def unbuilt(visibility):
            raise AssertionError("a state was built")

        def points():
            for i in itertools.count():
                if i > MAX_GRID_POINTS:
                    raise AssertionError("the grid was read past MAX_GRID_POINTS + 1 points")
                yield i / (2 * MAX_GRID_POINTS)

        monkeypatch.setattr(inequality, "four_qubit_state", unbuilt)
        grid = points() if endless else list(itertools.islice(points(), MAX_GRID_POINTS + 1))
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            sweep(grid)

    def test_grid_at_the_cap_is_checked_whole(self):
        grid = _check_grid(i / MAX_GRID_POINTS for i in range(MAX_GRID_POINTS))
        assert len(grid) == MAX_GRID_POINTS and grid[-1] == (MAX_GRID_POINTS - 1) / MAX_GRID_POINTS


class TestEstimate:
    def test_deterministic_at_full_visibility(self):
        # Every correlator is certain at V=1, so estimates are exactly ±1.
        estimate = estimate_inequality(1.0, 2000, seed=42)
        assert estimate.point.omega_signed == 18.0
        assert all(t.estimate in (1.0, -1.0) for t in estimate.s_terms.values())
        assert estimate.max_abs_z < 1e-3  # exact values carry ~1e-16 rounding

    def test_within_five_sigma_noisy(self):
        estimate = estimate_inequality(0.9, 20_000, seed=42)
        assert estimate.within(5.0)
        assert estimate.point.omega_signed == pytest.approx(estimate.exact.omega_signed, abs=0.2)

    def test_seed_reproducibility(self):
        self.check_seed_reproducibility(1)

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint64(1)], ids=repr)
    def test_numpy_integer_seed(self, seed):
        self.check_seed_reproducibility(seed)

    @staticmethod
    def check_seed_reproducibility(seed):
        first = estimate_inequality(0.8, 5000, seed=seed)
        second = estimate_inequality(0.8, 5000, seed=1)
        assert type(first.seed) is int and first.seed == 1
        assert first.point.omega_signed == second.point.omega_signed
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

    def test_point_is_the_report_of_the_estimates(self):
        estimate = estimate_inequality(0.9, 2000, seed=7)
        chi = {k: t.estimate for k, t in estimate.chi_terms.items()}
        s = {k: t.estimate for k, t in estimate.s_terms.items()}
        for k, term in estimate.chi_terms.items():
            assert estimate.point.chi_terms.terms[k] == term.estimate
        for k, term in estimate.s_terms.items():
            assert estimate.point.s_terms.terms[k] == term.estimate
        assert estimate.point == _report(chi, s)

    def test_term_fields_and_recomputed_z_score(self):
        estimate = estimate_inequality(0.9, 2000, seed=7)
        term = estimate.chi_terms["ABC"]
        assert list(dataclasses.asdict(term)) == ["exact", "estimate", "sigma", "z_score", "n_shots"]
        assert term.z_score == 0.0
        # A χ term has σ = 0, so any estimate off its exact ±1 reads z = ∞.
        off = dataclasses.replace(term, estimate=term.estimate - 2 / term.n_shots)
        assert off.z_score == math.inf
        correlator = estimate.s_terms["BB'|ABC"]
        moved = dataclasses.replace(correlator, estimate=correlator.exact - 2 * correlator.sigma)
        assert moved.z_score == pytest.approx(-2.0, abs=1e-12)
        assert TermEstimate(0.5, 0.75, 0.125, 16).z_score == 2.0

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            estimate_inequality(1.0, 0, seed=1)

    def test_shots_past_the_stream_refused_before_counting(self, monkeypatch):
        # Draw i uses the 64-bit counter i + 1, so 2**64 shots do not fit; counting them would not end.
        def uncounted(*args):
            raise AssertionError("the counting pass ran")

        monkeypatch.setattr(inequality, "_count_settings", uncounted)
        with pytest.raises(ValueError, match="shots"):
            estimate_inequality(0.9, 2**64, 1)
        with pytest.raises(AssertionError, match="counting pass"):
            estimate_inequality(0.9, 2**64 - 1, 1)

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
            assert getattr(got.point, name) == want[name], name

    def test_memory_does_not_grow_with_shots(self):
        # Keeping every shot peaked near 46 MB; counts need O(chunk) memory.
        tracemalloc.start()
        try:
            estimate_inequality(0.9, 1_000_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
