"""Tests for the density-operator engine."""

from itertools import product

import numpy as np
import pytest

from bellsquare import (
    DensityState,
    OBSERVABLES,
    PauliString,
    expectation,
    four_qubit_state,
    pauli_mul,
    singlet_pair,
    werner_pair,
)

from conftest import oracle_matrix


def pair_string(alice_label: str, bob_label: str) -> PauliString:
    return pauli_mul(OBSERVABLES[alice_label], OBSERVABLES[bob_label])


class TestDensityState:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityState(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DensityState(np.eye(3) / 3)
        with pytest.raises(ValueError):
            DensityState(np.ones((2, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 3), (0, 1), (2, 1)])
    def test_rejects_non_finite_entry(self, value, entry):
        # One bad entry in a valid Werner pair; the check runs before eigvalsh.
        m = np.array(werner_pair(0.5).matrix)
        m[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(m)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(np.full((16, 16), np.nan))

    def test_matrix_is_frozen(self):
        state = singlet_pair()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_n_qubits_derived(self):
        assert singlet_pair().n_qubits == 2
        assert four_qubit_state(0.5).n_qubits == 4


class TestSinglet:
    @pytest.mark.parametrize("letters", ["ZZ", "XX", "YY"])
    def test_perfect_anticorrelation(self, letters):
        rho = singlet_pair()
        assert expectation(rho, PauliString.from_label(letters)) == pytest.approx(-1, abs=1e-12)

    def test_marginal_is_mixed(self):
        rho = singlet_pair()
        assert expectation(rho, PauliString.from_label("ZI")) == pytest.approx(0, abs=1e-12)

    def test_purity(self):
        m = singlet_pair().matrix
        assert np.real(np.trace(m @ m)) == pytest.approx(1, abs=1e-12)


class TestWernerPair:
    def test_v1_is_singlet(self):
        assert np.allclose(werner_pair(1.0).matrix, singlet_pair().matrix, atol=1e-15)

    def test_v0_is_maximally_mixed(self):
        assert np.allclose(werner_pair(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_half_visibility_zz(self):
        # Independent oracle: linearity of the trace in the mixture.
        zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
        expected = 0.5 * np.trace(singlet_pair().matrix @ zz) + 0.5 * np.trace(zz) / 4
        assert expected.real == pytest.approx(-0.5, abs=1e-12)
        got = expectation(werner_pair(0.5), PauliString.from_label("ZZ"))
        assert got == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            werner_pair(bad)


class TestFourQubitState:
    @pytest.mark.parametrize(
        "alice,bob,value",
        [("B", "B'", -1), ("C", "C'", 1), ("a", "a'", -1),
         ("c", "c'", 1), ("α", "α'", 1), ("β", "β'", 1)],
    )
    def test_ideal_correlations(self, ideal_state, alice, bob, value):
        assert expectation(ideal_state, pair_string(alice, bob)) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("visibility", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_reduced_states_are_maximally_mixed(self, visibility, side):
        # The 15 non-identity Paulis on one side's two qubits span the
        # traceless operators there, so all-zero expectations mean that
        # side's reduced state is I/4.
        rho = four_qubit_state(visibility)
        for letters in product("IXYZ", repeat=2):
            if letters == ("I", "I"):
                continue
            pair = "".join(letters)
            label = pair + "II" if side == "alice" else "II" + pair
            assert expectation(rho, PauliString.from_label(label)) == pytest.approx(0, abs=1e-12)

    def test_zero_visibility_is_identity(self):
        assert np.allclose(four_qubit_state(0.0).matrix, np.eye(16) / 16, atol=1e-15)

    def test_mixed_state_kills_nonidentity_expectations(self, mixed_state):
        for label in ("A", "γ", "B'", "β'"):
            assert expectation(mixed_state, OBSERVABLES[label]) == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize(
        "alice,bob,degree",
        [("B", "B'", 1), ("a", "a'", 1), ("C", "C'", 2),
         ("c", "c'", 2), ("α", "α'", 2), ("β", "β'", 2)],
    )
    def test_visibility_polynomial_degree(self, alice, bob, degree):
        # Fit the stated degree at five grid points; residual must vanish.
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        pair = pair_string(alice, bob)
        values = [expectation(four_qubit_state(v), pair) for v in grid]
        coeffs = np.polynomial.polynomial.polyfit(grid, values, deg=degree)
        fitted = np.polynomial.polynomial.polyval(grid, coeffs)
        assert np.max(np.abs(np.array(values) - fitted)) <= 1e-9
        assert abs(coeffs[degree]) > 0.5  # genuinely of that degree


class TestExpectation:
    def test_non_hermitian_rejected(self, ideal_state):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(ideal_state, PauliString.from_label("+iZZII"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(singlet_pair(), OBSERVABLES["A"])

    def test_result_in_range(self, ideal_state):
        for obs in OBSERVABLES.values():
            assert -1.0 <= expectation(ideal_state, obs) <= 1.0


def test_four_qubit_state_matches_oracle_construction():
    # Independent route: permute explicit kron of two pair states.
    for v in (0.0, 0.4, 1.0):
        pair = werner_pair(v).matrix
        big = np.kron(pair, pair).reshape([2] * 8)
        big = big.transpose([0, 2, 1, 3, 4, 6, 5, 7]).reshape(16, 16)
        assert np.allclose(four_qubit_state(v).matrix, big, atol=1e-14)


def test_gamma_expectation_matches_oracle(ideal_state):
    got = expectation(ideal_state, pair_string("γ", "β'"))
    want = np.trace(ideal_state.matrix @ oracle_matrix("γ") @ oracle_matrix("β'")).real
    assert got == pytest.approx(want, abs=1e-12)
