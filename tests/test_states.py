"""Tests for the density-operator engine."""

import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellsquare import (
    DensityState,
    OBSERVABLES,
    PauliString,
    expectation,
    four_qubit_state,
    pauli_mul,
)

from bellsquare.states import EIGENVALUE_TOL, HERMITICITY_TOL

from conftest import oracle_letter_stack, oracle_matrix, oracle_pauli_coefficients, seeded_state

# Werner visibilities at which construction is checked bit for bit.
WERNER_GRID = (0.0, 0.123456789, 0.37, 0.4, 0.9, (math.sqrt(21) - 1) / 4, 1.0)


def pair_string(alice_label: str, bob_label: str) -> PauliString:
    return pauli_mul(OBSERVABLES[alice_label], OBSERVABLES[bob_label])


class TestDensityState:
    # A state is 16×16; every other shape, the 1- to 3-qubit and 5-qubit
    # squares included, is refused on construction.
    @pytest.mark.parametrize(
        "shape", [(2, 2), (4, 4), (8, 8), (32, 32), (16, 8), (16,), (16, 16, 1)],
        ids=lambda shape: "x".join(map(str, shape)))
    def test_rejects_shape_other_than_16x16(self, shape):
        m = np.zeros(shape, dtype=complex)
        if len(shape) == 2 and shape[0] == shape[1]:
            np.fill_diagonal(m, 1 / shape[0])  # a valid state of that width
        with pytest.raises(ValueError, match="16x16"):
            DensityState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.eye(16))

    def test_rejects_non_hermitian(self):
        m = np.eye(16, dtype=complex) / 16
        m[0, 1] = 0.01
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)
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
        # One bad entry in a valid state; the check runs before the
        # coefficients and the positivity check.
        m = np.array(four_qubit_state(0.5).matrix)
        m[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(m)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(np.full((16, 16), np.nan))

    def test_matrix_is_frozen(self):
        state = four_qubit_state(1.0)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_repr_omits_matrix(self):
        assert repr(four_qubit_state(0.5)) == "DensityState(16x16)"


def boundary_matrix(seed: int, lowest: float, rank_two: bool) -> np.ndarray:
    """A Hermitian unit-trace 16×16 matrix in a random eigenbasis whose
    lowest eigenvalue is ``lowest``; the rest of the trace sits on one
    eigenvalue (``rank_two``) or on 15 random ones."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    weights = np.eye(15)[0] if rank_two else rng.dirichlet(np.ones(15))
    m = (q * np.concatenate(([lowest], (1 - lowest) * weights))) @ q.conj().T
    return (m + m.conj().T) / 2


class TestPositivity:
    # Positivity is a Cholesky factorization of ρ + EIGENVALUE_TOL·𝟙, and
    # eigvalsh decides only when it fails.  A lowest eigenvalue a thousandth
    # of the tolerance inside or outside -EIGENVALUE_TOL is far from
    # rounding, so both must give eigvalsh's verdict, and a refusal names
    # eigvalsh's lowest eigenvalue.
    @pytest.mark.parametrize("rank_two", [False, True], ids=["full_rank", "rank_two"])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3], ids=["inside", "outside"])
    def test_matches_eigvalsh_rule_at_the_tolerance(self, factor, rank_two):
        for seed in range(100):
            m = boundary_matrix(seed, -EIGENVALUE_TOL * factor, rank_two)
            lowest = float(np.linalg.eigvalsh(m)[0])
            assert (lowest >= -EIGENVALUE_TOL) == (factor < 1)
            if factor < 1:
                DensityState(m)
            else:
                with pytest.raises(ValueError, match=re.escape(f"negative eigenvalue {lowest}")):
                    DensityState(m)

    def test_eigenvalue_at_the_tolerance_is_accepted_by_eigvalsh(self, monkeypatch):
        # ρ + EIGENVALUE_TOL·𝟙 has an exact zero pivot, so the factorization
        # fails; eigvalsh returns -EIGENVALUE_TOL, which the rule accepts.
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        DensityState(np.diag([0.5 + EIGENVALUE_TOL, 0.5, -EIGENVALUE_TOL] + [0.0] * 13))
        assert len(calls) == 1

    def test_valid_states_never_reach_eigvalsh(self, monkeypatch):
        matrices = [seeded_state(kind, param).matrix
                    for kind, params in [("full_rank", range(60, 70)), ("pure", range(70, 80)),
                                         ("trace_edge", (0.0, 0.5))]
                    for param in params]

        def refused(*args, **kwargs):
            raise AssertionError("eigvalsh called on a valid state")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        for v in WERNER_GRID:
            four_qubit_state(v)
        for m in matrices:
            DensityState(m)


class TestPauliCoefficients:
    @pytest.mark.parametrize(
        "kind, param",
        [pytest.param("werner", v, id=f"werner-{v:.6g}") for v in WERNER_GRID]
        + [pytest.param("full_rank", s, id=f"full_rank-{s}") for s in range(60, 70)]
        + [pytest.param("pure", s, id=f"pure-{s}") for s in range(70, 80)],
    )
    def test_match_oracle_bit_for_bit(self, kind, param):
        rho = seeded_state(kind, param)
        want = oracle_pauli_coefficients(rho.matrix).real
        assert rho.coefficients.dtype == np.float64 and rho.coefficients.shape == (256,)
        assert rho.coefficients.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            rho.coefficients[0] = 0.0

    # The state is a Werner state plus i·t/2·H, H Hermitian with largest
    # entry 1, so the largest entry of ρ − ρ† is t: a letter-form string
    # (whose coefficient then moves by 8t), a diagonal projector or a
    # Hermitian pair of off-diagonal entries.  t reaches twice the
    # tolerance, so both rules are crossed.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(v=st.floats(0.0, 1.0),
           direction=st.one_of(
               st.tuples(st.just("string"), st.integers(0, 255), st.just(0)),
               st.tuples(st.just("projector"), st.integers(0, 15), st.just(0)),
               st.tuples(st.sampled_from(["pair", "imaginary pair"]),
                         st.integers(0, 15), st.integers(1, 15))),
           t=st.floats(0.0, 2 * HERMITICITY_TOL))
    # I/16 + 4e-11i·B·B' (B·B' = IZIZ, string 160): 8e-11 per entry, 6.4e-10 in tr(ρ·B·B').
    @example(v=0.0, direction=("string", 160, 0), t=8e-11)
    # 1.5e-10 on one diagonal entry, 7.5e-11 in each diagonal string's coefficient.
    @example(v=0.0, direction=("projector", 0, 0), t=1.5e-10)
    def test_accepted_states_are_hermitian_within_tolerance(self, v, direction, t):
        kind, r, offset = direction
        if kind == "string":
            h = oracle_letter_stack()[r]
        else:
            h = np.zeros((16, 16), dtype=complex)
            s = r ^ offset
            h[r, s] = 1j if kind == "imaginary pair" else 1.0
            h[s, r] = np.conj(h[r, s])
        m = four_qubit_state(v).matrix + 0.5j * t * h
        try:
            rho = DensityState(m)
        except ValueError as error:
            assert "Hermitian" in str(error) or "trace" in str(error)
            return
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= HERMITICITY_TOL
        assert np.abs(oracle_pauli_coefficients(rho.matrix).imag).max() <= HERMITICITY_TOL


# Each singlet sits on two of the four qubits (0-based positions).
PAIRS = ((0, 2), (1, 3))


def pair_label(letters: str, pair: tuple[int, int]) -> str:
    """Four-qubit label with ``letters`` on the pair's two qubits, I elsewhere."""
    label = ["I"] * 4
    for qubit, letter in zip(pair, letters):
        label[qubit] = letter
    return "".join(label)


def reduced_pair(matrix: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Partial trace of a four-qubit matrix onto the pair's two qubits."""
    rest = [q for q in range(4) if q not in pair]
    t = matrix.reshape((2,) * 8).transpose([*pair, *rest, *(q + 4 for q in pair),
                                           *(q + 4 for q in rest)])
    return np.einsum("abijcdij->abcd", t).reshape(4, 4)


def oracle_werner(v: float) -> np.ndarray:
    """V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4 from the singlet vector (|01> − |10>)/√2."""
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    return v * np.outer(psi, psi) + (1 - v) * np.eye(4) / 4


class TestSinglet:
    """Both pairs of the ideal state, (1,3) and (2,4), are singlets."""

    @pytest.mark.parametrize("letters", ["ZZ", "XX", "YY"])
    def test_perfect_anticorrelation(self, ideal_state, letters):
        for pair in PAIRS:
            got = expectation(ideal_state, PauliString.from_label(pair_label(letters, pair)))
            assert got == pytest.approx(-1, abs=1e-12)

    def test_marginal_is_mixed(self, ideal_state):
        for qubit in range(4):
            for letter in "XYZ":
                label = pair_label(letter, (qubit,))
                assert expectation(ideal_state, PauliString.from_label(label)) == pytest.approx(
                    0, abs=1e-12)

    def test_purity(self, ideal_state):
        m = ideal_state.matrix
        assert np.real(np.trace(m @ m)) == pytest.approx(1, abs=1e-12)
        for pair in PAIRS:
            reduced = reduced_pair(m, pair)
            assert np.real(np.trace(reduced @ reduced)) == pytest.approx(1, abs=1e-12)


class TestWernerPair:
    """Each pair of ``four_qubit_state(V)`` reduces to V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4."""

    def test_v1_is_singlet(self, ideal_state):
        for pair in PAIRS:
            assert np.allclose(reduced_pair(ideal_state.matrix, pair), oracle_werner(1.0),
                               atol=1e-15)

    def test_v0_is_maximally_mixed(self, mixed_state):
        for pair in PAIRS:
            assert np.allclose(reduced_pair(mixed_state.matrix, pair), np.eye(4) / 4, atol=1e-15)

    @pytest.mark.parametrize("v", [0.37, 0.9])
    def test_reduced_pair_is_werner(self, v):
        m = four_qubit_state(v).matrix
        for pair in PAIRS:
            assert np.allclose(reduced_pair(m, pair), oracle_werner(v), atol=1e-15)

    def test_half_visibility_zz(self):
        # Independent oracle: linearity of the trace in the mixture.
        zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
        expected = 0.5 * np.trace(oracle_werner(1.0) @ zz) + 0.5 * np.trace(zz) / 4
        assert expected.real == pytest.approx(-0.5, abs=1e-12)
        rho = four_qubit_state(0.5)
        for pair in PAIRS:
            got = expectation(rho, PauliString.from_label(pair_label("ZZ", pair)))
            assert got == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError, match="visibility"):
            four_qubit_state(bad)

    # A numpy bool is no number, and bytes are no more a number than a str.
    @pytest.mark.parametrize("bad", [True, False, "1", "0.5", *(
        pytest.param(value, id=repr(value))
        for value in (np.True_, np.bool_(0), b"1", bytearray(b"1")))])
    def test_refuses_bool_and_str(self, bad):
        with pytest.raises(ValueError, match="visibility must be a number"):
            four_qubit_state(bad)

    def test_validates_once(self, monkeypatch):
        # Only the returned 16×16 state is validated, not a pair on the way.
        calls = []
        validate = DensityState.__post_init__

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(DensityState, "__post_init__", counting)
        four_qubit_state(0.9)
        assert len(calls) == 1


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
        # A string on any other number of qubits cannot be built.
        with pytest.raises(ValueError, match="four Pauli letters"):
            PauliString.from_label("ZZ")

    def test_result_in_range(self, ideal_state):
        for obs in OBSERVABLES.values():
            assert -1.0 <= expectation(ideal_state, obs) <= 1.0


def test_four_qubit_state_matches_oracle_construction():
    # Independent route: permute explicit kron of two pair states.  Each
    # entry is the same one product of two pair entries, so the same bits.
    for v in WERNER_GRID:
        pair = oracle_werner(v)
        big = np.kron(pair, pair).reshape([2] * 8)
        big = big.transpose([0, 2, 1, 3, 4, 6, 5, 7]).reshape(16, 16)
        assert np.array_equal(four_qubit_state(v).matrix, big), v


def test_gamma_expectation_matches_oracle(ideal_state):
    got = expectation(ideal_state, pair_string("γ", "β'"))
    want = np.trace(ideal_state.matrix @ oracle_matrix("γ") @ oracle_matrix("β'")).real
    assert got == pytest.approx(want, abs=1e-12)
