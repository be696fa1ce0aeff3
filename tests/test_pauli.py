"""Tests for the signed Pauli-string algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsquare import OBSERVABLES, PauliString, commutes, pauli_mul, pauli_product, to_matrix
from bellsquare.pauli import MATRIX_QUBIT_CAP

from conftest import oracle_matrix


class TestConstruction:
    def test_from_label_round_trip(self):
        for label in ("+ZIII", "-YYII", "+iXZ", "-iY", "+IIII", "+X"):
            p = PauliString.from_label(label)
            assert p.label == label

    def test_default_prefix_is_plus(self):
        assert PauliString.from_label("XX") == PauliString.from_label("+XX")

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.is_identity
        assert p.label == "+IIII"

    def test_bad_labels(self):
        for label in ("", "+", "Q", "X?Z", "*XX"):
            with pytest.raises(ValueError):
                PauliString.from_label(label)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PauliString(2, 0b100, 0)
        with pytest.raises(ValueError):
            PauliString(0, 0, 0)

    def test_phase_exp_normalized(self):
        assert PauliString(1, 1, 0, 5).phase_exp == 1

    def test_support_and_weight(self):
        p = PauliString.from_label("XIZY")
        assert p.support == (1, 3, 4)
        assert p.weight == 3

    def test_y_carries_exact_phase(self):
        # Y is stored as iXZ, so the letter-form phase of a bare Y is +1.
        y = PauliString.from_label("Y")
        assert y.phase == 1
        assert y.is_hermitian
        assert np.allclose(to_matrix(y), np.array([[0, -1j], [1j, 0]]))


class TestProduct:
    def test_single_qubit_xz(self):
        x = PauliString.from_label("X")
        z = PauliString.from_label("Z")
        assert (x * z).label == "-iY"
        assert (z * x).label == "+iY"

    def test_xy_and_yz(self):
        x, y, z = (PauliString.from_label(s) for s in "XYZ")
        assert (x * y).label == "+iZ"
        assert (y * z).label == "+iX"

    def test_sequence_product_identity(self):
        # A * B * C multiplies to +Identity.
        prod = pauli_product(OBSERVABLES[lab] for lab in ("A", "B", "C"))
        assert prod.is_identity

    def test_gamma_c_C_is_minus_identity(self):
        prod = pauli_product(OBSERVABLES[lab] for lab in ("γ", "c", "C"))
        assert prod.x_mask == 0 and prod.z_mask == 0
        assert prod.phase == -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pauli_mul(PauliString.from_label("X"), PauliString.from_label("XX"))

    def test_involution_for_observables(self):
        # Every observable squares to +Identity.
        for obs in OBSERVABLES.values():
            assert pauli_mul(obs, obs).is_identity

    def test_associativity_random_triples(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            p, q, r = (
                PauliString(4, int(rng.integers(16)), int(rng.integers(16)), int(rng.integers(4)))
                for _ in range(3)
            )
            assert pauli_mul(pauli_mul(p, q), r) == pauli_mul(p, pauli_mul(q, r))


class TestCommutes:
    def test_disjoint_support_commutes(self):
        assert commutes(OBSERVABLES["A"], OBSERVABLES["B"])

    def test_single_qubit_anticommutation(self):
        assert not commutes(OBSERVABLES["A"], OBSERVABLES["b"])

    @pytest.mark.parametrize("labels", [("A", "B", "C"), ("b", "a", "c"), ("γ", "β", "α"),
                                        ("A", "a", "α"), ("b", "B", "β"), ("γ", "c", "C")])
    def test_sequences_pairwise_commute(self, labels):
        trio = [OBSERVABLES[lab] for lab in labels]
        for i in range(3):
            for j in range(i + 1, 3):
                assert commutes(trio[i], trio[j])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutes(PauliString.from_label("X"), PauliString.from_label("XX"))


class TestToMatrix:
    def test_identity_matrix(self):
        assert np.array_equal(to_matrix(PauliString.identity(1)), np.eye(2))

    def test_gamma_is_yy(self):
        gamma = OBSERVABLES["γ"]
        assert np.allclose(to_matrix(gamma), oracle_matrix("γ"), atol=1e-15)

    def test_all_observables_match_oracle(self):
        for label, obs in OBSERVABLES.items():
            assert np.allclose(to_matrix(obs), oracle_matrix(label), atol=1e-15)

    def test_product_homomorphism_all_pairs(self):
        items = list(OBSERVABLES.values())
        for left in items:
            for right in items:
                symbolic = to_matrix(pauli_mul(left, right))
                numeric = to_matrix(left) @ to_matrix(right)
                assert np.max(np.abs(symbolic - numeric)) <= 1e-12

    def test_abc_matrix_is_identity(self):
        # Numeric product of the three matrices, independent of pauli_mul.
        numeric = (
            oracle_matrix("A") @ oracle_matrix("B") @ oracle_matrix("C")
        )
        assert np.max(np.abs(numeric - np.eye(16))) <= 1e-12

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            to_matrix(PauliString.identity(MATRIX_QUBIT_CAP + 1))
        dim = 1 << MATRIX_QUBIT_CAP
        assert to_matrix(PauliString.identity(MATRIX_QUBIT_CAP)).shape == (dim, dim)

    def test_hermiticity_flag_matches_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
            m = to_matrix(p)
            assert p.is_hermitian == bool(np.allclose(m, m.conj().T))


@st.composite
def pauli_pairs(draw):
    """Two random signed Pauli strings on the same 1 to 3 qubits."""
    n = draw(st.integers(1, 3))
    masks = st.integers(0, (1 << n) - 1)
    return tuple(
        PauliString(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
        for _ in range(2)
    )


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pair=pauli_pairs())
    def test_symbolic_rules_match_matrices(self, pair):
        # Entries are 0, ±1 and ±i, so the matrix products are exact.
        p, q = pair
        left, right = to_matrix(p) @ to_matrix(q), to_matrix(q) @ to_matrix(p)
        assert np.array_equal(to_matrix(p * q), left)
        assert commutes(p, q) == np.array_equal(left, right)
