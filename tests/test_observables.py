"""Tests for the observable table, the sequences and the S-term anatomy."""

import pytest

from bellsquare import (
    ALICE_LABELS,
    BOB_LABELS,
    CHI_SIGNS,
    OBSERVABLES,
    PAIR_SIGNS,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    commutes,
    mermin_square_check,
    pauli_product,
)
from bellsquare.observables import SEQUENCE_LEADERS

from conftest import LETTER_DEFS


class TestDefinitions:
    def test_letter_forms(self):
        for label, letters in LETTER_DEFS.items():
            assert OBSERVABLES[label].label == "+" + letters

    def test_sides_and_support(self):
        for label in ALICE_LABELS:
            assert set(OBSERVABLES[label].support) <= {1, 2}
        for label in BOB_LABELS:
            assert set(OBSERVABLES[label].support) <= {3, 4}

    def test_fifteen_observables(self):
        assert len(OBSERVABLES) == 15
        assert set(OBSERVABLES) == set(ALICE_LABELS) | set(BOB_LABELS)
        # The 2^21 bit layout follows this order.
        assert BOB_LABELS == ("B'", "C'", "a'", "c'", "α'", "β'")
        assert SEQUENCE_LEADERS == ("A", "b", "γ")

    def test_all_observable_grade(self):
        for obs in OBSERVABLES.values():
            assert obs.is_hermitian
            assert obs.phase in (1, -1)


class TestSquareLayout:
    @pytest.mark.parametrize("triple", SEQUENCES.values())
    def test_contexts_commute(self, triple):
        strings = [OBSERVABLES[lab] for lab in triple]
        for i in range(3):
            for j in range(i + 1, 3):
                assert commutes(strings[i], strings[j])

    def test_products_have_single_minus_identity(self):
        coefficients = []
        for triple in SEQUENCES.values():
            prod = pauli_product(OBSERVABLES[lab] for lab in triple)
            assert prod.x_mask == 0 and prod.z_mask == 0
            coefficients.append(prod.phase)
        assert coefficients.count(-1) == 1
        minus_triple = list(SEQUENCES.values())[coefficients.index(-1)]
        assert set(minus_triple) == {"C", "c", "γ"}


class TestSequences:
    def test_sequence_members_tile_the_square(self):
        rows, columns = SEQUENCE_ORDER[:3], SEQUENCE_ORDER[3:]
        for lines in (rows, columns):
            members = [label for name in lines for label in SEQUENCES[name]]
            assert sorted(members) == sorted(ALICE_LABELS)
        for row in rows:
            for column in columns:
                assert len(set(SEQUENCES[row]) & set(SEQUENCES[column])) == 1

    def test_chi_sign_pattern(self):
        assert [CHI_SIGNS[s] for s in SEQUENCE_ORDER] == [1, 1, 1, 1, 1, -1]

    def test_square_check(self):
        check = mermin_square_check()
        assert check.products == {
            "ABC": 1, "bac": 1, "γβα": 1, "Aaα": 1, "bBβ": 1, "γcC": -1,
        }
        assert check.chi_combination == 6.0
        assert check.max_matrix_deviation <= 1e-12


class TestSTerms:
    def test_twelve_unique_settings(self):
        settings = [(t.sequence, t.bob) for t in S_TERMS]
        assert len(settings) == 12
        assert len(set(settings)) == 12

    def test_positions_match_sequences(self):
        for term in S_TERMS:
            assert SEQUENCES[term.sequence][term.position - 1] == term.alice
            assert term.position in (2, 3)  # leaders are never paired

    def test_signs_match_pair_table(self):
        for term in S_TERMS:
            assert term.sign == PAIR_SIGNS[term.alice]

    def test_each_sequence_used_twice(self):
        for name in SEQUENCE_ORDER:
            assert sum(1 for t in S_TERMS if t.sequence == name) == 2

    def test_keys_are_unique(self):
        keys = [t.key for t in S_TERMS]
        assert len(set(keys)) == 12
        # The sampler seeds each setting by its index in this order.
        assert keys == [
            "BB'|ABC", "BB'|bBβ", "CC'|ABC", "CC'|γcC", "aa'|bac", "aa'|Aaα",
            "cc'|bac", "cc'|γcC", "αα'|γβα", "αα'|Aaα", "ββ'|γβα", "ββ'|bBβ",
        ]
