"""The fifteen named observables and the six measurement contexts.

Alice holds qubits 1-2 and measures nine two-qubit observables that tile
a 3x3 square whose rows and columns are mutually commuting triples.  Every
row and column multiplies to +Identity except the (C, c, γ) column, which
multiplies to -Identity; that single sign is what makes a context-free
±1 assignment to the nine observables impossible.

Bob holds qubits 3-4 and measures one of six partner observables, each the
mirror of an Alice observable moved to his qubit pair.  In the ideal
paired-singlet state every partner pair is perfectly correlated or
anticorrelated (sign table ``PAIR_SIGNS``).

``OBSERVABLES`` maps each of the fifteen labels to its Hermitian Pauli
string; ``ALICE_LABELS`` and ``BOB_LABELS`` say whose it is, and the
string's ``support`` says which qubits it acts on.

Alice measures one of six fixed ordered sequences (three rows, three
columns of the square).  ``S_TERMS`` lists the twelve (Alice observable,
Bob partner, sequence, slot) combinations whose conditional correlators
enter the combined inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .pauli import PauliString, commutes, pauli_product, to_matrix

_ALICE_DEFS = {
    "A": "ZIII",
    "B": "IZII",
    "C": "ZZII",
    "a": "IXII",
    "b": "XIII",
    "c": "XXII",
    "α": "ZXII",
    "β": "XZII",
    "γ": "YYII",
}

_BOB_DEFS = {
    "B'": "IIIZ",
    "C'": "IIZZ",
    "a'": "IIIX",
    "c'": "IIXX",
    "α'": "IIZX",
    "β'": "IIXZ",
}

ALICE_LABELS = tuple(_ALICE_DEFS)
BOB_LABELS = tuple(_BOB_DEFS)


OBSERVABLES: dict[str, PauliString] = {
    lab: PauliString.from_label(s) for lab, s in {**_ALICE_DEFS, **_BOB_DEFS}.items()
}

# The 3x3 square: rows and columns are the six compatible contexts.
SQUARE_ROWS = (("A", "B", "C"), ("a", "b", "c"), ("α", "β", "γ"))
SQUARE_COLUMNS = (("A", "a", "α"), ("B", "b", "β"), ("C", "c", "γ"))

# The six ordered sequences Alice measures, and the sign with which each
# sequence product enters the chi combination.  The γcC product is -1, so
# its minus sign makes every term contribute +1 quantum mechanically.
SEQUENCES: dict[str, tuple[str, str, str]] = {
    "ABC": ("A", "B", "C"),
    "bac": ("b", "a", "c"),
    "γβα": ("γ", "β", "α"),
    "Aaα": ("A", "a", "α"),
    "bBβ": ("b", "B", "β"),
    "γcC": ("γ", "c", "C"),
}
SEQUENCE_ORDER = tuple(SEQUENCES)
CHI_SIGNS = {"ABC": 1, "bac": 1, "γβα": 1, "Aaα": 1, "bBβ": 1, "γcC": -1}

# Observables that lead two sequences; a local model must give each a
# single outcome since nothing is ever measured before them.
SEQUENCE_LEADERS = ("A", "b", "γ")

# Correlation sign of each paired observable with its Bob partner in the
# ideal (visibility 1) state.
PAIR_SIGNS = {"B": -1, "C": 1, "a": -1, "c": 1, "α": 1, "β": 1}


@dataclass(frozen=True)
class STermSpec:
    """One conditional correlator of the combined inequality.

    ``alice`` is measured at 1-based ``position`` within ``sequence`` on
    Alice's side while ``bob`` is measured alone on Bob's side; ``sign``
    is the ideal-state correlation sign of the pair.
    """

    alice: str
    bob: str
    sequence: str
    position: int
    sign: int

    @property
    def key(self) -> str:
        return f"{self.alice}{self.bob}|{self.sequence}"


S_TERMS: tuple[STermSpec, ...] = (
    STermSpec("B", "B'", "ABC", 2, -1),
    STermSpec("B", "B'", "bBβ", 2, -1),
    STermSpec("C", "C'", "ABC", 3, 1),
    STermSpec("C", "C'", "γcC", 3, 1),
    STermSpec("a", "a'", "bac", 2, -1),
    STermSpec("a", "a'", "Aaα", 2, -1),
    STermSpec("c", "c'", "bac", 3, 1),
    STermSpec("c", "c'", "γcC", 2, 1),
    STermSpec("α", "α'", "γβα", 3, 1),
    STermSpec("α", "α'", "Aaα", 3, 1),
    STermSpec("β", "β'", "γβα", 2, 1),
    STermSpec("β", "β'", "bBβ", 3, 1),
)


@dataclass(frozen=True)
class SquareCheck:
    """Result of the operator-identity audit of the six sequences.

    Attributes:
        products: Identity coefficient (+1 or -1) of each sequence's
            operator product.
        chi_combination: The products combined with the chi sign pattern;
            equals 6 when the square closes as expected.
        max_matrix_deviation: Largest entrywise deviation between the
            symbolic products and explicit 16x16 matrix products.
    """

    products: dict[str, int]
    chi_combination: float
    max_matrix_deviation: float


def mermin_square_check() -> SquareCheck:
    """Multiply out all six sequences symbolically and numerically.

    Verifies that each sequence is a mutually commuting triple whose
    product is ±Identity, and cross-checks the symbolic products against
    dense matrix multiplication.

    Raises:
        RuntimeError: If a triple fails to commute or a product is not
            proportional to the identity (cannot happen for the shipped
            observable table).
    """
    products: dict[str, int] = {}
    max_dev = 0.0
    for name in SEQUENCE_ORDER:
        trio = [OBSERVABLES[lab] for lab in SEQUENCES[name]]
        for i in range(3):
            for j in range(i + 1, 3):
                if not commutes(trio[i], trio[j]):
                    raise RuntimeError(f"sequence {name} is not a compatible context")
        prod = pauli_product(trio)
        if prod.x_mask or prod.z_mask:
            raise RuntimeError(f"sequence {name} does not multiply to the identity")
        coeff = prod.phase
        if coeff not in (1, -1):
            raise RuntimeError(f"sequence {name} has non-real identity coefficient {coeff}")
        products[name] = int(coeff.real)

        numeric = to_matrix(trio[0]) @ to_matrix(trio[1]) @ to_matrix(trio[2])
        dim = numeric.shape[0]
        max_dev = max(
            max_dev,
            float(np.max(np.abs(numeric - to_matrix(prod)))),
            float(np.max(np.abs(numeric - coeff * np.eye(dim)))),
        )

    chi_combination = float(sum(CHI_SIGNS[n] * products[n] for n in SEQUENCE_ORDER))
    return SquareCheck(products=products, chi_combination=chi_combination, max_matrix_deviation=max_dev)


def _checked_int(name: str, value, low=float("-inf"), high=float("inf")) -> int:
    """``value`` as an int; ``ValueError`` for a bool, a non-integer or a value not in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value < high:
        raise ValueError(f"{name} must lie in [{low}, {high}) and be an integer, got {value!r}")
    return int(value)
