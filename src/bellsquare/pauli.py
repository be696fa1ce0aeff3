"""Exact algebra of signed Pauli strings on the four qubits.

A Pauli string is a scalar phase times a tensor product of single-qubit
Pauli operators, stored as X/Z bit masks plus an integer power of i.
Products and commutation checks are exact integer arithmetic; matrices
appear only through :func:`to_matrix`, which is used to cross-check the
symbolic layer numerically.

Conventions:
    * Qubits are numbered from 1 and qubit 1 is the most significant
      tensor factor: ``to_matrix(p) == kron(p_1, p_2, p_3, p_4)``.
    * Mask bit ``j - 1`` carries qubit ``j``.
    * Internally a string is ``i**phase_exp * prod_j X^x_j Z^z_j``.
      A site with both bits set equals ``XZ = -iY``, so the phase shown
      in front of the letter form (exposed as :attr:`PauliString.phase`)
      folds one factor of ``-i`` per Y site back in.  Storing Y this way
      keeps every phase an exact power of i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_EXP = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_SITE_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}

_SITE_MATRIX = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z = -iY
}


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-qubit Pauli operators on the four qubits.

    Attributes:
        x_mask: Bit j-1 set iff the factor on qubit j contains X.
        z_mask: Bit j-1 set iff the factor on qubit j contains Z.
        phase_exp: Exponent k of the internal phase i**k (reduced mod 4).

    Raises:
        ValueError: Unless every field is an int (not a bool) and both
            masks lie in [0, 16).
    """

    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        for value in (self.x_mask, self.z_mask, self.phase_exp):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"masks and phase_exp must be ints, got {value!r}")
        if not 0 <= self.x_mask < 16 or not 0 <= self.z_mask < 16:
            raise ValueError(
                f"masks must fit in 4 bits: x={self.x_mask:#x}, z={self.z_mask:#x}")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls) -> "PauliString":
        return cls(0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a letter-form label such as ``"ZIII"``, ``"-YYII"`` or ``"+iXZII"``.

        The optional prefix is one of ``+``, ``-``, ``+i``, ``-i``, ``i``
        (lowercase i; uppercase I is the identity letter); four letters follow.
        """
        pos = 0
        while pos < len(label) and label[pos] not in "IXYZ":
            pos += 1
        prefix, letters = label[:pos], label[pos:]
        if prefix not in _PREFIX_EXP:
            raise ValueError(f"bad phase prefix {prefix!r} in label {label!r}")
        if len(letters) != 4:
            raise ValueError(f"label {label!r} needs four Pauli letters, got {len(letters)}")
        x_mask = z_mask = 0
        phase_exp = _PREFIX_EXP[prefix]
        for j, letter in enumerate(letters):
            if letter in "XY":
                x_mask |= 1 << j
            if letter in "ZY":
                z_mask |= 1 << j
            if letter == "Y":
                phase_exp += 1  # Y = i X Z
            if letter not in "IXYZ":
                raise ValueError(f"bad Pauli letter {letter!r} in label {label!r}")
        return cls(x_mask, z_mask, phase_exp)

    @property
    def y_overlap(self) -> int:
        """Number of sites carrying both X and Z (i.e. Y letters)."""
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def phase(self) -> complex:
        """Coefficient of the letter form, one of +1, -1, +i, -i."""
        return PHASES[(self.phase_exp - self.y_overlap) % 4]

    @property
    def is_hermitian(self) -> bool:
        """True iff the operator is Hermitian (letter-form phase is real)."""
        return (self.phase_exp - self.y_overlap) % 2 == 0

    @property
    def is_identity(self) -> bool:
        """True iff the string is exactly +Identity."""
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_exp == 0

    @property
    def letters(self) -> str:
        return "".join(
            _SITE_LETTER[(self.x_mask >> j) & 1, (self.z_mask >> j) & 1]
            for j in range(4)
        )

    @property
    def label(self) -> str:
        return _PHASE_PREFIX[(self.phase_exp - self.y_overlap) % 4] + self.letters

    @property
    def support(self) -> tuple[int, ...]:
        """1-based qubit numbers carrying a non-identity letter."""
        mask = self.x_mask | self.z_mask
        return tuple(j + 1 for j in range(4) if (mask >> j) & 1)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_mul(self, other)

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Group product p * q with the exact accumulated phase.

    Per site, ``(X^a Z^b)(X^c Z^d) = (-1)^(b*c) X^(a+c) Z^(b+d)``, so the
    product masks are XORs and the phase picks up i^(2 * |z_p & x_q|).
    """
    swaps = (p.z_mask & q.x_mask).bit_count()
    return PauliString(
        p.x_mask ^ q.x_mask,
        p.z_mask ^ q.z_mask,
        p.phase_exp + q.phase_exp + 2 * swaps,
    )


def pauli_product(strings) -> PauliString:
    """Left-to-right product of an iterable of Pauli strings."""
    return reduce(pauli_mul, strings)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q commute (even symplectic inner product of masks)."""
    parity = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return parity % 2 == 0


@lru_cache(maxsize=None)
def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 16 x 16 complex matrix of the string.

    The returned array is cached and marked read-only; copy before mutating.
    """
    m = np.array([[PHASES[p.phase_exp]]], dtype=complex)
    for j in range(4):
        site = _SITE_MATRIX[(p.x_mask >> j) & 1, (p.z_mask >> j) & 1]
        m = np.kron(m, site)
    m.flags.writeable = False
    return m
