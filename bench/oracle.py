"""Independent numpy oracle and the check record every gate returns.

Nothing here calls bellsquare.  Observables are rebuilt from letter
tables by Kronecker products, the noisy paired-singlet state is built by
hand, and a commuting triple measured in sequence is evaluated as the
joint expectation tr(rho * A * B).  Hidden-variable models are evaluated
term by term from the same tables.  A gate that compares a bellsquare
result with these values therefore compares two independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LETTER = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Letter forms of the fifteen observables, qubit 1 leftmost.
LETTER_DEFS = {
    "A": "ZIII", "B": "IZII", "C": "ZZII",
    "a": "IXII", "b": "XIII", "c": "XXII",
    "α": "ZXII", "β": "XZII", "γ": "YYII",
    "B'": "IIIZ", "C'": "IIZZ", "a'": "IIIX",
    "c'": "IIXX", "α'": "IIZX", "β'": "IIXZ",
}

SEQUENCES = {
    "ABC": ("A", "B", "C"),
    "bac": ("b", "a", "c"),
    "γβα": ("γ", "β", "α"),
    "Aaα": ("A", "a", "α"),
    "bBβ": ("b", "B", "β"),
    "γcC": ("γ", "c", "C"),
}
CHI_SIGNS = {"ABC": 1, "bac": 1, "γβα": 1, "Aaα": 1, "bBβ": 1, "γcC": -1}
LEADERS = ("A", "b", "γ")

# (Alice observable, Bob partner, sequence, 1-based slot, ideal sign).
S_TERMS = (
    ("B", "B'", "ABC", 2, -1), ("B", "B'", "bBβ", 2, -1),
    ("C", "C'", "ABC", 3, 1), ("C", "C'", "γcC", 3, 1),
    ("a", "a'", "bac", 2, -1), ("a", "a'", "Aaα", 2, -1),
    ("c", "c'", "bac", 3, 1), ("c", "c'", "γcC", 2, 1),
    ("α", "α'", "γβα", 3, 1), ("α", "α'", "Aaα", 3, 1),
    ("β", "β'", "γβα", 2, 1), ("β", "β'", "bBβ", 3, 1),
)
S_KEYS = tuple(f"{a}{b}|{seq}" for a, b, seq, _, _ in S_TERMS)

# First-measurement assignments read the paired observables through Bob.
_FIRST_MEASUREMENT = {"A": "A", "b": "b", "γ": "γ", "B": "B'", "C": "C'",
                      "a": "a'", "c": "c'", "α": "α'", "β": "β'"}

CHI_QUANTUM = 6.0
CROSSING = (math.sqrt(21.0) - 1.0) / 4.0


def matrix(label: str) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for letter in LETTER_DEFS[label]:
        m = np.kron(m, _LETTER[letter])
    return m


_MATRICES = {label: matrix(label) for label in LETTER_DEFS}


def werner_state(visibility: float) -> np.ndarray:
    """V * singlet + (1 - V) * I/4 on pairs (1,3) and (2,4), qubit order 1234."""
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    pair = visibility * np.outer(singlet, singlet) + (1.0 - visibility) * np.eye(4) / 4
    t = np.kron(pair, pair).reshape((2,) * 8)  # axes q1 q3 q2 q4 | q1 q3 q2 q4
    return t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def omega_closed_form(visibility: float) -> float:
    return 6.0 + 4.0 * visibility + 8.0 * visibility**2


def threshold_closed_form(chi_expt: float) -> float:
    return (math.sqrt(33.0 - 2.0 * chi_expt) - 1.0) / 4.0


def _expect(rho: np.ndarray, labels) -> float:
    op = np.eye(16, dtype=complex)
    for label in labels:
        op = op @ _MATRICES[label]
    return float(np.real(np.trace(rho @ op)))


def correlators(rho: np.ndarray) -> dict[str, float]:
    """The twelve conditional correlators as tr(rho * A * B)."""
    return {key: _expect(rho, (a, b)) for key, (a, b, _, _, _) in zip(S_KEYS, S_TERMS)}


def chi_terms(rho: np.ndarray) -> dict[str, float]:
    """The six sequence products as tr(rho * A1 * A2 * A3)."""
    return {seq: _expect(rho, trio) for seq, trio in SEQUENCES.items()}


def model_omega(alice: dict[tuple[str, int], int], bob: dict[str, int]) -> tuple[int, int]:
    """(omega_signed, omega_abs) of a deterministic model, term by term."""
    chi = sum(CHI_SIGNS[seq] * alice[seq, 1] * alice[seq, 2] * alice[seq, 3] for seq in SEQUENCES)
    s_signed = sum(sign * alice[seq, pos] * bob[b] for _, b, seq, pos, sign in S_TERMS)
    return chi + s_signed, chi + len(S_TERMS)


def leaders_shared(alice: dict[tuple[str, int], int]) -> bool:
    return all(
        len({alice[seq, 1] for seq, trio in SEQUENCES.items() if trio[0] == leader}) == 1
        for leader in LEADERS
    )


def assignment_chi(values: dict[str, int]) -> int:
    """Chi of a context-free assignment keyed by Alice or first-measurement labels."""
    relabel = {k: k for k in _FIRST_MEASUREMENT} if "B" in values else _FIRST_MEASUREMENT
    return sum(
        CHI_SIGNS[seq] * math.prod(values[relabel[label]] for label in trio)
        for seq, trio in SEQUENCES.items()
    )


@dataclass(frozen=True)
class Check:
    """One gate comparison: ``error`` must not exceed ``tol``.

    ``tol == 0`` demands an exact match.  ``margin`` is error / tol, the
    share of the tolerance used; it is above 1 exactly when the check fails.
    """

    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol  # NaN fails

    @property
    def margin(self) -> float:
        if self.passed:
            return self.error / self.tol if self.tol else 0.0
        return math.inf


def close(name: str, value, expected: float, tol: float) -> Check:
    try:
        error = abs(float(value) - expected)
    except (TypeError, ValueError):
        error = math.nan
    return Check(name, error, tol)


def holds(name: str, condition: bool) -> Check:
    return Check(name, 0.0 if condition else 1.0, 0.0)
