"""Dense density-operator engine for the four-qubit state space.

``four_qubit_state`` is the one state builder: the preparation of
singlets pairing qubits 1-3 and 2-4, each pair mixed with white noise,
V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4.  Every ``DensityState`` is a 16×16 matrix,
validated once, on construction: the shape, finite entries, unit trace,
Hermitian, positive semidefinite within fixed tolerances.  Every value
the program reads from a state is tr(ρ · P) of a Pauli product P, so
construction also computes the 256 coefficients tr(ρ · P) of the
letter-form strings, in one contraction, and every reader looks its
values up with the ±1 phases of its symbolic products.  ρ is Hermitian
exactly when all 256 are real: the one Hermiticity rule bounds their
imaginary parts, and the trace is the identity's coefficient.

States are immutable; the backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .observables import _checked_real
from .pauli import PHASES, PauliString

TRACE_TOL = 1e-10
# The largest imaginary part allowed in a Pauli coefficient is half of
# this.  Each entry of ρ meets 16 strings, each with weight 1/16, so no
# entry of ρ − ρ† then exceeds HERMITICITY_TOL, and no product read from
# an accepted state has an imaginary part above it.
HERMITICITY_TOL = 1e-10
# Eigenvalue tolerance is looser: eigvalsh returns the exact zero
# eigenvalues of a valid state (a pure one, say) as rounding-scale
# negatives, and caller-built matrices carry their own rounding.
EIGENVALUE_TOL = 1e-9


def _coefficient_index(p: PauliString) -> int:
    """Where the letter form of a four-qubit string sits in
    ``DensityState.coefficients``: tr(ρ · p) = p.phase · coefficients[index]."""
    return p.x_mask + 16 * p.z_mask


def _letter_entries() -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and entries of the 256 letter-form strings P, one
    nonzero entry per row r: tr(ρ · P) = Σ_r P[r, c] · ρ[c, r].

    The matrix index carries qubit 1 in its highest bit and a mask carries
    it in its lowest, so ``flip`` reverses a mask's bits.  In matrix bits,
    the string with masks (x, z) is i^|x∧z| X^x Z^z (Y = iXZ): row r
    holds i^|x∧z| · (-1)^|z∧c| in column c = r ⊕ x.  Returns the flat
    index of ρ[c, r] by (x, r) and P[r, c] by (x, z, r).
    """
    flip = [sum(((m >> j) & 1) << (3 - j) for j in range(4)) for m in range(16)]
    columns = np.array([[r ^ flip[x] for r in range(16)] for x in range(16)])
    signs = np.array([[1 - 2 * ((flip[z] & c).bit_count() & 1) for c in range(16)]
                      for z in range(16)])
    phases = np.array([[PHASES[(x & z).bit_count() % 4] for z in range(16)]
                       for x in range(16)])
    entries = np.ascontiguousarray(phases[:, :, None] * signs[:, columns].transpose(1, 0, 2))
    gather = columns * 16 + np.arange(16)
    for table in (gather, entries):
        table.flags.writeable = False
    return gather, entries


_GATHER, _ENTRIES = _letter_entries()


@dataclass(frozen=True, eq=False)
class DensityState:
    """Validated 16×16 density operator on the four qubits.

    Construction copies the input, checks its shape and that every entry
    is finite, computes ``coefficients``, then checks trace, Hermiticity
    and positivity, and freezes both arrays.

    Attributes:
        matrix: The read-only 16×16 complex matrix.
        coefficients: Read-only float64 array of the 256 values
            tr(ρ · P), P the letter-form string with X mask x and Z mask
            z at index x + 16·z (see ``pauli.PauliString``).
    """

    matrix: np.ndarray
    coefficients: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (16, 16):
            raise ValueError(f"density matrix must be 16x16 (four qubits), got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        c = np.einsum("xzi,xi->zx", _ENTRIES, m.ravel().take(_GATHER)).reshape(256)
        trace = complex(c[0])
        if abs(trace - 1) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within {TRACE_TOL}, got {trace}")
        worst = float(np.abs(c.imag).max())
        if worst > HERMITICITY_TOL / 2:
            raise ValueError(
                f"density matrix is not Hermitian: a Pauli coefficient has imaginary part {worst}")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < -EIGENVALUE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")
        coefficients = c.real.copy()
        m.flags.writeable = coefficients.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "coefficients", coefficients)

    def __repr__(self) -> str:
        return "DensityState(16x16)"


def _check_visibility(visibility: float) -> float:
    return _checked_real("visibility", visibility, 0, 1)


def _singlet() -> np.ndarray:
    """Read-only |ψ⁻⟩⟨ψ⁻| of the two-qubit singlet (|01> - |10>) / sqrt(2)."""
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1 / np.sqrt(2)
    vec[0b10] = -1 / np.sqrt(2)
    matrix = np.outer(vec, vec.conj())
    matrix.flags.writeable = False
    return matrix


_SINGLET = _singlet()


def four_qubit_state(visibility: float = 1.0) -> DensityState:
    """The four-qubit preparation: noisy singlets on pairs (1,3) and (2,4).

    Each pair is V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4, noise applied independently per
    pair; at visibility 1 this is the pure state singlet(1,3) ⊗ singlet(2,4)
    reordered to qubits (1,2,3,4).  Only the returned 16×16 state is
    validated.
    """
    v = _check_visibility(visibility)
    # The pair's axes are (i, i', j, j'): row bits, then column bits, of its
    # two qubits.  The first factor fills the axes of qubits 1 and 3 of
    # (i1, i2, i3, i4, j1, j2, j3, j4), the second those of qubits 2 and 4.
    p = (v * _SINGLET + (1 - v) * (np.eye(4, dtype=complex) / 4)).reshape(2, 2, 2, 2)
    return DensityState(
        (p[:, None, :, None, :, None, :, None] * p[None, :, None, :, None, :, None, :]).reshape(16, 16))


def expectation(rho: DensityState, obs: PauliString) -> float:
    """Expectation value tr(rho * obs) of a Hermitian four-qubit Pauli string,
    the coefficient of its letter form times its ±1 phase.

    Returns:
        A real value in [-1, 1].

    Raises:
        ValueError: On an observable that is not Hermitian.
        RuntimeError: On a value out of range by more than ``EIGENVALUE_TOL``.
    """
    if not obs.is_hermitian:
        raise ValueError(f"observable {obs.label} is not Hermitian")
    real = obs.phase.real * float(rho.coefficients[_coefficient_index(obs)])
    if abs(real) > 1 + EIGENVALUE_TOL:
        raise RuntimeError(f"expectation of {obs.label} out of range: {real}")
    return min(1.0, max(-1.0, real))
