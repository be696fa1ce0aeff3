"""Dense density-operator engine for small qubit registers.

Builds the ideal four-qubit preparation (singlets pairing qubits 1-3 and
2-4) with optional per-pair white noise, and reads expectation values of
Pauli strings from it.  Every returned state is validated: finite entries,
unit trace, Hermitian, positive semidefinite within fixed tolerances.

States are immutable; the backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, to_matrix

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
# Eigenvalue tolerance is looser: eigvalsh returns the exact zero
# eigenvalues of a valid state (a pure one, say) as rounding-scale
# negatives, and caller-built matrices carry their own rounding.
EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityState:
    """Validated 2^n x 2^n density operator.

    Construction copies the input, checks that every entry is finite,
    then trace/Hermiticity/positivity, and freezes the array.
    ``n_qubits`` is derived from the shape.
    """

    matrix: np.ndarray
    n_qubits: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if dim != 1 << n or n < 1:
            raise ValueError(f"dimension {dim} is not a power of two >= 2")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        trace = complex(np.trace(m))
        if abs(trace - 1) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within {TRACE_TOL}, got {trace}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < -EIGENVALUE_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_qubits", n)

    def __repr__(self) -> str:
        return f"DensityState(n_qubits={self.n_qubits})"


def _check_visibility(visibility: float) -> float:
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return v


def singlet_pair() -> DensityState:
    """Two-qubit singlet (|01> - |10>) / sqrt(2) as a pure density operator."""
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1 / np.sqrt(2)
    vec[0b10] = -1 / np.sqrt(2)
    return DensityState(np.outer(vec, vec.conj()))


def werner_pair(visibility: float) -> DensityState:
    """Singlet mixed with white noise: V * singlet + (1 - V) * I/4."""
    v = _check_visibility(visibility)
    mixed = np.eye(4, dtype=complex) / 4
    return DensityState(v * singlet_pair().matrix + (1 - v) * mixed)


def four_qubit_state(visibility: float = 1.0) -> DensityState:
    """The four-qubit preparation: noisy singlets on pairs (1,3) and (2,4).

    Noise is applied independently per pair; at visibility 1 this is the
    pure state singlet(1,3) ⊗ singlet(2,4) reordered to qubits (1,2,3,4).
    """
    pair = werner_pair(visibility).matrix
    stacked = np.kron(pair, pair)  # qubit layout (1,3,2,4)
    return DensityState(_reorder_qubits(stacked, (0, 2, 1, 3)))


def _reorder_qubits(matrix: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Rearrange tensor factors: new axis k holds current axis perm[k]."""
    n = len(perm)
    t = matrix.reshape((2,) * (2 * n))
    t = t.transpose([*perm, *(p + n for p in perm)])
    return t.reshape(matrix.shape)


def _check_observable(rho: DensityState, obs: PauliString) -> None:
    if obs.n_qubits != rho.n_qubits:
        raise ValueError(
            f"observable acts on {obs.n_qubits} qubits, state has {rho.n_qubits}"
        )
    if not obs.is_hermitian:
        raise ValueError(f"observable {obs.label} is not Hermitian")


def expectation(rho: DensityState, obs: PauliString) -> float:
    """Expectation value tr(rho * obs) of a Hermitian Pauli string.

    Returns:
        A real value in [-1, 1].

    Raises:
        ValueError: On qubit-count mismatch or non-Hermitian observable.
    """
    _check_observable(rho, obs)
    value = complex(np.trace(to_matrix(obs) @ rho.matrix))
    if abs(value.imag) > HERMITICITY_TOL:
        raise RuntimeError(f"expectation of {obs.label} has imaginary part {value.imag}")
    real = value.real
    if abs(real) > 1 + EIGENVALUE_TOL:
        raise RuntimeError(f"expectation of {obs.label} out of range: {real}")
    return float(min(1.0, max(-1.0, real)))
