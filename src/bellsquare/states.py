"""Dense density-operator engine for small qubit registers.

``four_qubit_state`` is the one state builder: the preparation of
singlets pairing qubits 1-3 and 2-4, each pair mixed with white noise,
V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4.  Expectation values of Pauli strings are read
from a state in one contraction per batch against a cached stack of their
matrices.  Every ``DensityState`` is validated once, on construction:
finite entries, unit trace, Hermitian, positive semidefinite within fixed
tolerances.

States are immutable; the backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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
    pair = v * _SINGLET + (1 - v) * (np.eye(4, dtype=complex) / 4)
    stacked = np.kron(pair, pair)  # qubit layout (1,3,2,4)
    return DensityState(_reorder_qubits(stacked, (0, 2, 1, 3)))


def _reorder_qubits(matrix: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Rearrange tensor factors: new axis k holds current axis perm[k]."""
    n = len(perm)
    t = matrix.reshape((2,) * (2 * n))
    t = t.transpose([*perm, *(p + n for p in perm)])
    return t.reshape(matrix.shape)


@cache
def _pauli_stack(strings: tuple[PauliString, ...]) -> np.ndarray:
    """Read-only (k, 2^n, 2^n) stack of the strings' matrices."""
    stack = np.stack([to_matrix(p) for p in strings])
    stack.flags.writeable = False  # shared by every caller through the cache
    return stack


def _pauli_expectations(rho: DensityState, strings: tuple[PauliString, ...]) -> np.ndarray:
    """Complex tr(ρ · P) for each string P, in one contraction."""
    return np.einsum("kij,ji->k", _pauli_stack(strings), rho.matrix)


def expectation(rho: DensityState, obs: PauliString) -> float:
    """Expectation value tr(rho * obs) of a Hermitian Pauli string.

    Returns:
        A real value in [-1, 1].

    Raises:
        ValueError: On qubit-count mismatch or non-Hermitian observable.
    """
    if obs.n_qubits != rho.n_qubits:
        raise ValueError(f"observable acts on {obs.n_qubits} qubits, state has {rho.n_qubits}")
    if not obs.is_hermitian:
        raise ValueError(f"observable {obs.label} is not Hermitian")
    value = complex(_pauli_expectations(rho, (obs,))[0])
    if abs(value.imag) > HERMITICITY_TOL:
        raise RuntimeError(f"expectation of {obs.label} has imaginary part {value.imag}")
    real = value.real
    if abs(real) > 1 + EIGENVALUE_TOL:
        raise RuntimeError(f"expectation of {obs.label} out of range: {real}")
    return float(min(1.0, max(-1.0, real)))
