"""Dense density-operator engine for the four-qubit state space.

``four_qubit_state`` is the one state builder: the preparation of
singlets pairing qubits 1-3 and 2-4, each pair mixed with white noise,
V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4.  Every ``DensityState`` is a 16×16 matrix,
validated once, on construction: the shape, finite entries, unit trace,
Hermitian, positive semidefinite within fixed tolerances.  Every value
the program reads from a state is tr(ρ · P) of a Pauli product P,
computed by ``_pauli_expectations`` in one contraction against a
read-only stack of Pauli matrices that its caller builds once and holds;
it is the one place that rejects an imaginary part.

States are immutable; the backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Validated 16×16 density operator on the four qubits.

    Construction copies the input, checks its shape and that every entry
    is finite, then trace/Hermiticity/positivity, and freezes the array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (16, 16):
            raise ValueError(f"density matrix must be 16x16 (four qubits), got shape {m.shape}")
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

    def __repr__(self) -> str:
        return "DensityState(16x16)"


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


def _pauli_stack(strings) -> np.ndarray:
    """Read-only (k, 16, 16) stack of the strings' matrices, for a caller to hold."""
    stack = np.stack([to_matrix(p) for p in strings])
    stack.flags.writeable = False
    return stack


def _pauli_expectations(rho: DensityState, stack: np.ndarray) -> np.ndarray:
    """Real tr(ρ · P) for each matrix P of a ``_pauli_stack``, in one contraction.

    Raises:
        RuntimeError: If an expectation has an imaginary part above
            ``HERMITICITY_TOL``.
    """
    values = np.einsum("kij,ji->k", stack, rho.matrix)
    worst = max(map(abs, values.imag.tolist()))
    if worst > HERMITICITY_TOL:
        raise RuntimeError(f"Pauli expectation has imaginary part {worst}")
    return values.real


def expectation(rho: DensityState, obs: PauliString) -> float:
    """Expectation value tr(rho * obs) of a Hermitian four-qubit Pauli string.

    Returns:
        A real value in [-1, 1].

    Raises:
        ValueError: On an observable not on 4 qubits or not Hermitian.
        RuntimeError: On an imaginary part above ``HERMITICITY_TOL``.
    """
    if obs.n_qubits != 4:
        raise ValueError(f"observable acts on {obs.n_qubits} qubits, the state on 4")
    if not obs.is_hermitian:
        raise ValueError(f"observable {obs.label} is not Hermitian")
    real = float(_pauli_expectations(rho, to_matrix(obs)[None])[0])
    if abs(real) > 1 + EIGENVALUE_TOL:
        raise RuntimeError(f"expectation of {obs.label} out of range: {real}")
    return min(1.0, max(-1.0, real))
