"""Dense density-operator engine for small qubit registers.

Builds the ideal four-qubit preparation (singlets pairing qubits 1-3 and
2-4) with optional per-pair white noise, and provides expectation values,
projective (Lüders-rule) measurement updates and partial traces.  Every
returned state is validated: finite entries, unit trace, Hermitian,
positive semidefinite within fixed tolerances.

States are immutable; the backing arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import PauliString, to_matrix

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
# Eigenvalue tolerance is looser: repeated Lüders renormalizations
# accumulate rounding at the 1e-15 scale per step.
EIGENVALUE_TOL = 1e-9
ZERO_PROBABILITY_TOL = 1e-12


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

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

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


@lru_cache(maxsize=None)
def _projectors(obs: PauliString) -> tuple[np.ndarray, np.ndarray]:
    m = to_matrix(obs)
    eye = np.eye(m.shape[0], dtype=complex)
    plus = (eye + m) / 2
    minus = (eye - m) / 2
    plus.flags.writeable = False
    minus.flags.writeable = False
    return plus, minus


def luders_update(
    rho: DensityState, obs: PauliString, outcome: int
) -> tuple[float, DensityState | None]:
    """Projective measurement update for one outcome of a Pauli observable.

    Args:
        rho: State before the measurement.
        obs: Hermitian Pauli string with ±1 eigenvalues.
        outcome: +1 or -1.

    Returns:
        ``(probability, post_state)`` where the post-state is the
        renormalized projected state, or ``(0.0, None)`` when the outcome
        probability falls below ``ZERO_PROBABILITY_TOL``.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    _check_observable(rho, obs)
    proj = _projectors(obs)[0 if outcome == 1 else 1]
    prob = float(np.real(np.trace(proj @ rho.matrix)))
    if prob < ZERO_PROBABILITY_TOL:
        return 0.0, None
    post = proj @ rho.matrix @ proj / prob
    post = (post + post.conj().T) / 2
    return prob, DensityState(post)


def partial_trace(rho: DensityState, keep) -> DensityState:
    """Trace out all qubits except ``keep`` (1-based qubit numbers).

    The kept qubits retain their relative order.
    """
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if kept[0] < 1 or kept[-1] > rho.n_qubits:
        raise ValueError(f"keep={kept} outside qubits 1..{rho.n_qubits}")
    if len(kept) == rho.n_qubits:
        return rho

    n = rho.n_qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    row_subs = list(range(n))
    col_subs = [n + j for j in range(n)]
    for j in range(n):
        if (j + 1) not in kept:
            col_subs[j] = row_subs[j]  # contract the traced qubit
    out_subs = [j - 1 for j in kept] + [n + j - 1 for j in kept]
    reduced = np.einsum(t, row_subs + col_subs, out_subs)
    dim = 1 << len(kept)
    return DensityState(reduced.reshape(dim, dim))
