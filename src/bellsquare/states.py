"""Dense density-operator engine for the four-qubit state space.

``four_qubit_state`` is the one state builder: the preparation of
singlets pairing qubits 1-3 and 2-4, each pair mixed with white noise,
V·|ψ⁻⟩⟨ψ⁻| + (1 − V)·𝟙/4.  Every ``DensityState`` is a 16×16 matrix,
validated once, on construction: the shape, finite entries, unit trace,
Hermitian, positive semidefinite within fixed tolerances.  Every value
the program reads from a state is tr(ρ · P) of a Pauli product P, so
construction also computes the 256 coefficients tr(ρ · P) of the
letter-form strings, and every reader looks its values up with the ±1
phases of its symbolic products.  The contraction is one 16×16 matmul by
a Sylvester–Hadamard matrix and one elementwise phase (see
``_letter_entries``).  ρ is Hermitian exactly when all 256 are real: the
one Hermiticity rule bounds their imaginary parts, and the trace is the
identity's coefficient.  Positivity is one Cholesky factorization of
ρ + EIGENVALUE_TOL·𝟙; only when it fails does ``eigvalsh`` decide, so
every refusal names the lowest eigenvalue.

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
# Eigenvalue tolerance is looser: the exact zero eigenvalues of a valid
# state (a pure one, say) come out as rounding-scale negatives, and
# caller-built matrices carry their own rounding.  ρ is refused when an
# eigenvalue lies below -EIGENVALUE_TOL.  ρ + EIGENVALUE_TOL·𝟙 has a
# Cholesky factor exactly when every eigenvalue lies above it, so a factor
# accepts ρ at once; when the factorization fails, eigvalsh decides, and
# its refusal names the eigenvalue.  The two checks can differ only on a
# lowest eigenvalue within rounding of -EIGENVALUE_TOL.
EIGENVALUE_TOL = 1e-9
_POSITIVITY_SHIFT = EIGENVALUE_TOL * np.eye(16, dtype=complex)
_POSITIVITY_SHIFT.flags.writeable = False


def _coefficient_index(p: PauliString) -> int:
    """Where the letter form of a four-qubit string sits in
    ``DensityState.coefficients``: tr(ρ · p) = p.phase · coefficients[index]."""
    return p.x_mask + 16 * p.z_mask


def _letter_entries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the contraction that gives the 256 coefficients
    tr(ρ · P) of the letter-form strings P.

    The matrix index carries qubit 1 in its highest bit and a mask carries
    it in its lowest, so ``flip`` reverses a mask's bits.  In matrix bits,
    the string with masks (x, z) is i^|x∧z| X^x Z^z (Y = iXZ): row r
    holds i^|x∧z| · (-1)^|z∧c| in its one nonzero column c = r ⊕ x, and
    tr(ρ · P) = Σ_r P[r, c] · ρ[c, r].  As (-1)^|z∧c| = (-1)^|z∧x| ·
    (-1)^|z∧r| and i^k · (-1)^k = (-i)^k, this is (-i)^|x∧z| · Σ_r H[z, r]
    · ρ[r ⊕ x, r], with H the Sylvester–Hadamard matrix (-1)^|z∧r|.
    Returns, with x and z in mask order, the flat index of ρ[r ⊕ x, r] by
    (r, x), H by (z, r) and the phases (-i)^|x∧z| by (z, x).
    """
    flip = [sum(((m >> j) & 1) << (3 - j) for j in range(4)) for m in range(16)]
    columns = np.array([[r ^ flip[x] for x in range(16)] for r in range(16)])
    gather = columns * 16 + np.arange(16)[:, None]
    hadamard = np.array([[1.0 - 2 * ((flip[z] & r).bit_count() & 1) for r in range(16)]
                         for z in range(16)])
    phases = np.array([[PHASES[-(x & z).bit_count() % 4] for x in range(16)]
                       for z in range(16)])
    for table in (gather, hadamard, phases):
        table.flags.writeable = False
    return gather, hadamard, phases


_GATHER, _HADAMARD, _PHASES = _letter_entries()


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
        # The real matmul sums the real and imaginary parts of the gathered
        # entries side by side.  A phase product can turn a zero into -0.0,
        # and + 0.0 turns it back, so each coefficient has the bytes of the
        # plain sum Σ_r P[r, c] · ρ[c, r].
        sums = (_HADAMARD @ m.ravel().take(_GATHER).view(float)).view(complex)
        c = (_PHASES * sums + 0.0).reshape(256)
        trace = complex(c[0])
        if abs(trace - 1) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within {TRACE_TOL}, got {trace}")
        worst = float(np.abs(c.imag).max())
        if worst > HERMITICITY_TOL / 2:
            raise ValueError(
                f"density matrix is not Hermitian: a Pauli coefficient has imaginary part {worst}")
        try:
            np.linalg.cholesky(m + _POSITIVITY_SHIFT)
        except np.linalg.LinAlgError:
            lowest = float(np.linalg.eigvalsh(m)[0])
            if lowest < -EIGENVALUE_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lowest}") from None
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
_NOISE = np.eye(4, dtype=complex) / 4
_NOISE.flags.writeable = False


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
    p = (v * _SINGLET + (1 - v) * _NOISE).reshape(2, 2, 2, 2)
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
