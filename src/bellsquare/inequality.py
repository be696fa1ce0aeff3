"""Assembly of the combined inequality from exact or sampled data.

The combined value omega = chi + S compares against the local-model bound
16, where chi sums the six sequence products (the γcC product entering
with a minus sign) and S sums twelve conditional Alice-Bob correlators.

Two S variants are first-class everywhere:

* ``abs``: the sum of absolute values of the twelve correlators.
* ``signed``: the sum with each correlator weighted by its ideal-state
  correlation sign, so every term contributes +1 at visibility 1.

Both variants are computed and reported because the exhaustive
hidden-variable scan gives them different classical bounds (16 for
signed, 18 for abs); see :mod:`bellsquare.hv_models`.

``omega(rho)`` is the one entry point to the exact engine, which needs
no outcome distribution.  All the observables of a setting commute, so
each correlator is the expectation of one Pauli product,
<A B'> = tr(ρ · A · B'), read from one contraction of ρ with a cached
stack of the twelve product matrices.  Each chi term is the identity
coefficient of its sequence product, exactly ±1 for every state
(compatible sequences have joint-measurement statistics: Gühne et al.,
PRA 81, 022121 (2010)).  The outcome distributions of
:mod:`bellsquare.sequences` serve the finite-shot sampler.

For the noisy preparation the signed S value is the polynomial
``4V + 8V**2`` in the visibility V while chi stays pinned at 6, so the
combined value crosses 16 at ``V = (sqrt(21) - 1) / 4 ≈ 0.8956``.  Every
correlator of that family is zero or carries its ideal sign, so the abs
and signed omega are the same number there: ``sweep`` reports both per
row and bisects on the signed one.  The closed-form threshold
``visibility_threshold`` generalizes the root to an observed chi value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping

import numpy as np

from .observables import CHI_SIGNS, OBSERVABLES, S_TERMS, SEQUENCE_ORDER, SEQUENCES, _checked_int
from .pauli import pauli_product, to_matrix
from .sequences import (
    SequenceSpec,
    _check_four_qubits,
    _count_outcomes,
    derive_seed,
    sequence_distribution,
)
from .states import HERMITICITY_TOL, DensityState, four_qubit_state

NONCONTEXTUAL_CHI_BOUND = 4.0
LOCAL_OMEGA_BOUND = 16.0


@dataclass(frozen=True)
class ChiTerms:
    """The six per-sequence product expectations, keyed by sequence name."""

    terms: Mapping[str, float]

    @property
    def chi(self) -> float:
        return float(sum(CHI_SIGNS[name] * self.terms[name] for name in SEQUENCE_ORDER))


@dataclass(frozen=True)
class STerms:
    """The twelve conditional correlators, keyed like ``"BB'|ABC"``."""

    terms: Mapping[str, float]

    @property
    def s_abs(self) -> float:
        return float(sum(abs(self.terms[t.key]) for t in S_TERMS))

    @property
    def s_signed(self) -> float:
        return float(sum(t.sign * self.terms[t.key] for t in S_TERMS))


@dataclass(frozen=True)
class InequalityReport:
    """All inequality ingredients for one state, both S variants."""

    chi_terms: ChiTerms
    s_terms: STerms
    chi: float
    s_abs: float
    s_signed: float
    omega_abs: float
    omega_signed: float

    @property
    def violated_abs(self) -> bool:
        return self.omega_abs > LOCAL_OMEGA_BOUND

    @property
    def violated_signed(self) -> bool:
        return self.omega_signed > LOCAL_OMEGA_BOUND

    @property
    def chi_violated(self) -> bool:
        return self.chi > NONCONTEXTUAL_CHI_BOUND


@cache
def _sequence_phase(name: str) -> float:
    """Identity coefficient of sequence ``name``'s operator product: ±1."""
    return pauli_product(OBSERVABLES[lab] for lab in SEQUENCES[name]).phase.real


@cache
def _s_operator_stack() -> np.ndarray:
    """Read-only (12, 16, 16) stack of the matrices A · B', one per S term."""
    stack = np.stack([
        to_matrix(pauli_product([OBSERVABLES[t.alice], OBSERVABLES[t.bob]]))
        for t in S_TERMS
    ])
    stack.flags.writeable = False  # shared by every caller through the cache
    return stack


def omega(rho: DensityState) -> InequalityReport:
    """Full inequality report for a four-qubit state, both S variants.

    Each chi term is the identity coefficient of its sequence's operator
    product: a commuting triple multiplies to ±Identity, so the term is
    that sign for every state, read from the symbolic Pauli product and
    never estimated.  Alice's observable and Bob's partner commute with the
    rest of their setting, so each of the twelve correlators is
    tr(ρ · A · B'), all computed by one contraction against the cached
    operator stack.

    Raises:
        ValueError: On a state not on 4 qubits.
        RuntimeError: If a correlator has an imaginary part above
            ``HERMITICITY_TOL``.
    """
    _check_four_qubits(rho)
    values = np.einsum("kij,ji->k", _s_operator_stack(), rho.matrix)
    worst = float(np.max(np.abs(values.imag)))
    if worst > HERMITICITY_TOL:
        raise RuntimeError(f"correlator has imaginary part {worst}")
    chi_terms = ChiTerms(terms={name: _sequence_phase(name) for name in SEQUENCE_ORDER})
    s_terms = STerms(terms=dict(zip((t.key for t in S_TERMS), values.real.tolist())))
    chi = chi_terms.chi
    s_abs = s_terms.s_abs
    s_signed = s_terms.s_signed
    return InequalityReport(
        chi_terms=chi_terms,
        s_terms=s_terms,
        chi=chi,
        s_abs=s_abs,
        s_signed=s_signed,
        omega_abs=chi + s_abs,
        omega_signed=chi + s_signed,
    )


def visibility_threshold(chi_expt: float) -> float:
    """Minimum visibility for violating the bound 16 at an observed chi.

    Returns ``(sqrt(33 - 2*chi_expt) - 1) / 4``, the positive root of
    ``8V^2 + 4V + (chi_expt - 16) = 0``.

    Raises:
        ValueError: If ``chi_expt`` lies outside [-6, 6].
    """
    x = float(chi_expt)
    if not -6.0 <= x <= 6.0:
        raise ValueError(f"chi_expt must lie in [-6, 6], got {chi_expt}")
    return (math.sqrt(33.0 - 2.0 * x) - 1.0) / 4.0


def fidelity_from_visibility(visibility: float) -> float:
    """Per-pair root fidelity sqrt(F) = sqrt(3V + 1) / 2, with F = <psi-|rho|psi-> =
    (1 + 3V) / 4 for one noisy pair; the four-qubit fidelity is F^2, not this."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return math.sqrt(3.0 * v + 1.0) / 2.0


@dataclass(frozen=True)
class SweepRow:
    visibility: float
    chi: float
    s_abs: float
    s_signed: float
    omega_abs: float
    omega_signed: float


@dataclass(frozen=True)
class SweepResult:
    """Inequality values over a visibility grid.

    ``crossing_bracket`` is the first grid interval on which the signed
    omega crosses the bound 16 (None if it never does), and ``crossing`` is
    that root refined by bisection on the exact engine.  On this state
    family the abs and signed omega are the same number, so both cross
    together.
    """

    rows: tuple[SweepRow, ...]
    crossing_bracket: tuple[float, float] | None
    crossing: float | None


def sweep(v_grid) -> SweepResult:
    """Evaluate the inequality on an ascending visibility grid."""
    grid = [float(v) for v in v_grid]
    if not grid:
        raise ValueError("v_grid must not be empty")
    if any(not 0.0 <= v <= 1.0 for v in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")

    rows = []
    for v in grid:
        report = omega(four_qubit_state(v))
        rows.append(
            SweepRow(
                visibility=v,
                chi=report.chi,
                s_abs=report.s_abs,
                s_signed=report.s_signed,
                omega_abs=report.omega_abs,
                omega_signed=report.omega_signed,
            )
        )

    bracket = None
    for prev, curr in zip(rows, rows[1:]):
        if prev.omega_signed < LOCAL_OMEGA_BOUND <= curr.omega_signed:
            bracket = (prev.visibility, curr.visibility)
            break
    crossing = None
    if bracket is not None:
        crossing = find_violation_threshold(lo=bracket[0], hi=bracket[1])
    return SweepResult(rows=tuple(rows), crossing_bracket=bracket, crossing=crossing)


def find_violation_threshold(lo: float = 0.0, hi: float = 1.0, tol: float = 1e-10) -> float:
    """Visibility where the engine's signed omega(V) reaches 16, by bisection.

    Requires omega(lo) <= 16 <= omega(hi) and a finite ``tol > 0``.
    Bisection also stops once the midpoint rounds to an endpoint, so a
    ``tol`` below the float spacing still returns.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")

    def excess(v: float) -> float:
        return omega(four_qubit_state(v)).omega_signed - LOCAL_OMEGA_BOUND

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(f"omega - 16 does not change sign on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class TermEstimate:
    """Finite-shot estimate of one inequality ingredient.

    ``sigma`` is the binomial standard error sqrt((1 - exact^2) / n)
    evaluated at the exact value; it is zero for deterministic terms,
    in which case the estimate must match exactly.
    """

    key: str
    exact: float
    estimate: float
    sigma: float
    n_shots: int

    @property
    def z_score(self) -> float:
        if self.sigma == 0.0:
            return 0.0 if self.estimate == self.exact else math.inf
        return (self.estimate - self.exact) / self.sigma


@dataclass(frozen=True)
class SampledInequality:
    """All 18 inequality ingredients estimated from seeded sampling."""

    visibility: float
    shots_per_setting: int
    seed: int
    chi_terms: dict[str, TermEstimate]
    s_terms: dict[str, TermEstimate]
    chi: float
    s_abs: float
    s_signed: float
    omega_abs: float
    omega_signed: float
    exact: InequalityReport = field(repr=False)

    @property
    def max_abs_z(self) -> float:
        scores = [abs(t.z_score) for t in self.chi_terms.values()]
        scores += [abs(t.z_score) for t in self.s_terms.values()]
        return max(scores)

    def within(self, n_sigma: float = 5.0) -> bool:
        return self.max_abs_z <= n_sigma


def _term_estimate(key: str, exact: float, total: int, n_shots: int) -> TermEstimate:
    """Estimate of one term from the integer sum of its ``n_shots`` ±1 values."""
    sigma = math.sqrt(max(1.0 - exact * exact, 0.0) / n_shots)
    return TermEstimate(key, exact, total / n_shots, sigma, n_shots)


def estimate_inequality(visibility: float, shots: int, seed: int) -> SampledInequality:
    """Finite-shot estimates of all inequality ingredients.

    Runs the twelve (sequence, Bob observable) settings with ``shots``
    samples each, on sub-streams derived from ``seed`` by setting index.
    Each sequence appears in two settings; its chi term pools the Alice
    outcomes of both.  Only the count of each outcome cell of the
    SplitMix64 draws is kept, in fixed chunks that cannot change it; a sum
    of ±1 values is exact, so each estimate is the mean over the shots.
    The exact references are the terms of ``omega(rho)``.  ``shots`` must
    be an integer >= 1 and ``seed`` an integer, else ``ValueError``.
    """
    shots = _checked_int("shots", shots, 1)
    rho = four_qubit_state(visibility)
    exact = omega(rho)

    s_estimates: dict[str, TermEstimate] = {}
    pooled: dict[str, list[int]] = {name: [] for name in SEQUENCE_ORDER}
    for index, term in enumerate(S_TERMS):
        dist = sequence_distribution(rho, SequenceSpec(term.sequence, term.bob))
        cells, counts = _count_outcomes(dist, shots, derive_seed(seed, index))
        total = int(counts @ (cells[:, term.position - 1] * cells[:, 3]))
        s_estimates[term.key] = _term_estimate(term.key, exact.s_terms.terms[term.key], total, shots)
        pooled[term.sequence].append(int(counts @ (cells[:, 0] * cells[:, 1] * cells[:, 2])))

    chi_estimates = {
        name: _term_estimate(name, exact.chi_terms.terms[name], sum(totals), shots * len(totals))
        for name, totals in pooled.items()
    }
    chi = ChiTerms({k: t.estimate for k, t in chi_estimates.items()}).chi
    s_terms = STerms({k: t.estimate for k, t in s_estimates.items()})
    s_abs, s_signed = s_terms.s_abs, s_terms.s_signed
    return SampledInequality(
        visibility=float(visibility),
        shots_per_setting=shots,
        seed=seed,
        chi_terms=chi_estimates,
        s_terms=s_estimates,
        chi=chi,
        s_abs=s_abs,
        s_signed=s_signed,
        omega_abs=chi + s_abs,
        omega_signed=chi + s_signed,
        exact=exact,
    )
