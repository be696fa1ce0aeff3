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

``omega(rho)`` needs no outcome distribution.  All the observables of a
setting commute, so each correlator is the expectation of one Pauli
product, <A A'> = tr(ρ · A · A'), the same in both sequences that hold A:
all twelve are six of the state's Pauli coefficients, each times the ±1
phase of its pair product, found at import from the symbolic products.
The outcome distributions of :mod:`bellsquare.sequences`, which feed
the finite-shot sampler, read the same coefficients.
Each chi term is the identity coefficient of its sequence product,
exactly ±1 for every state (compatible sequences have joint-measurement
statistics: Gühne et al., PRA 81, 022121 (2010)).  ``omega`` is the only
reader of the correlators and sequence products.  One private assembly
sums chi, both S and both omega from the term maps, and all four
producers of these values return its ``InequalityReport``: ``omega``,
``sweep`` (one report per grid point), ``estimate_inequality`` (the
report of the point estimates, beside that of the state) and
``hv_models.evaluate_model``, whose integer ±1 outcome products sum to
integer values.

For the noisy preparation the signed S value is the polynomial
``4V + 8V**2`` in the visibility V while chi stays pinned at 6, so the
combined value crosses 16 at ``V = (sqrt(21) - 1) / 4 ≈ 0.8956``.  Every
correlator of that family is zero or carries its ideal sign, so the abs
and signed omega are the same number there: ``sweep`` reports both per
point and bisects on the signed one.  The closed-form threshold
``visibility_threshold`` generalizes the root to an observed chi value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping

import numpy as np

from .observables import (
    BOB_LABELS,
    CHI_SIGNS,
    OBSERVABLES,
    PAIR_SIGNS,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    _checked_int,
    _checked_real,
)
from .pauli import pauli_product
from .sequences import SequenceSpec, _count_settings, derive_seed, sequence_distribution
from .states import DensityState, _check_visibility, _coefficient_index, four_qubit_state

NONCONTEXTUAL_CHI_BOUND = 4.0
LOCAL_OMEGA_BOUND = 16.0
# Largest sweep grid, the point count of 0:1:1e-5; each point's report holds about 1.3 KB.
MAX_GRID_POINTS = 100_001


@dataclass(frozen=True)
class ChiTerms:
    """The six sequence products, keyed by sequence name: expectations,
    estimates or one model's ±1 outcome products."""

    terms: Mapping[str, float]

    @property
    def chi(self) -> float:
        return sum(CHI_SIGNS[name] * self.terms[name] for name in SEQUENCE_ORDER)


@dataclass(frozen=True)
class STerms:
    """The twelve conditional correlators, keyed like ``"BB'|ABC"``."""

    terms: Mapping[str, float]

    @property
    def s_abs(self) -> float:
        return sum(abs(self.terms[t.key]) for t in S_TERMS)

    @property
    def s_signed(self) -> float:
        return sum(t.sign * self.terms[t.key] for t in S_TERMS)


@dataclass(frozen=True)
class InequalityReport:
    """The 18 terms and chi, S and omega, both S variants, of a quantum
    state (``omega``, and each point of ``sweep``), a shot estimate
    (``estimate_inequality``) or a hidden-variable model
    (``evaluate_model``, whose terms are ints)."""

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


# The values that ``omega`` reads: the identity coefficient (±1) of each
# sequence's operator product, and where the six pair operators A · A'
# sit among a state's coefficients, with their ±1 phases, in
# ``PAIR_SIGNS`` order.
_SEQUENCE_PHASES = {
    name: pauli_product(OBSERVABLES[lab] for lab in SEQUENCES[name]).phase.real
    for name in SEQUENCE_ORDER
}
_PAIR_PRODUCTS = [pauli_product([OBSERVABLES[alice], OBSERVABLES[bob]])
                  for alice, bob in zip(PAIR_SIGNS, BOB_LABELS)]
_PAIR_INDICES = np.array([_coefficient_index(p) for p in _PAIR_PRODUCTS])
_PAIR_PHASES = np.array([p.phase.real for p in _PAIR_PRODUCTS])


def _report(chi_terms: dict[str, float], s_terms: dict[str, float]) -> InequalityReport:
    """The report of six chi terms and twelve correlators, exact,
    estimated or of a model: the one place where chi, both S and both
    omega are summed."""
    chi_t, s_t = ChiTerms(chi_terms), STerms(s_terms)
    chi, s_abs, s_signed = chi_t.chi, s_t.s_abs, s_t.s_signed
    return InequalityReport(chi_t, s_t, chi, s_abs, s_signed, chi + s_abs, chi + s_signed)


def omega(rho: DensityState) -> InequalityReport:
    """Full inequality report for a four-qubit state, both S variants.

    Each chi term is the identity coefficient of its sequence's operator
    product: a commuting triple multiplies to ±Identity, so the term is
    that sign for every state, read from the symbolic Pauli product and
    never estimated.  Alice's observable and Bob's partner commute with the
    rest of their setting, so each of the twelve correlators is
    tr(ρ · A · A'), the same in both sequences that hold A: six of the
    state's coefficients, each times the ±1 phase of its pair product,
    give them all.
    """
    pairs = dict(zip(PAIR_SIGNS, (_PAIR_PHASES * rho.coefficients[_PAIR_INDICES]).tolist()))
    return _report(dict(_SEQUENCE_PHASES), {t.key: pairs[t.alice] for t in S_TERMS})


def _check_chi_expt(chi_expt: float) -> float:
    return _checked_real("chi_expt", chi_expt, -6, 6)


def _check_shots(shots: int) -> int:
    """An integer in [1, 2**64): draw i of the stream uses the 64-bit counter i + 1."""
    return _checked_int("shots", shots, 1, 2**64)


def _check_grid(points) -> tuple[float, ...]:
    """The grid as a tuple of 1 to ``MAX_GRID_POINTS`` strictly ascending visibilities;
    at most ``MAX_GRID_POINTS + 1`` points are read, so an endless iterator is refused."""
    grid = tuple(map(_check_visibility, islice(points, MAX_GRID_POINTS + 1)))
    if not grid:
        raise ValueError("the grid must not be empty")
    if len(grid) > MAX_GRID_POINTS:
        raise ValueError(f"the grid has more than {MAX_GRID_POINTS} points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("the grid must be strictly ascending")
    return grid


def visibility_threshold(chi_expt: float) -> float:
    """Minimum visibility for violating the bound 16 at an observed chi.

    Returns ``(sqrt(33 - 2*chi_expt) - 1) / 4``, the positive root of
    ``8V^2 + 4V + (chi_expt - 16) = 0``.  A violation needs V above it,
    so a result of 1 or more (``chi_expt <= 4``) means that no visibility
    violates the bound.

    Raises:
        ValueError: If ``chi_expt`` lies outside [-6, 6].
    """
    return (math.sqrt(33.0 - 2.0 * _check_chi_expt(chi_expt)) - 1.0) / 4.0


def fidelity_from_visibility(visibility: float) -> float:
    """Per-pair root fidelity sqrt(F) = sqrt(3V + 1) / 2, with F = <psi-|rho|psi-> =
    (1 + 3V) / 4 for one noisy pair; the four-qubit fidelity is F^2, not this."""
    return math.sqrt(3.0 * _check_visibility(visibility) + 1.0) / 2.0


@dataclass(frozen=True)
class SweepResult:
    """Inequality values over a visibility grid: ``reports[i]`` is
    ``omega(four_qubit_state(grid[i]))``.

    ``crossing_bracket`` is the first grid interval on which the signed
    omega crosses the bound 16 (None if it never does), and ``crossing`` is
    that root refined by bisection on the exact engine.  On this state
    family the abs and signed omega are the same number, so both cross
    together.
    """

    grid: tuple[float, ...]
    reports: tuple[InequalityReport, ...]
    crossing_bracket: tuple[float, float] | None
    crossing: float | None


def sweep(v_grid) -> SweepResult:
    """Evaluate the inequality on 1 to ``MAX_GRID_POINTS`` strictly ascending visibilities."""
    grid = _check_grid(v_grid)
    reports = tuple(omega(four_qubit_state(v)) for v in grid)
    bracket = None
    for i in range(1, len(grid)):
        if reports[i - 1].omega_signed < LOCAL_OMEGA_BOUND <= reports[i].omega_signed:
            bracket = (grid[i - 1], grid[i])
            break
    crossing = None
    if bracket is not None:
        crossing = find_violation_threshold(lo=bracket[0], hi=bracket[1])
    return SweepResult(grid=grid, reports=reports, crossing_bracket=bracket, crossing=crossing)


def find_violation_threshold(lo: float = 0.0, hi: float = 1.0) -> float:
    """Visibility where the engine's signed omega(V) reaches 16: the midpoint
    of a bisection down to width 1e-10; needs omega(lo) <= 16 <= omega(hi)."""
    def excess(v: float) -> float:
        return omega(four_qubit_state(v)).omega_signed - LOCAL_OMEGA_BOUND

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(f"omega - 16 does not change sign on [{lo}, {hi}]")
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
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
    in which case the estimate must match exactly.  ``z_score`` is set at
    construction, so ``dataclasses.replace`` recomputes it: 0 or infinity
    for a deterministic term, (estimate - exact) / sigma otherwise.
    """

    exact: float
    estimate: float
    sigma: float
    z_score: float = field(init=False)
    n_shots: int

    def __post_init__(self) -> None:
        if self.sigma == 0.0:
            z = 0.0 if self.estimate == self.exact else math.inf
        else:
            z = (self.estimate - self.exact) / self.sigma
        object.__setattr__(self, "z_score", z)


@dataclass(frozen=True)
class SampledInequality:
    """All 18 inequality ingredients estimated from seeded sampling:
    ``point`` is the report of the estimates, ``exact`` that of the state."""

    visibility: float
    shots_per_setting: int
    seed: int
    chi_terms: dict[str, TermEstimate]
    s_terms: dict[str, TermEstimate]
    point: InequalityReport
    exact: InequalityReport = field(repr=False)

    @property
    def max_abs_z(self) -> float:
        scores = [abs(t.z_score) for t in self.chi_terms.values()]
        scores += [abs(t.z_score) for t in self.s_terms.values()]
        return max(scores)

    def within(self, n_sigma: float = 5.0) -> bool:
        return self.max_abs_z <= n_sigma


def _term_estimate(exact: float, total: int, n_shots: int) -> TermEstimate:
    """Estimate of one term from the integer sum of its ``n_shots`` ±1 values."""
    sigma = math.sqrt(max(1.0 - exact * exact, 0.0) / n_shots)
    return TermEstimate(exact, total / n_shots, sigma, n_shots)


def estimate_inequality(visibility: float, shots: int, seed: int) -> SampledInequality:
    """Finite-shot estimates of all inequality ingredients.

    Runs the twelve (sequence, Bob observable) settings with ``shots``
    samples each, on sub-streams derived from ``seed`` by setting index.
    Each sequence appears in two settings; its chi term pools the Alice
    outcomes of both.  Only the count of each outcome cell of the
    SplitMix64 draws is kept, counted for all twelve settings in one pass
    over fixed chunks of draw indices, which cannot change it; a sum of ±1
    values is exact, so each estimate is the mean over the shots.
    The exact references are the terms of ``omega(rho)``.  ``shots`` must
    be an integer in [1, 2**64) and ``seed`` an integer, else ``ValueError``.
    """
    shots = _check_shots(shots)
    seed = _checked_int("seed", seed)
    rho = four_qubit_state(visibility)
    exact = omega(rho)

    s_estimates: dict[str, TermEstimate] = {}
    pooled: dict[str, list[int]] = {name: [] for name in SEQUENCE_ORDER}
    counted = _count_settings(
        [sequence_distribution(rho, SequenceSpec(term.sequence, term.bob)) for term in S_TERMS],
        [derive_seed(seed, index) for index in range(len(S_TERMS))], shots)
    for term, (cells, counts) in zip(S_TERMS, counted):
        total = int(counts @ (cells[:, term.position - 1] * cells[:, 3]))
        s_estimates[term.key] = _term_estimate(exact.s_terms.terms[term.key], total, shots)
        pooled[term.sequence].append(int(counts @ (cells[:, 0] * cells[:, 1] * cells[:, 2])))

    chi_estimates = {
        name: _term_estimate(exact.chi_terms.terms[name], sum(totals), shots * len(totals))
        for name, totals in pooled.items()
    }
    return SampledInequality(
        visibility=float(visibility),
        shots_per_setting=shots,
        seed=seed,
        chi_terms=chi_estimates,
        s_terms=s_estimates,
        point=_report({k: t.estimate for k, t in chi_estimates.items()},
                      {k: t.estimate for k, t in s_estimates.items()}),
        exact=exact,
    )
