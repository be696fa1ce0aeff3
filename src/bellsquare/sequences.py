"""Joint outcome distributions for measurement sequences, plus a sampler.

Alice measures one of six fixed three-observable sequences; optionally Bob
measures a single partner observable.  Every sequence is a commuting
triple and Bob's observable acts on other qubits, so all the observables
of a setting commute.  For commuting projective measurements the Lüders
update in sequence has the same statistics as one joint measurement
(Gühne et al., PRA 81, 022121 (2010)), so the exact joint distribution
over ±1 outcomes is p(o) = tr(Π_i (I + o_i P_i)/2 · ρ), evaluated over
all 8 (or 16, with Bob) outcome tuples, never by sampling.  The sampler
exists only to emulate a finite-shot experiment and draws whole outcome
tuples from the exact joint distribution by inverse CDF.

Reproducibility contract: randomness comes from a SplitMix64 counter
stream.  Draw ``i`` (0-based) of the stream with seed ``s`` is::

    u_i = mix64((s + (i + 1) * GOLDEN) mod 2^64) >> 11) * 2^-53

with ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` the standard SplitMix64
finalizer.  Because each draw depends only on (seed, i), splitting a shot
range across workers and concatenating the results is bit-identical to a
single pass; the inequality estimator keeps only the count of each cell
of these draws, taken in chunks of ``_COUNT_CHUNK``, which cannot change
it.  The mapping is frozen by unit tests and will not change between releases.

Counting needs no per-draw cell index.  A draw u falls in cell i exactly
when cumulative[i-1] <= u < cumulative[i] (``searchsorted`` with
``side="right"``), so, with the cumulative non-decreasing, the number of
draws in cells 0..j is the number with u < cumulative[j]; the cell counts
are the differences of these threshold tallies.  A setting has at most 8
cells, so this is at most 7 comparisons per draw, and the counts are
exactly those of the per-shot picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from .observables import BOB_LABELS, OBSERVABLES, SEQUENCES, _checked_int
from .pauli import PauliString, to_matrix
from .states import DensityState

PROBABILITY_SUM_TOL = 1e-10
ZERO_PROBABILITY_TOL = 1e-12

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_COUNT_CHUNK = 1 << 16
MAX_RECORDS = 1_000_000


@dataclass(frozen=True)
class SequenceSpec:
    """One run configuration: an Alice sequence and an optional Bob observable."""

    sequence: str
    bob: str | None = None

    def __post_init__(self):
        if self.sequence not in SEQUENCES:
            raise ValueError(
                f"unknown sequence {self.sequence!r}; expected one of {tuple(SEQUENCES)}"
            )
        if self.bob is not None and self.bob not in BOB_LABELS:
            raise ValueError(
                f"unknown Bob observable {self.bob!r}; expected one of {BOB_LABELS}"
            )

    @property
    def alice_labels(self) -> tuple[str, str, str]:
        return SEQUENCES[self.sequence]

    @property
    def n_outcomes(self) -> int:
        return 3 if self.bob is None else 4


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact joint distribution over ±1 outcome tuples for one spec.

    Entries hold only outcomes with nonzero probability; probabilities are
    finite, no lower than -1e-12 (a zero after rounding) and sum to 1
    within ``PROBABILITY_SUM_TOL``.
    """

    spec: SequenceSpec
    entries: dict[tuple[int, ...], float]

    def __post_init__(self):
        total = 0.0
        for outcomes, prob in self.entries.items():
            if len(outcomes) != self.spec.n_outcomes:
                raise ValueError(
                    f"outcome tuple {outcomes} does not match spec length {self.spec.n_outcomes}"
                )
            if any(o not in (1, -1) for o in outcomes):
                raise ValueError(f"outcomes must be ±1, got {outcomes}")
            if not (math.isfinite(prob) and prob >= -1e-12):
                raise ValueError(f"negative or non-finite probability {prob} for {outcomes}")
            total += prob
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")


class ShotRecord(NamedTuple):
    spec: SequenceSpec
    outcomes: tuple[int, ...]
    shot_index: int
    seed: int


def _check_four_qubits(rho: DensityState) -> None:
    if rho.n_qubits != 4:
        raise ValueError(f"sequences are defined on 4 qubits, state has {rho.n_qubits}")


@lru_cache(maxsize=None)
def _projectors(obs: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Read-only projectors (I + P)/2 and (I - P)/2 onto the ±1 eigenspaces."""
    m = to_matrix(obs)
    eye = np.eye(m.shape[0], dtype=complex)
    plus = (eye + m) / 2
    minus = (eye - m) / 2
    plus.flags.writeable = False
    minus.flags.writeable = False
    return plus, minus


def sequence_distribution(rho: DensityState, spec: SequenceSpec) -> OutcomeDistribution:
    """Exact outcome distribution of one setting as a joint measurement.

    Each outcome tuple o over Alice's three observables (then Bob's, if
    present) gets p(o) = tr(Π_i (I + o_i P_i)/2 · ρ).  The observables
    commute, so this equals the sequential Lüders distribution in any
    measurement order.  Outcomes whose probability falls below the zero
    threshold are dropped.
    """
    _check_four_qubits(rho)
    labels = spec.alice_labels + (() if spec.bob is None else (spec.bob,))
    projectors = [_projectors(OBSERVABLES[lab]) for lab in labels]
    entries = {}
    for outcomes in product((1, -1), repeat=len(labels)):
        chosen = [pair[0 if o == 1 else 1] for pair, o in zip(projectors, outcomes)]
        prob = float(np.real(np.trace(reduce(np.matmul, chosen) @ rho.matrix)))
        if prob >= ZERO_PROBABILITY_TOL:
            entries[outcomes] = prob
    return OutcomeDistribution(spec=spec, entries=entries)


def product_expectation(dist: OutcomeDistribution) -> float:
    """Expectation of the product of the three Alice outcomes."""
    value = sum(p * (o[0] * o[1] * o[2]) for o, p in dist.entries.items())
    return float(value)


def conditional_pair_expectation(dist: OutcomeDistribution, alice_position: int) -> float:
    """Expectation of (Alice outcome at ``alice_position``) x (Bob outcome).

    Args:
        dist: Distribution from a spec that included a Bob observable.
        alice_position: 1-based slot within the Alice sequence.

    Raises:
        ValueError: If the spec had no Bob observable or the position is
            not 1, 2 or 3.
    """
    if dist.spec.bob is None:
        raise ValueError("distribution was built without a Bob observable")
    alice_position = _checked_int("alice_position", alice_position, 1, 4)
    value = sum(p * (o[alice_position - 1] * o[3]) for o, p in dist.entries.items())
    return float(value)


def bob_marginal(dist: OutcomeDistribution) -> dict[int, float]:
    """Marginal distribution of Bob's outcome."""
    if dist.spec.bob is None:
        raise ValueError("distribution was built without a Bob observable")
    marginal = {1: 0.0, -1: 0.0}
    for outcomes, prob in dist.entries.items():
        marginal[outcomes[3]] += prob
    return marginal


def _mix64(z: int) -> int:
    """SplitMix64 finalizer (public-domain constants)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Fold sub-stream indices (integers in [0, 2**64)) into a base seed; stable across releases."""
    state = _checked_int("seed", seed) & _MASK64
    for index in indices:
        index = _checked_int("index", index, 0, 2**64)
        state = _mix64((state + (index + 1) * _GOLDEN) & _MASK64)
    return state


def uniform01(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draws ``start .. start+count-1`` of the uniform [0, 1) stream for ``seed``;
    at most ``MAX_RECORDS`` draws, checked before anything is allocated."""
    seed = _checked_int("seed", seed)
    count = _checked_int("count", count, 0, MAX_RECORDS + 1)
    start = _checked_int("start", start, 0, 2**64 - count)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def _inverse_cdf(dist: OutcomeDistribution) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Sorted outcome cells and their non-decreasing cumulative probabilities."""
    cells = sorted(dist.entries)
    # An entry may be as low as -1e-12 and a valid state's probabilities may
    # sum to just above 1; clamping both keeps the cumulative sorted, which
    # searchsorted and the tallies require.
    probabilities = np.maximum([dist.entries[c] for c in cells], 0.0)
    cumulative = np.minimum(np.cumsum(probabilities), 1.0)
    cumulative[-1] = 1.0  # guard against rounding just below 1
    return cells, cumulative


def sample_outcomes(
    dist: OutcomeDistribution, shots: int, seed: int, first_shot: int = 0
) -> np.ndarray:
    """Draw outcome tuples i.i.d. from the distribution.

    Cells are ordered by sorted outcome tuple and selected by inverse CDF,
    so results for a given (seed, shot index) never depend on how a shot
    range is partitioned.  At most ``MAX_RECORDS`` shots per call.

    Returns:
        int8 array of shape (shots, tuple length) with ±1 entries.
    """
    shots = _checked_int("shots", shots, 1, MAX_RECORDS + 1)
    first_shot = _checked_int("first_shot", first_shot, 0, 2**64 - shots)
    cells, cumulative = _inverse_cdf(dist)
    picks = np.searchsorted(cumulative, uniform01(seed, shots, first_shot), side="right")
    return np.array(cells, dtype=np.int8)[picks]


def _count_outcomes(dist: OutcomeDistribution, shots: int, seed: int):
    """The cells of ``_inverse_cdf`` as int8 rows, and how often ``sample_outcomes`` draws each.

    ``searchsorted(cumulative, u, side="right")`` picks cell i exactly when
    cumulative[i-1] <= u < cumulative[i].  The cumulative is non-decreasing,
    so the draws that land in cells 0..j are those with u < cumulative[j],
    and each cell's count is a difference of these threshold tallies.  The
    last entry is 1 and every draw is below it, so only the other (at most
    7) edges are tallied.
    """
    cells, cumulative = _inverse_cdf(dist)
    edges = cumulative[:-1]
    tallies = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, shots, _COUNT_CHUNK):
        draws = uniform01(seed, min(_COUNT_CHUNK, shots - start), start)
        for j, edge in enumerate(edges):
            tallies[j] += np.count_nonzero(draws < edge)
    return np.array(cells, dtype=np.int8), np.diff(tallies, prepend=0, append=shots)


def sample(rho: DensityState, spec: SequenceSpec, shots: int, seed: int) -> list[ShotRecord]:
    """Simulate ``shots`` runs of one setting; bit-reproducible for a seed.

    Draws exactly what ``sample_outcomes`` draws.  Records sharing an
    outcome share one tuple of Python ints.  At most ``MAX_RECORDS``
    records are built; ``estimate_inequality`` keeps only outcome counts
    and takes any shot count.
    """
    shots = _checked_int("shots", shots, 1)
    if shots > MAX_RECORDS:
        raise ValueError(
            f"shots={shots} exceeds MAX_RECORDS={MAX_RECORDS} shot records; "
            "use estimate_inequality, which keeps only outcome counts"
        )
    cells, cumulative = _inverse_cdf(sequence_distribution(rho, spec))
    picks = np.searchsorted(cumulative, uniform01(seed, shots), side="right").tolist()
    return list(map(ShotRecord._make, zip(
        repeat(spec), map(cells.__getitem__, picks), range(shots), repeat(seed))))
