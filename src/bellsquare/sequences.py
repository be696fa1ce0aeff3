"""Joint outcome distributions for measurement sequences, plus a sampler.

Alice measures one of six fixed three-observable sequences; optionally Bob
measures a single partner observable.  Every sequence is a commuting
triple and Bob's observable acts on other qubits, so all the observables
of a setting commute.  For commuting projective measurements the Lüders
update in sequence has the same statistics as one joint measurement
(Gühne et al., PRA 81, 022121 (2010)), so the exact joint distribution
of the k = 3 (or 4, with Bob) ±1 outcomes is
p(o) = tr(Π_i (I + o_i P_i)/2 · ρ).  Multiplied out, this is the Fourier
expansion p(o) = 2^-k Σ_T (Π_{i∈T} o_i) · tr(ρ · Π_{i∈T} P_i) over the
subsets T of the setting: the setting's cached table holds where each
subset product's letter form sits in ``DensityState.coefficients``, and
one ±1 character matrix, signed by the products' phases, turns those 2^k
coefficients into the distribution, with no sampling.  The distributions
serve the sampler, which emulates a finite-shot experiment by drawing
whole outcome tuples by inverse CDF, and Bob's no-signalling marginal
(``bob_marginal``); the exact chi terms and correlators are read by
``inequality.omega`` alone.  ``sample`` draws a run's outcomes once, as
the int8 array of ``sample_outcomes``, and returns them as ``ShotRecords``,
which builds each ``ShotRecord`` from its row only when it is read.

Reproducibility contract: randomness comes from a SplitMix64 counter
stream.  Draw ``i`` (0-based) of the stream with seed ``s`` is::

    u_i = mix64((s + (i + 1) * GOLDEN) mod 2^64) >> 11) * 2^-53

with ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` the standard SplitMix64
finalizer.  Because each draw depends only on (seed, i), sampling a shot
range in parts, each from its ``first_shot``, and concatenating the results
is bit-identical to a single pass; the inequality estimator keeps only the
count of each cell of these draws, taken in chunks of ``_COUNT_CHUNK``,
which cannot change it.  The mapping is frozen by unit tests and will not
change between releases.

Counting needs no per-draw cell index.  A draw u falls in cell i exactly
when cumulative[i-1] <= u < cumulative[i] (``searchsorted`` with
``side="right"``), so, with the cumulative non-decreasing, the number of
draws in cells 0..j is the number with u < cumulative[j]; the cell counts
are the differences of these threshold tallies.  A setting has at most 8
cells, so this is at most 7 comparisons per draw, and the counts are
exactly those of the per-shot picks.  The estimator counts all twelve
settings in one pass over the draw indices: each chunk's
``(i + 1) * GOLDEN`` is formed once and each setting adds its own seed,
and the 53-bit integer of a draw is compared with ``cumulative[j] * 2^53``,
which orders it exactly as u against cumulative[j] because both scalings
are powers of two.  ``uniform01`` stays the reference for the stream.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from .observables import BOB_LABELS, OBSERVABLES, SEQUENCES, _checked_int, _is_real, _is_sign
from .pauli import PauliString, pauli_product
from .states import DensityState, _coefficient_index

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
    real numbers (no bool, str or bytes), finite, no lower than -1e-12 (a
    zero after rounding) and sum to 1 within ``PROBABILITY_SUM_TOL``.
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
            if not all(map(_is_sign, outcomes)):
                raise ValueError(f"outcomes must be ±1, got {outcomes}")
            if not (_is_real(prob) and math.isfinite(prob) and prob >= -1e-12):
                raise ValueError(
                    f"non-real, negative or non-finite probability {prob!r} for {outcomes}")
            total += prob
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")


class ShotRecord(NamedTuple):
    spec: SequenceSpec
    outcomes: tuple[int, ...]
    shot_index: int
    seed: int


# The ±1 outcome tuples of length 3 and 4, indexed by the bit code of their
# -1 entries with the first entry the most significant bit; the settings'
# distributions and every shot record share these tuples.
_OUTCOME_TUPLES = {k: tuple(product((1, -1), repeat=k)) for k in (3, 4)}


@dataclass(frozen=True, eq=False)
class ShotRecords(Sequence):
    """The records of one ``sample`` run, backed by its read-only int8
    ``outcomes`` array of shape (shots, 3 or 4).

    Record i is ``ShotRecord(spec, outcomes, i, seed)``, built when it is
    read, with the row's outcomes as the shared tuple of Python ints of its
    sign pattern.  Two runs compare by identity; compare their records as
    lists, or their ``outcomes`` arrays.
    """

    spec: SequenceSpec
    seed: int
    outcomes: np.ndarray

    def __len__(self) -> int:
        return len(self.outcomes)

    def _codes(self, rows: np.ndarray) -> np.ndarray:
        """Bit code of the -1 entries of each row, an index into ``_OUTCOME_TUPLES``."""
        width = self.outcomes.shape[1]
        return (rows < 0) @ (1 << np.arange(width - 1, -1, -1))

    def __getitem__(self, index: int) -> ShotRecord:
        shot = range(len(self))[operator.index(index)]
        cells = _OUTCOME_TUPLES[self.outcomes.shape[1]]
        return ShotRecord(self.spec, cells[self._codes(self.outcomes[shot])], shot, self.seed)

    def __iter__(self) -> Iterator[ShotRecord]:
        # tuple.__new__ is what ShotRecord._make calls, minus a Python frame
        # and a length check; zip always yields the four fields.
        cells = _OUTCOME_TUPLES[self.outcomes.shape[1]]
        return map(tuple.__new__, repeat(ShotRecord), zip(
            repeat(self.spec), map(cells.__getitem__, self._codes(self.outcomes).tolist()),
            range(len(self)), repeat(self.seed)))


@cache
def _setting_table(labels: tuple[str, ...]):
    """Outcome tuples, the coefficient indices of the subset products and 2^-k ·
    characters signed by the products' phases, of one setting: subset c holds the
    observables at the set bits of c, and outcome tuple r is -1 at the set bits of r."""
    products = [
        pauli_product(OBSERVABLES[lab] if t else PauliString.identity()
                      for lab, t in zip(labels, subset))
        for subset in product((False, True), repeat=len(labels))]
    characters = reduce(np.kron, [np.array([[1, 1], [1, -1]])] * len(labels)) / 2 ** len(labels)
    characters *= [p.phase.real for p in products]
    indices = np.array([_coefficient_index(p) for p in products])
    # Shared by every caller through the cache.
    characters.flags.writeable = indices.flags.writeable = False
    return _OUTCOME_TUPLES[len(labels)], indices, characters


def sequence_distribution(rho: DensityState, spec: SequenceSpec) -> OutcomeDistribution:
    """Exact outcome distribution of one setting as a joint measurement.

    Each outcome tuple o over Alice's three observables (then Bob's, if
    present) gets p(o) = 2^-k Σ_T (Π_{i∈T} o_i) · tr(ρ · Π_{i∈T} P_i); the
    empty product is the identity, so its term is tr ρ.  Each tr(ρ · P) is
    a coefficient of ``rho``.  Outcomes whose probability falls below the
    zero threshold are dropped.
    """
    labels = spec.alice_labels + (() if spec.bob is None else (spec.bob,))
    outcomes, indices, characters = _setting_table(labels)
    probabilities = characters @ rho.coefficients[indices]
    entries = {o: p for o, p in zip(outcomes, probabilities.tolist()) if p >= ZERO_PROBABILITY_TOL}
    return OutcomeDistribution(spec=spec, entries=entries)


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


# The SplitMix64 finalizer's (shift, multiplier) steps as numpy scalars,
# built once for ``_draw_bits``.
_MIX64_STEPS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
                (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_MIX64_LAST_SHIFT, _DRAW_SHIFT = np.uint64(31), np.uint64(11)


def _draw_bits(z: np.ndarray, scratch: np.ndarray) -> None:
    """Replace each uint64 counter in ``z`` by ``_mix64(z) >> 11``, the
    53-bit integer of its draw, in place; ``scratch`` is a uint64 buffer
    of the same length whose contents are overwritten."""
    for shift, multiplier in _MIX64_STEPS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= multiplier
    np.right_shift(z, _MIX64_LAST_SHIFT, out=scratch)
    z ^= scratch
    z >>= _DRAW_SHIFT


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
    _draw_bits(z, np.empty_like(z))
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


def _check_record_shots(shots: int) -> int:
    """``shots`` as an int in [1, ``MAX_RECORDS``]; ``ValueError`` otherwise."""
    shots = _checked_int("shots", shots, 1)
    if shots > MAX_RECORDS:
        raise ValueError(
            f"shots={shots} exceeds MAX_RECORDS={MAX_RECORDS} shot records; "
            "use estimate_inequality, which keeps only outcome counts"
        )
    return shots


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
    shots = _check_record_shots(shots)
    first_shot = _checked_int("first_shot", first_shot, 0, 2**64 - shots)
    cells, cumulative = _inverse_cdf(dist)
    picks = np.searchsorted(cumulative, uniform01(seed, shots, first_shot), side="right")
    return np.array(cells, dtype=np.int8)[picks]


def _count_settings(
    dists: list[OutcomeDistribution], seeds: list[int], shots: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each distribution and its seed, the cells of ``_inverse_cdf`` as int8
    rows and how often ``sample_outcomes`` draws each in ``shots`` shots.

    One pass over the stream serves every setting: each chunk of
    ``_COUNT_CHUNK`` draw indices is multiplied by ``GOLDEN`` once, and each
    setting adds its seed and runs ``_draw_bits`` in buffers kept
    for the whole pass.  A draw is u = k · 2^-53 with k = mix64(...) >> 11,
    so u < edge exactly when float(k) < edge · 2^53: both scalings are exact
    powers of two, and k < 2^53 is exact in float64.  Each cell's count is a
    difference of these threshold tallies; the last cumulative entry is 1
    and every draw is below it, so only the other (at most 7) edges are
    tallied.
    """
    tables = [_inverse_cdf(dist) for dist in dists]
    scaled_edges = [(cumulative[:-1] * 2.0**53).tolist() for _, cumulative in tables]
    tallies = [np.zeros(len(edges), dtype=np.int64) for edges in scaled_edges]
    offsets = [np.uint64(seed & _MASK64) for seed in seeds]
    size = min(_COUNT_CHUNK, shots)
    z_buffer, shifted_buffer = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    for start in range(0, shots, _COUNT_CHUNK):
        count = min(_COUNT_CHUNK, shots - start)
        counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        counters *= np.uint64(_GOLDEN)
        z, shifted = z_buffer[:count], shifted_buffer[:count]
        # Once a setting's finalizer is done, its scratch holds the float draws.
        draws = shifted.view(np.float64)
        for offset, edges, tally in zip(offsets, scaled_edges, tallies):
            np.add(counters, offset, out=z)
            _draw_bits(z, shifted)
            draws[:] = z
            for j, edge in enumerate(edges):
                tally[j] += np.count_nonzero(draws < edge)
    return [(np.array(cells, dtype=np.int8), np.diff(tally, prepend=0, append=shots))
            for (cells, _), tally in zip(tables, tallies)]


def sample(rho: DensityState, spec: SequenceSpec, shots: int, seed: int) -> ShotRecords:
    """Simulate ``shots`` runs of one setting; bit-reproducible for a seed.

    The records' ``outcomes`` array is exactly what ``sample_outcomes``
    draws from the setting's distribution, and each record is built from
    its row when it is read.  At most ``MAX_RECORDS`` records, checked
    before anything is built; ``estimate_inequality`` keeps only outcome
    counts and takes any shot count.
    """
    shots = _check_record_shots(shots)
    seed = _checked_int("seed", seed)
    outcomes = sample_outcomes(sequence_distribution(rho, spec), shots, seed)
    outcomes.flags.writeable = False
    return ShotRecords(spec, seed, outcomes)
