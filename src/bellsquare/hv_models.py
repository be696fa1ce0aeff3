"""Exhaustive enumeration of deterministic hidden-variable models.

Four model classes are scanned:

* Context-free ±1 assignments to the nine Alice observables (2^9 models):
  the chi expression is bounded by 4.
* Context-free assignments to {A, b, γ} plus the six Bob observables read
  as first-measurement values (2^9 models): the same six-term expression
  is again bounded by 4.
* Local contextual models (2^21): Alice's outcome may depend on the
  sequence and slot in which an observable is measured, except that the
  three sequence leaders A, b, γ keep a single value each (nothing is
  ever measured before them); Bob's six outcomes are fixed numbers with
  no dependence on Alice's choice.  The signed omega is bounded by 16,
  while the absolute-value variant reaches 18 — equal to the quantum
  value — which is why the toolkit reports both variants everywhere.
* The same models with leader sharing dropped (2^24): each sequence picks
  its leading outcome on its own and the signed maximum rises to 18.

Mixtures of deterministic models need no separate scan: omega is linear
(signed) or convex (abs) in the model distribution, so the maximum over
probabilistic local models is attained at a deterministic vertex.

``evaluate_model`` scores one model with the assembly that builds
``omega``'s ``InequalityReport``, from its six sequence products and
twelve Alice·Bob products; the scans read the same signs from term tables.

A model is an integer whose bits are outcome signs (0 is +1, 1 is -1).
Each class is one term table, a ``_Layout``: its number of bits and its
chi and S terms as ``(sign, bit positions)`` pairs, so every term is
sign * (-1)^(XOR of its bits).  One kernel evaluates all of a layout's
models in blocks of 2^16.  An index splits into a block number (bits 16
and up) and a 16-bit offset; the term's offset bits select an int8 ±1
parity table over the 2^16 offsets (over the 2^9 models of the
context-free layouts), built on first use and cached, and its block bits
fold into one ±1 per block.  Each layout and variant has one block plan,
built on first use and cached.  It holds block 0, the sum of every term's
table, and for each later block one of two things.  A block whose terms
all carry the same block signs as in an earlier block repeats the lowest
such block: its values are exactly that block's.  Any other block is the
block before it plus one int8 step delta, twice the signed sum of the
tables of the terms whose block sign flips, cached by the flipped terms'
directions and offset bits (25 distinct deltas over the four full scans).
So each distinct block costs one add and one maximum, and a repeat costs
neither: the 2^24 abs scan computes 2 of its 256 blocks, the 2^21 abs
scan 1 of 32, and the signed scans every block.  Every model's omega is
still covered.  The kernel returns the maximum with its lowest attaining
indices.  One routine, ``_bound``, builds every bound from it: one pass
over all of a layout's models returns the maximum and its own lowest
witnesses, which ``_bound`` decodes.  So no model is scanned twice,
whatever the witness count.  Every bound is a ``BoundResult``; the 2^24
scan decodes no witnesses, so its ``argmax_models`` is empty.
The chain inequality needs no scan: it is checked on the 192 cases that
every model reduces to (see ``chain_inequality_scan``).
"""

from __future__ import annotations

import math
# Not used here: kept only because bench/tracer.py rebinds this name.
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Mapping, NamedTuple

import numpy as np

from .inequality import ChiTerms, InequalityReport, _report, omega
from .observables import (
    ALICE_LABELS,
    BOB_LABELS,
    CHI_SIGNS,
    PAIR_SIGNS,
    S_TERMS,
    SEQUENCE_LEADERS,
    SEQUENCE_ORDER,
    SEQUENCES,
    _checked_int,
    _is_sign,
)
from .states import four_qubit_state

# Scan blocks: a model index is a block number (bits >= 16) and an offset
# (bits 0-15) into the block.
_BLOCK_BITS = 16
_BLOCK = 1 << _BLOCK_BITS


class _Layout(NamedTuple):
    """Term table of one model class; each term is (sign, bit positions)."""

    n_bits: int
    chi: tuple[tuple[int, tuple[int, ...]], ...]
    s: tuple[tuple[int, tuple[int, ...]], ...]


def _layout(bit: Mapping, s_terms=S_TERMS) -> _Layout:
    """Layout from the bit of each sequence slot (seq, pos) and Bob label."""
    return _Layout(
        n_bits=len(set(bit.values())),
        chi=tuple(
            (CHI_SIGNS[seq], tuple(bit[seq, pos] for pos in (1, 2, 3)))
            for seq in SEQUENCE_ORDER
        ),
        s=tuple((t.sign, (bit[t.sequence, t.position], bit[t.bob])) for t in s_terms),
    )


# Local contextual models: bits 0-2 are the shared leader values (A, b, γ);
# bits 3-14 slot 2 and slot 3 of each sequence in SEQUENCE_ORDER; bits
# 15-20 Bob outcomes in BOB_LABELS order.
_MODEL_BIT = {
    **{(seq, pos): SEQUENCE_LEADERS.index(SEQUENCES[seq][0]) if pos == 1 else 3 + 2 * i + (pos - 2)
       for i, seq in enumerate(SEQUENCE_ORDER) for pos in (1, 2, 3)},
    **{label: 15 + j for j, label in enumerate(BOB_LABELS)},
}
# No leader sharing: bits 0-17 the three slots of each sequence, 18-23 Bob.
_RELAXED_BIT = {
    **{(seq, pos): 3 * i + (pos - 1) for i, seq in enumerate(SEQUENCE_ORDER) for pos in (1, 2, 3)},
    **{label: 18 + j for j, label in enumerate(BOB_LABELS)},
}
_CONSTRAINED = _layout(_MODEL_BIT)
_RELAXED = _layout(_RELAXED_BIT)
N_MODEL_BITS = _CONSTRAINED.n_bits
N_MODELS = 1 << N_MODEL_BITS
N_RELAXED_MODELS = 1 << _RELAXED.n_bits

_FIRST_MEASUREMENT_LABELS = SEQUENCE_LEADERS + BOB_LABELS
# The two key sets a context-free assignment may have, each mapped to the
# key every Alice label reads: the label itself, or, for first-measurement
# values, its Bob partner (the leaders A, b, γ keep their labels).
_RELABEL = {
    frozenset(ALICE_LABELS): {label: label for label in ALICE_LABELS},
    frozenset(_FIRST_MEASUREMENT_LABELS): {
        label: f"{label}'" if label in PAIR_SIGNS else label for label in ALICE_LABELS
    },
}


@dataclass(frozen=True)
class NoncontextualAssignment:
    """Context-free ±1 values for nine observables.

    Keys are either the nine Alice labels or the first-measurement set
    {A, b, γ, B', C', a', c', α', β'} (Bob outcomes read as the values
    they take when measured first).
    """

    values: Mapping[str, int]

    def __post_init__(self):
        if frozenset(self.values) not in _RELABEL:
            raise ValueError(f"unexpected assignment labels {sorted(self.values)}")
        if not all(map(_is_sign, self.values.values())):
            raise ValueError("assignment values must be ±1")

    def chi(self) -> int:
        """The six-term expression with context-free products."""
        relabel = _RELABEL[frozenset(self.values)]
        return ChiTerms({
            seq: math.prod(self.values[relabel[label]] for label in SEQUENCES[seq])
            for seq in SEQUENCE_ORDER
        }).chi


@dataclass(frozen=True)
class HVModel:
    """A deterministic local (contextual) hidden-variable model.

    ``alice`` maps (sequence, 1-based position) to an outcome; the three
    sequence leaders must carry one value across the two sequences they
    lead.  ``bob`` maps each Bob observable to an outcome and by
    construction cannot depend on Alice's choice of sequence.
    """

    alice: Mapping[tuple[str, int], int]
    bob: Mapping[str, int]

    def __post_init__(self):
        if set(self.alice) != _MODEL_BIT.keys() - set(BOB_LABELS):
            raise ValueError("alice table must cover all 6 sequences x 3 positions")
        if set(self.bob) != set(BOB_LABELS):
            raise ValueError(f"bob table must cover {BOB_LABELS}")
        values = list(self.alice.values()) + list(self.bob.values())
        if not all(map(_is_sign, values)):
            raise ValueError("outcomes must be ±1")
        # The two slots of a leader share one bit, so they must agree.
        shared = {}
        for slot, value in self.alice.items():
            if shared.setdefault(_MODEL_BIT[slot], value) != value:
                raise ValueError(
                    f"leader {SEQUENCES[slot[0]][0]} must take a single first-position value"
                )


def evaluate_model(model: HVModel) -> InequalityReport:
    """The model's report from its six sequence products and twelve
    Alice·Bob products; every term and value is an int."""
    alice = model.alice
    return _report(
        {seq: alice[seq, 1] * alice[seq, 2] * alice[seq, 3] for seq in SEQUENCE_ORDER},
        {t.key: alice[t.sequence, t.position] * model.bob[t.bob] for t in S_TERMS},
    )


def decode_model(index: int) -> HVModel:
    """Model for a 21-bit index (bit value 0 is outcome +1, 1 is -1)."""
    index = _checked_int("index", index, 0, N_MODELS)

    alice = {key: 1 - 2 * ((index >> bit) & 1) for key, bit in _MODEL_BIT.items()}
    bob = {label: alice.pop(label) for label in BOB_LABELS}
    return HVModel(alice=alice, bob=bob)


def encode_model(model: HVModel) -> int:
    values = {**model.alice, **model.bob}
    # A set: the two slots of a leader share one bit, which counts once.
    return sum({1 << bit for key, bit in _MODEL_BIT.items() if values[key] == -1})


@dataclass(frozen=True)
class BoundResult:
    """Outcome of an exhaustive bound computation."""

    variant: str
    max_value: float
    argmax_models: tuple
    models_scanned: int


def _context_free_layout(labels) -> _Layout:
    """Layout of the 2^9 context-free assignments; bit j is ``labels[j]``."""
    relabel = _RELABEL[frozenset(labels)]
    bit = {
        (seq, pos): labels.index(relabel[member])
        for seq in SEQUENCE_ORDER
        for pos, member in enumerate(SEQUENCES[seq], 1)
    }
    return _layout(bit, s_terms=())


def _context_free_bound(name: str, labels, max_witnesses: int) -> BoundResult:
    def decode(index: int) -> NoncontextualAssignment:
        return NoncontextualAssignment(
            values={label: 1 - 2 * ((index >> j) & 1) for j, label in enumerate(labels)}
        )

    max_witnesses = _checked_int("max_witnesses", max_witnesses, 1)
    return _bound(_context_free_layout(labels), "signed", name, max_witnesses, decode)


def noncontextual_chi_bound(max_witnesses: int = 4) -> BoundResult:
    """Max of the chi expression over all 2^9 context-free Alice assignments."""
    return _context_free_bound("noncontextual-chi", ALICE_LABELS, max_witnesses)


def first_measurement_bound(max_witnesses: int = 4) -> BoundResult:
    """Max of the six-term expression over first-measurement assignments.

    Same 2^9 enumeration with the paired observables read through Bob's
    side: {A, b, γ} keep their labels and the other six become the values
    B', C', a', c', α', β' take when measured first.
    """
    return _context_free_bound("first-measurement-chi", _FIRST_MEASUREMENT_LABELS, max_witnesses)


@cache
def _parity_table(low_bits: tuple[int, ...], size: int) -> np.ndarray:
    """(-1)^(XOR of bits ``low_bits``) of the in-block offsets below
    ``size``, as int8."""
    offset = np.arange(size, dtype=np.uint16)
    parity = np.zeros(size, dtype=np.uint16)
    for b in low_bits:
        parity ^= offset >> np.uint16(b)
    table = (1 - 2 * (parity & 1)).astype(np.int8)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _split_terms(terms) -> list[tuple[int, tuple[int, ...], int]]:
    """Each ``(sign, bits)`` term as (sign, its bits below ``_BLOCK_BITS``,
    mask of its bits at or above ``_BLOCK_BITS``)."""
    return [
        (
            sign,
            tuple(b for b in bits if b < _BLOCK_BITS),
            sum(1 << b for b in bits if b >= _BLOCK_BITS),
        )
        for sign, bits in terms
    ]


def _block_sign(start: int, high: int) -> int:
    """The ±1 that a term's bits in the block number fold into."""
    return 1 - 2 * ((start & high).bit_count() & 1)


@cache
def _step_delta(step: tuple[tuple[int, tuple[int, ...]], ...]) -> np.ndarray:
    """What one block step adds, as int8: 2 * sum of direction * parity
    table over the ``(direction, low bits)`` of each term it flips."""
    # At most 18 terms flip, so |delta| <= 36 fits int8.
    delta = 2 * sum(direction * _parity_table(low, _BLOCK) for direction, low in step)
    delta.flags.writeable = False  # shared by every caller through the cache
    return delta


class _Plan(NamedTuple):
    """How ``_omega_blocks`` builds each block of one layout and variant."""

    first: np.ndarray  # block 0, read-only
    # For each later block in order: the cached int8 delta that derives it
    # from the block before it, or the number of the earlier block whose
    # values it repeats.
    steps: tuple
    kept: frozenset  # the numbers of the blocks that a later block repeats


@cache
def _plan(layout: _Layout, variant: str) -> _Plan:
    """The block plan of ``layout``'s omega, built on first use and cached.

    The first block sums every term's parity table.  A block's values are
    fixed by the block signs of the terms with block-number bits, so a
    block whose signs match an earlier block's repeats the lowest such
    block.  Any other block is the block before it plus one step delta:
    each term whose block sign flips changes by twice its parity table, in
    the direction of its new sign.
    """
    terms = _split_terms(layout.chi if variant == "abs" else layout.chi + layout.s)
    # Every deterministic correlator has |value| = 1, so S_abs = len(s).
    base = len(layout.s) if variant == "abs" else 0
    # A layout smaller than a block (the 2^9 ones) needs only its own offsets.
    size = min(_BLOCK, 1 << layout.n_bits)
    # |omega| <= 6 chi terms + 12 correlators = 18, so int8 cannot overflow.
    first = np.full(size, base, dtype=np.int8)
    for sign, low, _ in terms:
        accumulate = np.add if sign > 0 else np.subtract
        accumulate(first, _parity_table(low, size), out=first)
    first.flags.writeable = False
    # Only a term with bits in the block number can change between blocks.
    movable = [term for term in terms if term[2]]
    previous = (1,) * len(movable)
    seen = {previous: 0}
    steps = []
    for start in range(_BLOCK, 1 << layout.n_bits, _BLOCK):
        signs = tuple(_block_sign(start, high) for _, _, high in movable)
        if signs in seen:
            steps.append(seen[signs])
        else:
            seen[signs] = start >> _BLOCK_BITS
            # Each flipped term moves towards its sign in the new block.
            steps.append(_step_delta(tuple(
                (sign * new, low)
                for (sign, low, _), new, old in zip(movable, signs, previous) if new != old)))
        previous = signs
    return _Plan(first, tuple(steps), frozenset(s for s in steps if isinstance(s, int)))


def _omega_blocks(layout: _Layout, variant: str):
    """Yield (first index, omega of its models, source) for each whole
    block of ``layout``: one block of all 2^n_bits models when the layout
    is smaller than ``_BLOCK``, else blocks of ``_BLOCK`` models.

    The blocks follow ``_plan``: a repeated block is yielded as the same
    array as the block that it repeats, and every other block is computed
    with one add.  ``source`` is the number of the block whose values
    these are, the block's own number when it is computed.  Only the
    blocks that a later block repeats are kept.  Each block is built out
    of place and yielded read-only: it is never mutated afterwards, and
    the next block is derived from it.
    """
    plan = _plan(layout, variant)
    values = plan.first
    kept = {0: values}  # held by the plan anyway
    yield 0, values, 0
    for number, step in enumerate(plan.steps, 1):
        if isinstance(step, int):
            values, source = kept[step], step
        else:
            values, source = np.add(values, step), number
            values.flags.writeable = False
            if number in plan.kept:
                kept[number] = values
        yield number << _BLOCK_BITS, values, source


def _scan(layout: _Layout, variant: str, count: int = 1):
    """Max omega over every model of ``layout`` and its ``count`` lowest
    attaining indices."""
    best, found = -math.inf, []
    maxima = {}  # by source block: each distinct block's maximum is taken once
    for first, values, source in _omega_blocks(layout, variant):
        top = maxima.get(source)
        if top is None:
            top = maxima[source] = int(values.max())
        # Blocks ascend, so a block can only displace the witnesses with a
        # higher maximum, or append to them on a tie.
        if top > best:
            best, found = top, []
        if top == best and len(found) < count:
            found += (np.flatnonzero(values == top)[: count - len(found)] + first).tolist()
    return best, found


def _check_variant(variant: str) -> None:
    if variant not in ("signed", "abs"):
        raise ValueError(f"variant must be 'signed' or 'abs', got {variant!r}")


def _bound(layout: _Layout, variant: str, name: str, count: int, decode) -> BoundResult:
    """Max omega over every model of ``layout``, labelled ``name``, with its
    ``count`` lowest attaining indices decoded by ``decode``, from one scan."""
    best, found = _scan(layout, variant, count)
    return BoundResult(
        variant=name,
        max_value=float(best),
        argmax_models=tuple(map(decode, found)),
        models_scanned=1 << layout.n_bits,
    )


def local_omega_bound(
    variant: str = "signed", workers: int = 1, max_witnesses: int = 1
) -> BoundResult:
    """Exhaustive max of omega over all 2^21 local contextual models.

    Args:
        variant: ``"signed"`` or ``"abs"``.
        workers: Accepted for compatibility and validated; it changes
            neither the result nor the work, which is one scan in this
            process.
        max_witnesses: How many lowest-index maximizing models to decode.
            The scan keeps them in the same pass, so the models are
            scanned once for any count.

    Raises:
        ValueError: On an unknown variant, or if ``workers`` or
            ``max_witnesses`` is not an integer >= 1.
    """
    _check_variant(variant)
    _checked_int("workers", workers, 1)
    max_witnesses = _checked_int("max_witnesses", max_witnesses, 1)
    return _bound(_CONSTRAINED, variant, variant, max_witnesses, decode_model)


# Not called here: kept only because bench/tracer.py binds this name.
def _indices_attaining(target: int, variant: str, count: int) -> list[int]:
    """The ``count`` lowest model indices attaining the maximum ``target``."""
    best, found = _scan(_CONSTRAINED, variant, count)
    if best != target:
        raise ValueError(f"{target} is not the maximum omega {best}")
    return found


def relaxed_omega_scan(variant: str = "signed") -> BoundResult:
    """Max omega over the superset of models without leader sharing.

    Shows how much of the signed bound rests on the leaders taking single
    values: with sharing dropped, each sequence may pick its leading
    outcome independently, the six products decouple, and the signed max
    rises to the quantum value 18.  No witnesses are decoded
    (``argmax_models`` is empty): the 24-bit indices are not ``HVModel``s.
    """
    _check_variant(variant)
    return _bound(_RELAXED, variant, variant, 0, None)


@dataclass(frozen=True)
class ChainScanResult:
    all_hold: bool
    identities_hold: bool
    cases_checked: int


def chain_inequality_scan() -> ChainScanResult:
    """Check that first-measurement triples are bounded by sequence
    products plus mismatch penalties, in every local contextual model.

    For each sequence (leader f, slots m2 and m3 with Bob partners p2 and
    p3, chi sign s) it checks the exchange identities
    |f*p2*p3 - f*m2*p3| == 1 - m2*p2 and |f*m2*p3 - f*m2*m3| == 1 - m3*p3,
    and the lower bound s*f*p2*p3 >= s*f*m2*m3 - (1 - m2*p2) - (1 - m3*p3).
    These read only the five ±1 values and s.  In the 2^21 layout the five
    are distinct bits (ABC: bits 0, 3, 4, 15 and 16, and so on), so each
    model's check of a sequence is one of the 32 value tuples, and the
    6 x 32 cases checked here cover all 2^21 models.
    """
    cases = [(CHI_SIGNS[seq], *values)
             for seq in SEQUENCE_ORDER for values in product((1, -1), repeat=5)]
    identities_ok = inequalities_ok = True
    for sign, f, m2, m3, p2, p3 in cases:
        first_product, middle, seq_product = f * p2 * p3, f * m2 * p3, f * m2 * m3
        pen2, pen3 = 1 - m2 * p2, 1 - m3 * p3
        identities_ok &= abs(first_product - middle) == pen2 and abs(middle - seq_product) == pen3
        inequalities_ok &= sign * first_product >= sign * seq_product - pen2 - pen3
    return ChainScanResult(
        all_hold=inequalities_ok and identities_ok,
        identities_hold=identities_ok,
        cases_checked=len(cases),
    )


@dataclass(frozen=True)
class GapReport:
    """Quantum values vs scanned classical bounds, per variant."""

    chi_quantum: float
    omega_quantum: float
    noncontextual_chi_bound: float
    first_measurement_bound: float
    omega_bound_signed: float
    omega_bound_abs: float
    chi_gap: float
    signed_gap: float
    gaps_equal: bool
    abs_gap: float
    abs_variant_reaches_quantum_value: bool
    note: str


def bound_gap_report(
    chi_bound: BoundResult,
    first_bound: BoundResult,
    signed_bound: BoundResult,
    abs_bound: BoundResult,
) -> GapReport:
    """Compare quantum values against the given scanned bounds.

    The quantum values are taken from the exact engine at visibility 1,
    not hard-coded.
    """
    report = omega(four_qubit_state(1.0))
    chi_gap = report.chi - chi_bound.max_value
    signed_gap = report.omega_signed - signed_bound.max_value
    abs_gap = report.omega_abs - abs_bound.max_value
    reaches = abs_gap <= 0.0
    note = (
        "the absolute-value variant admits a local contextual model reaching the "
        "quantum value; only the sign-resolved variant has a strict bound of 16"
        if reaches
        else "all scanned bounds lie strictly below the quantum values"
    )
    return GapReport(
        chi_quantum=report.chi,
        omega_quantum=report.omega_signed,
        noncontextual_chi_bound=chi_bound.max_value,
        first_measurement_bound=first_bound.max_value,
        omega_bound_signed=signed_bound.max_value,
        omega_bound_abs=abs_bound.max_value,
        chi_gap=chi_gap,
        signed_gap=signed_gap,
        gaps_equal=abs(chi_gap - signed_gap) < 1e-12,
        abs_gap=abs_gap,
        abs_variant_reaches_quantum_value=reaches,
        note=note,
    )
