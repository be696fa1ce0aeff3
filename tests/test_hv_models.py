"""Tests for the hidden-variable model enumeration and bounds."""

import math
import os
import time
from collections import Counter
from functools import cache

import numpy as np
import pytest

from bellsquare import (
    BOB_LABELS,
    CHI_SIGNS,
    HVModel,
    NoncontextualAssignment,
    SEQUENCE_ORDER,
    S_TERMS,
    bound_gap_report,
    chain_inequality_scan,
    decode_model,
    encode_model,
    evaluate_model,
    local_omega_bound,
    first_measurement_bound,
    noncontextual_chi_bound,
    relaxed_omega_scan,
)
from bellsquare import hv_models
from bellsquare.hv_models import (
    N_MODEL_BITS,
    N_MODELS,
    N_RELAXED_MODELS,
    _BLOCK,
    _CONSTRAINED,
    _MODEL_BIT,
    _RELAXED,
    _context_free_layout,
    _omega_blocks,
    _parity_table,
    _scan,
    _step_delta,
)
from conftest import (
    oracle_consistency,
    oracle_model_histogram,
    oracle_omega_values,
    oracle_parity_cases,
    oracle_scan,
)

ALICE_ORDER = ("A", "B", "C", "a", "b", "c", "α", "β", "γ")
FIRST_MEASUREMENT_ORDER = ("A", "b", "γ", "B'", "C'", "a'", "c'", "α'", "β'")


def flip_involution(index: int) -> int:
    """Omega-preserving sign flip: negate all slot-2/3 Alice outcomes and
    all Bob outcomes.

    Each chi term contains exactly two later-position values and each
    correlator pairs one later-position value with one Bob value, so both
    sums are invariant; flipping leader bits as well would negate chi.
    """
    return index ^ ((1 << N_MODEL_BITS) - 1) ^ 0b111  # all bits except the three leaders


@cache
def block_values(layout, variant) -> np.ndarray:
    """Omega of every model of ``layout`` from the block kernel, in index
    order; read-only, built once per (layout, variant)."""
    firsts, blocks = [], []
    for first, values in _omega_blocks(layout, variant):
        firsts.append(first)
        blocks.append(values)
    assert firsts == sorted(firsts) and sum(map(len, blocks)) == 1 << layout.n_bits
    values = np.concatenate(blocks)
    values.flags.writeable = False
    return values


def omega_at(layout, variant, indices) -> list[int]:
    """Omega of each model index, read from the whole-layout array."""
    return block_values(layout, variant)[indices].tolist()


def omega_histogram(layout, variant) -> dict[int, int]:
    """How many of the layout's models take each omega (|omega| <= 18)."""
    values = block_values(layout, variant)
    counts = {value: int(np.count_nonzero(values == value)) for value in range(-18, 19)}
    return {value: n for value, n in counts.items() if n}


FULL_SCANS = [(layout, variant) for layout in (_CONSTRAINED, _RELAXED)
              for variant in ("signed", "abs")]


def all_plus_model() -> HVModel:
    alice = {(seq, pos): 1 for seq in SEQUENCE_ORDER for pos in (1, 2, 3)}
    bob = {label: 1 for label in BOB_LABELS}
    return HVModel(alice=alice, bob=bob)


class TestNoncontextualAssignment:
    def test_all_plus_chi_is_four(self):
        values = {lab: 1 for lab in "ABCabc"} | {"α": 1, "β": 1, "γ": 1}
        assert NoncontextualAssignment(values=values).chi() == 4

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            NoncontextualAssignment(values={"A": 1})

    def test_bad_values_rejected(self):
        values = {lab: 1 for lab in "ABCabc"} | {"α": 1, "β": 1, "γ": 0}
        with pytest.raises(ValueError):
            NoncontextualAssignment(values=values)

    @pytest.mark.parametrize("bad", [True, 1.0, -1.0])
    def test_non_integer_values_rejected(self, bad):
        values = {lab: 1 for lab in "ABCabc"} | {"α": 1, "β": 1, "γ": bad}
        with pytest.raises(ValueError, match="±1"):
            NoncontextualAssignment(values=values)


class TestContextFreeBounds:
    def test_noncontextual_chi_bound(self):
        result = noncontextual_chi_bound()
        assert result.max_value == 4.0
        assert result.models_scanned == 512
        assert len(result.argmax_models) >= 1
        for witness in result.argmax_models:
            assert witness.chi() == 4

    def test_quantum_value_exceeds_bound_by_two(self, ideal_state):
        from bellsquare import omega
        assert omega(ideal_state).chi - noncontextual_chi_bound().max_value == pytest.approx(2.0, abs=1e-9)

    def test_first_measurement_bound(self):
        result = first_measurement_bound()
        assert result.max_value == 4.0
        assert result.models_scanned == 512
        for witness in result.argmax_models:
            assert witness.chi() == 4

    def test_first_measurement_all_plus(self):
        values = {lab: 1 for lab in ("A", "b", "γ", "B'", "C'", "a'", "c'", "α'", "β'")}
        assert NoncontextualAssignment(values=values).chi() == 4

    def test_brute_force_oracle(self):
        # Independent pure-Python maximization over all 512 assignments.
        from itertools import product
        from bellsquare import SEQUENCES
        labels = ("A", "B", "C", "a", "b", "c", "α", "β", "γ")
        best = -99
        for bits in product((1, -1), repeat=9):
            values = dict(zip(labels, bits))
            chi = sum(
                CHI_SIGNS[seq] * values[m1] * values[m2] * values[m3]
                for seq, (m1, m2, m3) in SEQUENCES.items()
            )
            best = max(best, chi)
        assert best == 4
        assert noncontextual_chi_bound().max_value == best

    @pytest.mark.parametrize("bound, labels, read_as", [
        (noncontextual_chi_bound, ("A", "B", "C", "a", "b", "c", "α", "β", "γ"), {}),
        (first_measurement_bound, ("A", "b", "γ", "B'", "C'", "a'", "c'", "α'", "β'"),
         {"B": "B'", "C": "C'", "a": "a'", "c": "c'", "α": "α'", "β": "β'"}),
    ])
    def test_layout_matches_brute_force_oracle(self, bound, labels, read_as):
        # Every maximizing assignment, lowest index first (bit j is labels[j]),
        # recomputed label by label without the bit layout.
        from bellsquare import CHI_SIGNS, SEQUENCES
        chis = {}
        for i in range(512):
            values = {label: 1 - 2 * ((i >> j) & 1) for j, label in enumerate(labels)}
            chis[i] = sum(
                CHI_SIGNS[seq] * np.prod([values[read_as.get(m, m)] for m in members])
                for seq, members in SEQUENCES.items()
            )
            assert NoncontextualAssignment(values=values).chi() == chis[i]
        best = max(chis.values())
        expected = [i for i in range(512) if chis[i] == best]
        result = bound(max_witnesses=512)
        assert result.max_value == best == 4
        got = [sum(1 << j for j, label in enumerate(labels) if w.values[label] == -1)
               for w in result.argmax_models]
        assert got == expected


class TestHVModel:
    def test_decode_encode_round_trip(self):
        rng = np.random.default_rng(33)
        for index in rng.integers(0, N_MODELS, size=50):
            assert encode_model(decode_model(int(index))) == int(index)

    def test_leader_sharing_enforced(self):
        model = all_plus_model()
        broken = dict(model.alice)
        broken[("Aaα", 1)] = -1  # A must match its value in ABC
        with pytest.raises(ValueError, match="leader"):
            HVModel(alice=broken, bob=dict(model.bob))

    def test_table_shapes_enforced(self):
        model = all_plus_model()
        with pytest.raises(ValueError):
            HVModel(alice={}, bob=dict(model.bob))
        with pytest.raises(ValueError):
            HVModel(alice=dict(model.alice), bob={"B'": 1})

    @pytest.mark.parametrize("side", ["alice", "bob"])
    @pytest.mark.parametrize(
        "bad", [True, 1.0, -1.0, np.float64(1.0)], ids=["True", "1.0", "-1.0", "float64"]
    )
    def test_non_integer_outcomes_rejected(self, side, bad):
        # A bool or float equal to ±1 would make evaluate_model return floats.
        model = all_plus_model()
        tables = {"alice": dict(model.alice), "bob": dict(model.bob)}
        tables[side][next(iter(tables[side]))] = bad
        with pytest.raises(ValueError, match="±1"):
            HVModel(**tables)

    def test_all_plus_evaluation(self):
        ev = evaluate_model(all_plus_model())
        assert ev.chi == 4  # γcC product +1 enters with a minus sign
        assert ev.s_abs == 12
        assert ev.s_signed == 4  # the four anticorrelated terms contribute -1
        assert ev.omega_abs == 16
        assert ev.omega_signed == 8

    def test_s_abs_is_twelve_for_every_deterministic_model(self):
        rng = np.random.default_rng(99)
        for index in rng.integers(0, N_MODELS, size=300):
            assert evaluate_model(decode_model(int(index))).s_abs == 12


class TestLocalOmegaBound:
    def test_signed_bound_is_sixteen(self):
        result = local_omega_bound("signed")
        assert result.max_value == 16.0
        assert result.models_scanned == 2_097_152
        witness = result.argmax_models[0]
        assert evaluate_model(witness).omega_signed == 16

    def test_abs_bound_is_eighteen(self):
        result = local_omega_bound("abs")
        assert result.max_value == 18.0
        witness = result.argmax_models[0]
        evaluation = evaluate_model(witness)
        assert evaluation.omega_abs == 18
        assert evaluation.chi == 6 and evaluation.s_abs == 12

    def test_explicit_abs_witness(self):
        # All outcomes +1 except C inside the γcC sequence.
        model = all_plus_model()
        alice = dict(model.alice)
        alice[("γcC", 3)] = -1
        tweaked = HVModel(alice=alice, bob=dict(model.bob))
        evaluation = evaluate_model(tweaked)
        assert evaluation.chi == 6
        assert evaluation.s_abs == 12
        assert evaluation.omega_abs == 18

    def test_variant_validated(self):
        with pytest.raises(ValueError):
            local_omega_bound("plain")

    @staticmethod
    def _refuse_pools(monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("local_omega_bound started a process pool")

        monkeypatch.setattr(hv_models, "ProcessPoolExecutor", no_pool)

    def test_workers_bit_identical(self, monkeypatch):
        self._refuse_pools(monkeypatch)
        results = [local_omega_bound("signed", workers=w) for w in (1, 2, 3, 8, 64)]
        assert len({r.max_value for r in results}) == 1
        assert len({encode_model(r.argmax_models[0]) for r in results}) == 1

    @pytest.mark.parametrize("bad", [True, 2.5, "2", 0, -3])
    def test_bad_workers_and_witness_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            local_omega_bound("signed", workers=bad)
        with pytest.raises(ValueError, match="max_witnesses"):
            local_omega_bound("signed", max_witnesses=bad)
        with pytest.raises(ValueError, match="max_witnesses"):
            noncontextual_chi_bound(max_witnesses=bad)

    # None: the default workers.
    @pytest.mark.parametrize("workers", [3, None])
    def test_no_process_pool_started(self, monkeypatch, workers):
        self._refuse_pools(monkeypatch)
        kwargs = {} if workers is None else {"workers": workers}
        result = local_omega_bound("signed", **kwargs)
        assert result.max_value == 16.0
        assert [encode_model(m) for m in result.argmax_models] == [2603]

    # Neither the CPU count nor workers splits the scan: one call, whatever both are.
    @pytest.mark.parametrize("cpus, workers, witnesses",
                             [(3, 64, 3), (None, 64, 1), (3, 10**12, 3), (None, 10**12, 1),
                              (3, 1, 2), (3, 2, 2), (3, 3, 2)])
    def test_partitions_clamped_to_cpu_count(self, monkeypatch, cpus, workers, witnesses):
        scanned = []

        def counting_scan(layout, variant, count=1):
            scanned.append(count)
            return _scan(layout, variant, count)

        monkeypatch.setattr(hv_models, "_scan", counting_scan)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        result = local_omega_bound("signed", workers=workers, max_witnesses=witnesses)
        assert scanned == [witnesses]
        assert result.max_value == 16.0
        assert [encode_model(m) for m in result.argmax_models] == [2603, 2607, 2735][:witnesses]

    def test_multiple_witnesses(self):
        result = local_omega_bound("signed", max_witnesses=3)
        assert len(result.argmax_models) == 3
        values = [evaluate_model(w).omega_signed for w in result.argmax_models]
        assert values == [16, 16, 16]

    @pytest.mark.parametrize("variant", ["signed", "abs"])
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_partitioned_witnesses_match_oracle(self, variant, count):
        # The witnesses come from the one pass, whatever workers is.
        best, expected = oracle_scan(_CONSTRAINED, variant, 0, N_MODELS, count)
        for workers in (1, 2, 3, 8):
            result = local_omega_bound(variant, workers=workers, max_witnesses=count)
            assert result.max_value == best
            assert [encode_model(m) for m in result.argmax_models] == expected

    def test_every_optimal_signed_model_returned(self):
        result = local_omega_bound("signed", workers=3, max_witnesses=1000)
        indices = [encode_model(m) for m in result.argmax_models]
        # 96 frustrated cases x 3 (TestParityCertificate), in index order.
        assert len(indices) == 288 and indices == sorted(set(indices))
        assert all(evaluate_model(m).omega_signed == 16 for m in result.argmax_models)

    def test_scan_runtime_single_threaded(self):
        start = time.perf_counter()
        local_omega_bound("signed")
        assert time.perf_counter() - start < 10.0


class TestChainInequality:
    def test_full_scan(self):
        result = chain_inequality_scan()
        assert result.all_hold
        assert result.identities_hold
        assert result.cases_checked == 192

    def test_cases_cover_every_model(self):
        # The check of a sequence reads its leader, its slots 2 and 3 and
        # their Bob partners.  Five distinct bits take all 32 sign tuples
        # over the 2^21 models, so the 32 cases of each sequence are exactly
        # what a scan of the models would check.
        for seq in SEQUENCE_ORDER:
            partners = {t.position: t.bob for t in S_TERMS if t.sequence == seq}
            assert set(partners) == {2, 3}
            bits = [_MODEL_BIT[seq, pos] for pos in (1, 2, 3)]
            bits += [_MODEL_BIT[partners[pos]] for pos in (2, 3)]
            assert len(set(bits)) == 5 and all(0 <= b < N_MODEL_BITS for b in bits)


class TestInvolution:
    def test_preserves_omega_vectorized(self):
        idx = np.arange(N_MODELS)
        mask = flip_involution(0)
        for variant in ("signed", "abs"):
            values = block_values(_CONSTRAINED, variant)
            assert np.array_equal(values, values[idx ^ mask])

    @pytest.mark.parametrize("bad", [-1, N_MODELS, 1 << 40, 2.5, True])
    def test_rejects_out_of_range_index(self, bad):
        with pytest.raises(ValueError, match=r"index must lie in \[0, 2097152\)"):
            decode_model(bad)

    def test_is_an_involution(self):
        assert flip_involution(flip_involution(12345)) == 12345

    def test_leaders_untouched(self):
        index = 0b111  # all three leader bits set
        assert flip_involution(index) & 0b111 == 0b111


class TestRelaxedScan:
    def test_leader_sharing_is_load_bearing(self):
        result = relaxed_omega_scan("signed")
        assert result.models_scanned == 1 << 24
        assert result.max_value == 18.0  # without sharing the bound collapses
        assert result.argmax_models == ()

    def test_abs_unchanged(self):
        assert relaxed_omega_scan("abs").max_value == 18.0


class TestLayoutTables:
    """The shared term tables against evaluations that do not use them."""

    def test_constrained_layout_matches_evaluate_model(self):
        rng = np.random.default_rng(2021)
        indices = rng.integers(0, N_MODELS, size=300)
        signed = omega_at(_CONSTRAINED, "signed", indices)
        absolute = omega_at(_CONSTRAINED, "abs", indices)
        for k, index in enumerate(indices):
            model = decode_model(int(index))
            evaluation = evaluate_model(model)
            assert (signed[k], absolute[k]) == (evaluation.omega_signed, evaluation.omega_abs)
            a = model.alice
            assert evaluation.chi_terms.terms == {
                seq: a[seq, 1] * a[seq, 2] * a[seq, 3] for seq in SEQUENCE_ORDER}
            assert evaluation.s_terms.terms == {
                t.key: a[t.sequence, t.position] * model.bob[t.bob] for t in S_TERMS}
            values = (evaluation.chi, evaluation.s_abs, evaluation.s_signed,
                      evaluation.omega_abs, evaluation.omega_signed)
            assert all(type(v) is int for v in values), values

    def test_relaxed_layout_matches_per_slot_evaluation(self):
        # Bits 0-17: the three slots of each sequence in SEQUENCE_ORDER;
        # bits 18-23: Bob outcomes in BOB_LABELS order; bit 1 is outcome -1.
        from bellsquare import CHI_SIGNS, S_TERMS
        rng = np.random.default_rng(2024)
        indices = rng.integers(0, N_RELAXED_MODELS, size=300)
        signed = omega_at(_RELAXED, "signed", indices)
        absolute = omega_at(_RELAXED, "abs", indices)
        for k, index in enumerate(int(i) for i in indices):
            outcome = [1 - 2 * ((index >> b) & 1) for b in range(24)]
            alice = {(seq, pos): outcome[3 * i + pos - 1]
                     for i, seq in enumerate(SEQUENCE_ORDER) for pos in (1, 2, 3)}
            bob = {label: outcome[18 + j] for j, label in enumerate(BOB_LABELS)}
            chi = sum(CHI_SIGNS[seq] * alice[seq, 1] * alice[seq, 2] * alice[seq, 3]
                      for seq in SEQUENCE_ORDER)
            correlators = [t.sign * alice[t.sequence, t.position] * bob[t.bob] for t in S_TERMS]
            assert signed[k] == chi + sum(correlators)
            assert absolute[k] == chi + sum(abs(c) for c in correlators)


class TestBlockKernel:
    """The block kernel against the per-index reference evaluator."""

    @pytest.mark.parametrize("variant", ["signed", "abs"])
    def test_all_constrained_models_match_reference(self, variant):
        for first, values in _omega_blocks(_CONSTRAINED, variant):
            idx = np.arange(first, first + len(values), dtype=np.uint32)
            assert np.array_equal(values, oracle_omega_values(idx, variant, _CONSTRAINED))

    @pytest.mark.parametrize("labels", [ALICE_ORDER, FIRST_MEASUREMENT_ORDER])
    def test_context_free_layouts_match_reference(self, labels):
        layout = _context_free_layout(labels)
        assert layout.n_bits == 9
        blocks = list(_omega_blocks(layout, "signed"))
        assert [(first, len(values)) for first, values in blocks] == [(0, 512)]
        idx = np.arange(512, dtype=np.uint32)
        assert np.array_equal(blocks[0][1], oracle_omega_values(idx, "signed", layout))

    @pytest.mark.parametrize("variant", ["signed", "abs"])
    def test_all_relaxed_models_match_reference(self, variant):
        # Every block after the first is derived from the one before it.
        for first, values in _omega_blocks(_RELAXED, variant):
            assert not values.flags.writeable
            idx = np.arange(first, first + len(values), dtype=np.uint32)
            assert np.array_equal(values, oracle_omega_values(idx, variant, _RELAXED))

    def test_maximum_past_block_zero(self):
        # Every bound's layout has a maximizer in block 0, so a scan that
        # kept block 0's maximum would pass them.  Negated, the relaxed
        # signed omega reaches 14 in block 0 and 18 only in later blocks.
        layout = _RELAXED._replace(chi=tuple((-sign, bits) for sign, bits in _RELAXED.chi),
                                   s=tuple((-sign, bits) for sign, bits in _RELAXED.s))
        values = block_values(_RELAXED, "signed")
        assert values.min() == -18 and values[:_BLOCK].min() == -14
        assert _scan(layout, "signed", 3) == (18, np.flatnonzero(values == -18)[:3].tolist())

    def test_step_deltas_are_doubled_table_sums(self, monkeypatch):
        steps = set()

        def recording(step):
            steps.add(step)
            return _step_delta(step)

        monkeypatch.setattr(hv_models, "_step_delta", recording)
        for layout, variant in FULL_SCANS:
            _scan(layout, variant)
        assert steps
        for step in steps:
            delta = _step_delta(step)
            assert delta.dtype == np.int8 and not delta.flags.writeable
            expected = 2 * sum(direction * _parity_table(low, _BLOCK).astype(np.int64)
                               for direction, low in step)
            assert np.array_equal(delta, expected)

    def test_step_delta_cache_stays_small(self):
        # Other layouts (the part maxima's, say) add steps of their own.
        _step_delta.cache_clear()
        for layout, variant in FULL_SCANS:
            _scan(layout, variant)
        # 19 + 2 distinct steps in the 2^24 scans, 5 + 0 in the 2^21 ones,
        # each delta 64 KiB.
        assert _step_delta.cache_info().currsize <= 26

    def test_unchanged_blocks_are_yielded_again(self):
        # No chi term reads a Bob bit, so no abs term has a block-number bit.
        blocks = [values for _, values in _omega_blocks(_CONSTRAINED, "abs")]
        assert len(blocks) == N_MODELS // _BLOCK == 32
        assert all(values is blocks[0] for values in blocks)


class TestOmegaHistograms:
    """The kernel's histograms against ``oracle_model_histogram``, which
    convolves what each sequence reaches in each leader and Bob case and
    never enumerates a model index, and the optimal-model counts in closed
    form.  A kernel that mis-updates one block can keep the maximum, but
    not these."""

    def test_constrained_signed(self):
        histogram = omega_histogram(_CONSTRAINED, "signed")
        assert histogram == oracle_model_histogram("signed")
        # One frustrated sequence in 96 cases, at 1 by 3 of its 4 slot choices.
        assert max(histogram) == 16 and histogram[16] == 96 * 3

    def test_constrained_abs(self):
        histogram = omega_histogram(_CONSTRAINED, "abs")
        assert histogram == oracle_model_histogram("abs")
        # S_abs = 12 always, and chi = 6 fixes each sequence's last slot.
        assert max(histogram) == 18
        assert histogram[18] == N_MODELS // 2 ** len(SEQUENCE_ORDER) == 32_768

    # Relaxed signed: with no parity rule the Bob values fix every slot.
    # Relaxed abs: chi = 6 fixes each sequence's last slot.
    @pytest.mark.parametrize("variant, optimal", [
        ("signed", 2 ** len(BOB_LABELS)),
        ("abs", N_RELAXED_MODELS // 2 ** len(SEQUENCE_ORDER)),
    ])
    def test_relaxed_optimal_counts(self, variant, optimal):
        histogram = omega_histogram(_RELAXED, variant)
        assert histogram == oracle_model_histogram(variant, relaxed=True)
        assert max(histogram) == 18 and histogram[18] == optimal
        assert sum(histogram.values()) == N_RELAXED_MODELS


class TestParityCertificate:
    """Why the signed bound is 16.  In each of the 512 leader and Bob
    cases a sequence reaches 3 when its consistency sign is +1 and at most
    1 when it is frustrated.  Each leader, Bob value and pair sign appears
    in two sequences, so the six consistency signs multiply to the product
    of the chi signs, -1 (the Peres-Mermin parity): an odd number of
    sequences is frustrated in every case."""

    def test_frustration_histogram(self):
        frustrated = Counter()
        for leaders, bob, reach in oracle_parity_cases("signed"):
            signs = [oracle_consistency(name, leaders, bob) for name in SEQUENCE_ORDER]
            assert math.prod(signs) == math.prod(CHI_SIGNS.values()) == -1
            for name, sign in zip(SEQUENCE_ORDER, signs):
                top = max(reach[name])
                assert (top, reach[name][top]) == ((3, 1) if sign == 1 else (1, 3))
            frustrated[signs.count(-1)] += 1
        assert frustrated == {1: 96, 3: 320, 5: 96}

    def test_maximum_and_optimal_models(self):
        optimal = Counter()
        for _, _, reach in oracle_parity_cases("signed"):
            top = sum(max(counts) for counts in reach.values())
            optimal[top] += math.prod(counts[max(counts)] for counts in reach.values())
        assert max(optimal) == 16 == local_omega_bound("signed").max_value
        assert optimal[16] == 96 * 3 == 288


class TestPartMaxima:
    """Each part of omega alone reaches its quantum value in a local model:
    the same kernel on the chi terms only and on the correlators only,
    with the lowest witness of each read back through ``evaluate_model``."""

    @pytest.mark.parametrize("part, layout, best, witness", [
        ("chi", _CONSTRAINED._replace(s=()), 6, 132),
        ("s_signed", _CONSTRAINED._replace(chi=()), 12, 2600),
        ("omega_signed", _CONSTRAINED, 16, 2603),
    ], ids=["chi", "s_signed", "omega_signed"])
    def test_part_maximum(self, part, layout, best, witness):
        assert _scan(layout, "signed") == (best, [witness])
        assert getattr(evaluate_model(decode_model(witness)), part) == best


class TestGapReport:
    def test_gaps(self):
        report = bound_gap_report(
            noncontextual_chi_bound(),
            first_measurement_bound(),
            local_omega_bound("signed"),
            local_omega_bound("abs"),
        )
        assert report.chi_quantum == pytest.approx(6.0, abs=1e-9)
        assert report.omega_quantum == pytest.approx(18.0, abs=1e-9)
        assert report.chi_gap == pytest.approx(2.0, abs=1e-9)
        assert report.signed_gap == pytest.approx(2.0, abs=1e-9)
        assert report.gaps_equal
        assert report.abs_gap == pytest.approx(0.0, abs=1e-9)
        assert report.abs_variant_reaches_quantum_value
        assert "16" in report.note
