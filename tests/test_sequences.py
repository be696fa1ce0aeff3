"""Tests for sequence distributions, no-signaling and the shot sampler."""

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellsquare import (
    BOB_LABELS,
    OutcomeDistribution,
    S_TERMS,
    SEQUENCE_ORDER,
    SequenceSpec,
    bob_marginal,
    commutes,
    conditional_pair_expectation,
    derive_seed,
    expectation,
    four_qubit_state,
    OBSERVABLES,
    product_expectation,
    sample,
    sample_outcomes,
    sequence_distribution,
    uniform01,
)
from bellsquare import sequences
from bellsquare.sequences import (
    MAX_RECORDS,
    _COUNT_CHUNK,
    _count_outcomes,
    _inverse_cdf,
    _mix64,
)

from conftest import oracle_sample_records, oracle_sequential_distribution, seeded_state


def alice_marginal(dist: OutcomeDistribution, position: int) -> dict[int, float]:
    """Marginal distribution of the Alice outcome at a 1-based position."""
    marginal = {1: 0.0, -1: 0.0}
    for outcomes, prob in dist.entries.items():
        marginal[outcomes[position - 1]] += prob
    return marginal


class TestSequenceSpec:
    def test_valid(self):
        spec = SequenceSpec("ABC", "B'")
        assert spec.alice_labels == ("A", "B", "C")
        assert spec.n_outcomes == 4
        assert SequenceSpec("γcC").n_outcomes == 3

    def test_unknown_sequence(self):
        with pytest.raises(ValueError):
            SequenceSpec("ACB")

    def test_unknown_bob(self):
        with pytest.raises(ValueError):
            SequenceSpec("ABC", "B")


class TestOutcomeDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(SequenceSpec("ABC"), {(1, 1, 1): 0.5})

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(SequenceSpec("ABC"), {(1, 1): 1.0})

    def test_rejects_non_pm_one(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(SequenceSpec("ABC"), {(1, 1, 0): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("other", [None, 1.0])
    def test_rejects_non_finite_probability(self, bad, other):
        # nan < -1e-12 and abs(nan - 1) > tol are both False; with a second
        # cell at 1.0 the sampler would silently draw only that cell.
        entries = {(1, 1, 1): bad}
        if other is not None:
            entries[(-1, -1, 1)] = other
        with pytest.raises(ValueError, match="non-finite"):
            OutcomeDistribution(SequenceSpec("ABC"), entries)


class TestSequenceDistribution:
    def test_abc_product_certain(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC"))
        assert all(o[0] * o[1] * o[2] == 1 for o in dist.entries)
        assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_c_C_product_certain_minus(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("γcC"))
        assert all(o[0] * o[1] * o[2] == -1 for o in dist.entries)

    def test_abc_uniform_quarters(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC"))
        assert len(dist.entries) == 4
        for prob in dist.entries.values():
            assert prob == pytest.approx(0.25, abs=1e-12)

    def test_requires_four_qubits(self):
        from bellsquare import singlet_pair
        with pytest.raises(ValueError):
            sequence_distribution(singlet_pair(), SequenceSpec("ABC"))

    @pytest.mark.parametrize(
        "kind, param",
        [pytest.param("werner", v, id=str(v)) for v in (0.0, 0.6, 1.0)]
        + [pytest.param("full_rank", s, id=f"full_rank-{s}") for s in (11, 12, 13)]
        + [pytest.param("pure", s, id=f"pure-{s}") for s in (21, 22, 23)],
    )
    def test_matches_projector_oracle(self, kind, param):
        # Independent route: sequential projector sandwiches in plain numpy.
        rho = seeded_state(kind, param)
        specs = [SequenceSpec(name) for name in SEQUENCE_ORDER]
        specs += [SequenceSpec(t.sequence, t.bob) for t in S_TERMS]
        for spec in specs:
            labels = list(spec.alice_labels) + ([spec.bob] if spec.bob else [])
            want = oracle_sequential_distribution(rho.matrix, labels)
            got = sequence_distribution(rho, spec).entries
            assert set(got) == set(want)
            for outcomes, prob in want.items():
                assert got[outcomes] == pytest.approx(prob, abs=1e-12)

    def test_setting_observables_commute(self):
        # The joint formula equals the sequential one only for commuting sets.
        for name in SEQUENCE_ORDER:
            for bob in (None, *BOB_LABELS):
                spec = SequenceSpec(name, bob)
                labels = list(spec.alice_labels) + ([bob] if bob else [])
                paulis = [OBSERVABLES[lab] for lab in labels]
                for i, p in enumerate(paulis):
                    for q in paulis[i + 1:]:
                        assert commutes(p, q), (spec, p.label, q.label)


class TestExpectations:
    def test_product_expectation_deterministic(self):
        dist = OutcomeDistribution(
            SequenceSpec("ABC"), {(1, 1, 1): 0.5, (1, -1, -1): 0.5}
        )
        assert product_expectation(dist) == 1.0

    def test_product_expectation_uniform(self):
        entries = {}
        for o1 in (1, -1):
            for o2 in (1, -1):
                for o3 in (1, -1):
                    entries[o1, o2, o3] = 0.125
        dist = OutcomeDistribution(SequenceSpec("ABC"), entries)
        assert product_expectation(dist) == pytest.approx(0.0, abs=1e-15)

    def test_bBb_product(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("bBβ"))
        assert product_expectation(dist) == pytest.approx(1.0, abs=1e-10)

    def test_conditional_bb(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC", "B'"))
        assert conditional_pair_expectation(dist, 2) == pytest.approx(-1.0, abs=1e-10)

    def test_conditional_cc_in_gamma_c_C(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("γcC", "C'"))
        assert conditional_pair_expectation(dist, 3) == pytest.approx(1.0, abs=1e-10)

    def test_conditional_vanishes_mixed(self, mixed_state):
        dist = sequence_distribution(mixed_state, SequenceSpec("ABC", "B'"))
        assert conditional_pair_expectation(dist, 2) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_requires_bob(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC"))
        with pytest.raises(ValueError, match="Bob"):
            conditional_pair_expectation(dist, 2)

    def test_conditional_position_validated(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC", "B'"))
        for bad in (4, 0, 2.0, True):
            with pytest.raises(ValueError, match="alice_position"):
                conditional_pair_expectation(dist, bad)


class TestNoSignaling:
    @pytest.mark.parametrize(
        "kind, param",
        [pytest.param("werner", v, id=str(v)) for v in (0.0, 0.5, 1.0)]
        + [pytest.param("full_rank", s, id=f"full_rank-{s}") for s in (14, 15, 16)]
        + [pytest.param("pure", s, id=f"pure-{s}") for s in (24, 25, 26)],
    )
    def test_bob_marginal_independent_of_sequence(self, kind, param):
        rho = seeded_state(kind, param)
        for bob in BOB_LABELS:
            marginals = [
                bob_marginal(sequence_distribution(rho, SequenceSpec(name, bob)))
                for name in SEQUENCE_ORDER
            ]
            reference = marginals[0]
            for marginal in marginals[1:]:
                assert marginal[1] == pytest.approx(reference[1], abs=1e-10)
                assert marginal[-1] == pytest.approx(reference[-1], abs=1e-10)


class TestPositionMarginals:
    def test_marginals_match_direct_measurement(self):
        # Any observable's marginal is the same at any slot of any sequence.
        rho = four_qubit_state(0.7)
        from bellsquare import SEQUENCES
        for name in SEQUENCE_ORDER:
            dist = sequence_distribution(rho, SequenceSpec(name))
            for position, label in enumerate(SEQUENCES[name], start=1):
                direct = (1 + expectation(rho, OBSERVABLES[label])) / 2
                assert alice_marginal(dist, position)[1] == pytest.approx(direct, abs=1e-10)


class TestRngStream:
    def test_uniform01_frozen_values(self):
        # Seed-to-stream mapping is part of the compatibility contract.
        got = [float.hex(x) for x in uniform01(42, 4)]
        assert got == [
            "0x1.7bae644c5fd6dp-1",
            "0x1.477f199d93378p-3",
            "0x1.1d499d5c4c3e6p-2",
            "0x1.607387fc392b8p-2",
        ]

    def test_derive_seed_frozen_values(self):
        assert derive_seed(42, 0) == 13679457532755275413
        assert derive_seed(42, 1) == 2949826092126892291
        assert derive_seed(42, 0, 1) == 17630415256238047317

    @pytest.mark.parametrize("bad", [1.5, True, "1", None])
    def test_derive_seed_rejects_non_integer_seed(self, bad):
        with pytest.raises(ValueError, match="seed"):
            derive_seed(bad, 0)

    @pytest.mark.parametrize("bad", [1.5, "a", True, -1, 2**64, None])
    def test_derive_seed_rejects_bad_index(self, bad):
        with pytest.raises(ValueError, match="index"):
            derive_seed(7, 0, bad)

    def test_stream_is_counter_indexed(self):
        full = uniform01(7, 100)
        head = uniform01(7, 60)
        tail = uniform01(7, 40, start=60)
        assert np.array_equal(full, np.concatenate([head, tail]))

    def test_range(self):
        draws = uniform01(123, 10000)
        assert draws.min() >= 0.0 and draws.max() < 1.0

    @pytest.mark.parametrize("name, bad", [
        ("seed", 1.5), ("seed", True), ("count", 2.5), ("count", True), ("count", -1),
        ("start", -5), ("start", 2.0), ("start", 2**64 - 3),
    ])
    def test_rejects_bad_integers(self, name, bad):
        args = {"seed": 1, "count": 3, "start": 0, name: bad}
        with pytest.raises(ValueError, match=name):
            uniform01(**args)

    def test_rejects_more_than_max_records_draws(self, ideal_state):
        # 24 bytes a draw: 10^9 draws would try to allocate about 24 GB.
        uniform01(1, MAX_RECORDS)
        with pytest.raises(ValueError, match="count"):
            uniform01(1, MAX_RECORDS + 1)
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC"))
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(dist, MAX_RECORDS + 1, seed=1)

    def test_last_counters_follow_contract(self):
        # Draws up to counter 2^64 - 1 are valid and follow the formula.
        start = 2**64 - 4
        want = [(_mix64(7 + (start + k + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
                for k in range(3)]
        assert uniform01(7, 3, start=start).tolist() == want


class TestSampler:
    def test_same_seed_identical(self, ideal_state):
        spec = SequenceSpec("ABC", "B'")
        first = sample(ideal_state, spec, 500, seed=9)
        second = sample(ideal_state, spec, 500, seed=9)
        assert first == second

    def test_zero_shots_rejected(self, ideal_state):
        with pytest.raises(ValueError):
            sample(ideal_state, SequenceSpec("ABC"), 0, seed=1)

    @pytest.mark.parametrize("name, bad", [
        ("shots", 2.5), ("shots", True), ("shots", 0), ("seed", 1.5), ("seed", True),
    ])
    def test_sample_rejects_bad_integers(self, ideal_state, name, bad):
        args = {"shots": 3, "seed": 1, name: bad}
        with pytest.raises(ValueError, match=name):
            sample(ideal_state, SequenceSpec("ABC"), **args)

    @pytest.mark.parametrize("name, bad", [
        ("shots", 2.5), ("shots", True), ("shots", 0), ("seed", 1.5), ("seed", None),
        ("first_shot", -3), ("first_shot", 1.0), ("first_shot", 2**64 - 3),
    ])
    def test_sample_outcomes_rejects_bad_integers(self, ideal_state, name, bad):
        dist = sequence_distribution(ideal_state, SequenceSpec("ABC"))
        args = {"shots": 3, "seed": 1, "first_shot": 0, name: bad}
        with pytest.raises(ValueError, match=name):
            sample_outcomes(dist, **args)

    @pytest.mark.parametrize("shots", [1, 1000, 65_537, 200_003])
    def test_records_match_row_oracle(self, shots):
        cases = [
            (("werner", 0.9), SequenceSpec("ABC", "B'"), 5),
            (("full_rank", 3), SequenceSpec("γcC"), 2**64 - 1),
            (("pure", 4), SequenceSpec("Aaα", "α'"), 0),
        ]
        for state, spec, seed in cases:
            rho = seeded_state(*state)
            records = sample(rho, spec, shots, seed)
            assert records == oracle_sample_records(rho, spec, shots, seed)
            assert {type(v) for r in records for v in r.outcomes} == {int}
            assert all(r.spec is spec for r in records)

    @pytest.mark.parametrize("shots", [MAX_RECORDS + 1, 10**8])
    def test_too_many_records_rejected_before_allocating(self, ideal_state, shots, monkeypatch):
        # The shot check comes before the distribution is built, so a
        # missing check fails here instead of allocating the records.
        def built_too_early(*args):
            raise AssertionError("distribution built before the shot check")

        monkeypatch.setattr(sequences, "sequence_distribution", built_too_early)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="estimate_inequality"):
                sample(ideal_state, SequenceSpec("ABC"), shots, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_abc_products_all_plus_one(self, ideal_state):
        records = sample(ideal_state, SequenceSpec("ABC"), 100_000, seed=3)
        products = [r.outcomes[0] * r.outcomes[1] * r.outcomes[2] for r in records]
        assert np.mean(products) == 1.0

    def test_record_fields(self, ideal_state):
        spec = SequenceSpec("γcC", "c'")
        records = sample(ideal_state, spec, 10, seed=5)
        assert [r.shot_index for r in records] == list(range(10))
        assert all(r.spec is spec and r.seed == 5 and len(r.outcomes) == 4 for r in records)

    def test_empirical_correlator_within_five_sigma(self):
        rho = four_qubit_state(0.8)
        spec = SequenceSpec("ABC", "B'")
        dist = sequence_distribution(rho, spec)
        shots = 100_000
        outs = sample_outcomes(dist, shots, seed=21)
        estimate = float((outs[:, 1] * outs[:, 3]).mean())
        exact = conditional_pair_expectation(dist, 2)
        sigma = math.sqrt((1 - exact**2) / shots)
        assert abs(estimate - exact) <= 5 * sigma

    def test_cell_frequencies_within_five_sigma(self):
        rho = four_qubit_state(0.6)
        spec = SequenceSpec("bac", "a'")
        dist = sequence_distribution(rho, spec)
        shots = 100_000
        outs = sample_outcomes(dist, shots, seed=100)
        rows = [tuple(int(v) for v in row) for row in outs.tolist()]
        for cell, prob in dist.entries.items():
            count = rows.count(cell)
            sigma = math.sqrt(prob * (1 - prob) * shots)
            assert abs(count - prob * shots) <= 5 * sigma

    def test_partitioning_invariance(self, ideal_state):
        dist = sequence_distribution(ideal_state, SequenceSpec("Aaα", "α'"))
        whole = sample_outcomes(dist, 1000, seed=17)
        pieces = np.vstack([
            sample_outcomes(dist, 400, seed=17, first_shot=0),
            sample_outcomes(dist, 600, seed=17, first_shot=400),
        ])
        assert np.array_equal(whole, pieces)


# Property tests: a fixed example seed and no deadline keep them
# deterministic and fast enough for every run.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


SAMPLER_STATES = [("werner", 0.7), ("full_rank", 3), ("pure", 5), ("trace_edge", 1e-10)]


@cache
def setting_distribution(index: int, state=SAMPLER_STATES[0]):
    t = S_TERMS[index]
    return sequence_distribution(seeded_state(*state), SequenceSpec(t.sequence, t.bob))


class TestInverseCdf:
    @pytest.mark.parametrize("param", [1e-10, 4e-10, 7e-10])
    def test_cumulative_sorted_near_trace_edge(self, param):
        # These probabilities can sum to just above 1, so an unclamped
        # running sum passes 1 before its last entry is pinned to 1.
        for index in range(len(S_TERMS)):
            cumulative = _inverse_cdf(setting_distribution(index, ("trace_edge", param)))[1]
            assert np.all(np.diff(cumulative) >= 0)
            assert cumulative[-1] == 1.0

    def test_cumulative_sorted_with_negative_entry(self):
        # Entries down to -1e-12 are accepted; unclamped, this one makes
        # the running sum fall from 0.5 to 0.4999999999995.
        dist = OutcomeDistribution(
            SequenceSpec("ABC"),
            {(1, 1, 1): 0.5 + 5e-13, (1, -1, -1): -5e-13, (-1, 1, -1): 0.5},
        )
        cumulative = _inverse_cdf(dist)[1]
        assert np.all(np.diff(cumulative) >= 0)
        assert cumulative.tolist() == [0.5, 0.5, 1.0]


class TestSamplerProperties:
    @PROPERTY
    @given(index=st.integers(0, len(S_TERMS) - 1), seed=st.integers(0, 2**64 - 1),
           shots=st.integers(1, 3 * _COUNT_CHUNK + 7), state=st.sampled_from(SAMPLER_STATES))
    @example(index=0, seed=0, shots=_COUNT_CHUNK - 1, state=SAMPLER_STATES[0])
    @example(index=3, seed=1, shots=_COUNT_CHUNK, state=SAMPLER_STATES[1])
    @example(index=11, seed=2**64 - 1, shots=2 * _COUNT_CHUNK + 1, state=SAMPLER_STATES[2])
    @example(index=0, seed=4, shots=_COUNT_CHUNK + 3, state=SAMPLER_STATES[3])
    def test_counts_match_sampled_rows(self, index, seed, shots, state):
        # Chunked counts are the cell counts of the per-shot rows.
        dist = setting_distribution(index, state)
        table, counts = _count_outcomes(dist, shots, seed)
        assert table.tolist() == [list(cell) for cell in sorted(dist.entries)]
        # Recover each row's pick (its cell's place in the table) from the
        # bit pattern of its -1 entries.
        weights = 1 << np.arange(table.shape[1])
        place = np.full(1 << table.shape[1], -1)
        place[(table < 0) @ weights] = np.arange(len(table))
        picks = place[(sample_outcomes(dist, shots, seed) < 0) @ weights]
        assert picks.min() >= 0
        assert np.array_equal(counts, np.bincount(picks, minlength=len(table)))

    @PROPERTY
    @given(index=st.integers(0, len(S_TERMS) - 1), seed=st.integers(0, 2**64 - 1),
           start=st.integers(0, 2**63), count=st.integers(2, 5000), cut=st.integers(1, 4999))
    def test_sample_outcomes_partition_invariant(self, index, seed, start, count, cut):
        dist = setting_distribution(index)
        cut = 1 + cut % (count - 1)
        whole = sample_outcomes(dist, count, seed, first_shot=start)
        pieces = np.vstack([
            sample_outcomes(dist, cut, seed, first_shot=start),
            sample_outcomes(dist, count - cut, seed, first_shot=start + cut),
        ])
        assert np.array_equal(whole, pieces)
