"""Shared fixtures and independent numeric oracles.

The oracle helpers here rebuild everything from scratch with plain numpy
(letter tables, kron products, projector sandwiches) so that engine
results are checked against a second, independent route;
``oracle_omega_via_distributions`` reaches omega through the projector
sandwiches of ``oracle_sequential_distribution``, since the library's
``omega`` and ``sequence_distribution`` share one contraction.  The
hidden-variable kernel's histograms are checked against
``oracle_parity_cases`` and ``oracle_model_histogram``, which read only the
``observables`` tables and never enumerate a model index.  The
exceptions read library results: ``oracle_sampled_inequality`` keeps
every shot from the library's
``sample_outcomes``, the per-shot route that the count-based estimator
must reproduce bit for bit, and ``oracle_sample_records`` builds shot
records from those rows one tuple per row, the route ``sample`` must
reproduce.
"""

from collections import Counter
from functools import cache
from itertools import product

import numpy as np
import pytest

from bellsquare import (
    CHI_SIGNS,
    DensityState,
    S_TERMS,
    SEQUENCE_ORDER,
    SEQUENCES,
    SequenceSpec,
    ShotRecord,
    derive_seed,
    four_qubit_state,
    sample_outcomes,
    sequence_distribution,
)
from bellsquare.observables import BOB_LABELS, SEQUENCE_LEADERS

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X, "Y": Y, "Z": Z}

# Letter forms of the fifteen observables, qubit 1 leftmost.
LETTER_DEFS = {
    "A": "ZIII", "B": "IZII", "C": "ZZII",
    "a": "IXII", "b": "XIII", "c": "XXII",
    "α": "ZXII", "β": "XZII", "γ": "YYII",
    "B'": "IIIZ", "C'": "IIZZ", "a'": "IIIX",
    "c'": "IIXX", "α'": "IIZX", "β'": "IIXZ",
}


def kron_letters(letters: str) -> np.ndarray:
    m = np.array([[1]], dtype=complex)
    for ch in letters:
        m = np.kron(m, LETTER[ch])
    return m


def oracle_matrix(label: str) -> np.ndarray:
    return kron_letters(LETTER_DEFS[label])


@cache
def oracle_letter_stack() -> np.ndarray:
    """The 256 letter-form strings as matrices, string x + 16·z at index
    x + 16·z: bit j of the X mask x and the Z mask z sets qubit j + 1's
    letter (X, Z, or Y for both)."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    return np.stack([
        kron_letters("".join(letters[(k >> j) & 1, (k >> (4 + j)) & 1] for j in range(4)))
        for k in range(256)])


def oracle_pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """tr(m · P) of the 256 letter-form strings P, complex, by one einsum
    over their explicit matrices."""
    return np.einsum("kij,ji->k", oracle_letter_stack(), m)


def oracle_sequential_distribution(rho: np.ndarray, labels) -> dict[tuple[int, ...], float]:
    """Joint outcome probabilities via explicit projector sandwiches."""
    dim = rho.shape[0]
    eye = np.eye(dim, dtype=complex)
    entries: dict[tuple[int, ...], float] = {}
    stack = [(rho, ())]
    for label in labels:
        matrix = oracle_matrix(label)
        grown = []
        for state, outcomes in stack:
            for outcome in (1, -1):
                proj = (eye + outcome * matrix) / 2
                branch = proj @ state @ proj
                prob = float(np.real(np.trace(branch)))
                if prob > 1e-12:
                    grown.append((branch, outcomes + (outcome,)))
        stack = grown
    for state, outcomes in stack:
        entries[outcomes] = float(np.real(np.trace(state)))
    return entries


def oracle_omega_via_distributions(rho) -> dict:
    """The 18 inequality terms and both omega values from the projector
    sandwiches of ``oracle_sequential_distribution``: each chi term is the
    mean Alice product of its sequence's joint distribution, each
    correlator the conditional pair mean of its (sequence, Bob) setting's
    distribution."""
    chi_terms = {
        name: sum(p * o[0] * o[1] * o[2] for o, p in
                  oracle_sequential_distribution(rho.matrix, SEQUENCES[name]).items())
        for name in SEQUENCE_ORDER
    }
    s_terms = {
        t.key: sum(p * o[t.position - 1] * o[3] for o, p in oracle_sequential_distribution(
            rho.matrix, [*SEQUENCES[t.sequence], t.bob]).items())
        for t in S_TERMS
    }
    chi = sum(CHI_SIGNS[name] * chi_terms[name] for name in SEQUENCE_ORDER)
    return {
        "chi_terms": chi_terms,
        "s_terms": s_terms,
        "omega_abs": chi + sum(abs(s_terms[t.key]) for t in S_TERMS),
        "omega_signed": chi + sum(t.sign * s_terms[t.key] for t in S_TERMS),
    }


def oracle_sampled_inequality(visibility: float, shots: int, seed: int) -> dict:
    """Finite-shot estimates from every shot's outcome row: each correlator
    the mean of its pair products, each chi term the mean of the
    concatenated Alice products of its sequence's two settings.  Terms map
    to ``(estimate, n_shots)``."""
    rho = four_qubit_state(visibility)
    s_terms, pooled = {}, {name: [] for name in SEQUENCE_ORDER}
    for index, t in enumerate(S_TERMS):
        dist = sequence_distribution(rho, SequenceSpec(t.sequence, t.bob))
        rows = sample_outcomes(dist, shots, derive_seed(seed, index))
        s_terms[t.key] = (float((rows[:, t.position - 1] * rows[:, 3]).mean()), shots)
        pooled[t.sequence].append(rows[:, 0] * rows[:, 1] * rows[:, 2])
    chi_terms = {}
    for name, parts in pooled.items():
        products = np.concatenate(parts)
        chi_terms[name] = (float(products.mean()), products.size)
    chi = float(sum(CHI_SIGNS[name] * chi_terms[name][0] for name in SEQUENCE_ORDER))
    s_abs = float(sum(abs(s_terms[t.key][0]) for t in S_TERMS))
    s_signed = float(sum(t.sign * s_terms[t.key][0] for t in S_TERMS))
    return {
        "chi_terms": chi_terms,
        "s_terms": s_terms,
        "chi": chi,
        "s_abs": s_abs,
        "s_signed": s_signed,
        "omega_abs": chi + s_abs,
        "omega_signed": chi + s_signed,
    }


def oracle_sample_records(rho, spec, shots: int, seed: int) -> list[ShotRecord]:
    """Shot records built row by row from the ``sample_outcomes`` array."""
    rows = sample_outcomes(sequence_distribution(rho, spec), shots, seed).tolist()
    return [ShotRecord(spec=spec, outcomes=tuple(row), shot_index=i, seed=seed)
            for i, row in enumerate(rows)]


def _oracle_xor_bits(idx: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    acc = idx >> np.uint32(bits[0])
    for b in bits[1:]:
        acc = acc ^ (idx >> np.uint32(b))
    return (acc & np.uint32(1)).astype(np.int16)


def oracle_omega_values(idx: np.ndarray, variant: str, layout) -> np.ndarray:
    """Omega of each model index in ``idx`` (uint32) under a term-table
    layout, evaluated index by index: every term is sign * (-1)^(XOR of its
    bits), read straight from the index with no block split."""
    terms = layout.chi if variant == "abs" else layout.chi + layout.s
    total = np.zeros(idx.shape, dtype=np.int16)
    for sign, bits in terms:
        total += sign * (1 - 2 * _oracle_xor_bits(idx, bits))
    if variant == "abs":
        total += len(layout.s)
    return total


def oracle_scan(layout, variant: str, lo: int, hi: int, count: int):
    """Max omega over [lo, hi) and its ``count`` lowest attaining indices."""
    values = oracle_omega_values(np.arange(lo, hi, dtype=np.uint32), variant, layout)
    if values.size == 0:
        return float("-inf"), []
    best = int(values.max())
    return best, (np.flatnonzero(values == best)[:count] + lo).tolist()


@cache
def oracle_parity_cases(variant: str, relaxed: bool = False) -> tuple:
    """What each sequence can reach, case by case, in the local models.

    A model's omega is a sum over the six sequences, and each sequence's
    chi term and correlators read only its own three slots and Bob's
    values.  Fixing the values that sequences share (the three leaders and
    the six Bob values; only the Bob values when ``relaxed`` lets each
    sequence pick its own leader) leaves each sequence free over its own
    slots, independently of the others.  Returns one ``(leaders, bob,
    reach)`` per case, where ``reach[name]`` counts the values that
    sequence's terms sum to over its free slot choices."""
    cases = []
    leader_cases = [{}] if relaxed else [
        dict(zip(SEQUENCE_LEADERS, values))
        for values in product((1, -1), repeat=len(SEQUENCE_LEADERS))]
    for leaders in leader_cases:
        for bob_values in product((1, -1), repeat=len(BOB_LABELS)):
            bob = dict(zip(BOB_LABELS, bob_values))
            reach = {}
            for name in SEQUENCE_ORDER:
                trio = SEQUENCES[name]
                fixed = () if relaxed else (leaders[trio[0]],)
                reach[name] = Counter()
                for free in product((1, -1), repeat=3 - len(fixed)):
                    slot = fixed + free
                    value = CHI_SIGNS[name] * slot[0] * slot[1] * slot[2]
                    for t in S_TERMS:
                        if t.sequence == name:
                            term = t.sign * slot[t.position - 1] * bob[t.bob]
                            value += term if variant == "signed" else abs(term)
                    reach[name][value] += 1
            cases.append((leaders, bob, reach))
    return tuple(cases)


def oracle_consistency(name: str, leaders: dict, bob: dict) -> int:
    """c · f · Π sign·p over the sequence's correlators: +1 when its chi
    term and both correlators can all be +1 together, -1 (frustrated) when
    they cannot."""
    sign = CHI_SIGNS[name] * leaders[SEQUENCES[name][0]]
    for t in S_TERMS:
        if t.sequence == name:
            sign *= t.sign * bob[t.bob]
    return sign


@cache
def oracle_model_histogram(variant: str, relaxed: bool = False) -> dict[int, int]:
    """How many local models take each omega: per case, the convolution of
    the six sequences' ``reach`` counters, summed over the cases."""
    total = Counter()
    for _, _, reach in oracle_parity_cases(variant, relaxed):
        case = Counter({0: 1})
        for counts in reach.values():
            grown = Counter()
            for a, m in case.items():
                for b, n in counts.items():
                    grown[a + b] += m * n
            case = grown
        total.update(case)
    return dict(total)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def seeded_state(kind: str, param):
    """A four-qubit test state: ``werner`` at visibility ``param``, a
    ``full_rank`` or ``pure`` random state seeded by ``param``, or
    ``trace_edge``: the ideal state mixed with weight ``param`` of 𝟙/16 and
    scaled by 1 + 9e-11, a valid state whose trace sits near the tolerance
    edge and whose outcome probabilities can sum to just above 1."""
    if kind == "werner":
        return four_qubit_state(param)
    if kind == "trace_edge":
        mixed = (1 - param) * four_qubit_state(1.0).matrix + param * np.eye(16) / 16
        return DensityState(mixed * (1 + 9e-11))
    rng = np.random.default_rng(param)
    if kind == "full_rank":
        return DensityState(random_density_matrix(rng, 16))
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vec /= np.linalg.norm(vec)
    return DensityState(np.outer(vec, vec.conj()))


@pytest.fixture(scope="session")
def ideal_state():
    return four_qubit_state(1.0)


@pytest.fixture(scope="session")
def mixed_state():
    return four_qubit_state(0.0)
