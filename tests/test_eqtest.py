"""Access sequences, characterization sets, and word sampling."""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

import pytest

from ceal.eqtest import (
    METHODS,
    PreparedSampler,
    SamplerConfig,
    access_sequences,
    characterization_set,
    sample_word,
)
from ceal.harness import load_target
from ceal.mealy import Alphabet, MealyMachine, find_counterexample, minimize, random_machine
from oracles import reference_characterization_set, reference_draw

SIGMA = Alphabet(("a", "b"))
GAMMA = Alphabet(("0", "1"))
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def chain_machine(n: int) -> MealyMachine:
    """Input a walks towards state n-1, input b back towards 0.

    Only state n-1 has its own emission row, so every pair of the other
    states needs a deep witness: the a^k that takes one of them to n-1.
    """
    trans = tuple((min(q + 1, n - 1), max(q - 1, 0)) for q in range(n))
    emit = tuple(((1, 0) if q == n - 1 else (0, 0)) for q in range(n))
    return MealyMachine(SIGMA, GAMMA, 0, trans, emit)


def reference_case(case: str) -> MealyMachine:
    """A minimal machine named by kind and seed or file, e.g. 'small-3'."""
    kind, _, arg = case.partition("-")
    if kind == "small":
        seed = int(arg)
        return minimize(random_machine(2 + seed % 7, Alphabet(("a", "b", "c")), GAMMA, seed))
    if kind == "large":
        inputs, outputs = Alphabet(tuple("abcdef")), Alphabet(("w", "x", "y", "z"))
        return minimize(random_machine(120, inputs, outputs, int(arg)))
    if kind == "dot":
        return minimize(load_target(BENCHMARKS / f"{arg}.dot"))
    if kind == "chain":
        return chain_machine(int(arg))
    if kind == "single":
        return MealyMachine(SIGMA, GAMMA, 0, ((0, 0),), ((1, 0),))
    raise ValueError(case)


REFERENCE_CASES = (
    [f"small-{seed}" for seed in range(30)]
    + [f"large-{seed}" for seed in range(3)]
    + [f"dot-{name}" for name in ("lock", "session", "player")]
    + ["chain-40", "single"]
)


def bfs_distances(m: MealyMachine) -> dict[int, int]:
    dist = {m.initial: 0}
    queue = deque([m.initial])
    while queue:
        q = queue.popleft()
        for succ in m.transitions[q]:
            if succ not in dist:
                dist[succ] = dist[q] + 1
                queue.append(succ)
    return dist


def test_access_sequences_toggle(toggle):
    assert access_sequences(toggle) == {0: (), 1: (0,)}


def test_access_sequences_reject_unreachable():
    m = MealyMachine.__new__(MealyMachine)  # bypass validation to build a dead state
    object.__setattr__(m, "inputs", SIGMA)
    object.__setattr__(m, "outputs", GAMMA)
    object.__setattr__(m, "initial", 0)
    object.__setattr__(m, "transitions", ((0, 0), (0, 0)))
    object.__setattr__(m, "emissions", ((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="unreachable"):
        access_sequences(m)


@pytest.mark.parametrize("seed", range(10))
def test_access_sequences_reach_and_are_shortest(seed):
    m = random_machine(8, SIGMA, GAMMA, seed)
    access = access_sequences(m)
    dist = bfs_distances(m)
    for q, word in access.items():
        assert m.state_after(word) == q
        assert len(word) == dist[q]


def test_characterization_set_toggle(toggle):
    w = characterization_set(toggle)
    assert (0,) in w


def test_characterization_set_single_state(constant_x):
    assert characterization_set(constant_x) == ((0,),)


@pytest.mark.parametrize("seed", range(50))
def test_characterization_set_separates_all_pairs(seed):
    m = minimize(random_machine(6, SIGMA, GAMMA, seed))
    w = characterization_set(m)
    for p in range(m.n_states):
        for q in range(p + 1, m.n_states):
            assert any(m.run(word, start=p) != m.run(word, start=q) for word in w)


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_characterization_set_matches_reference(case):
    m = reference_case(case)
    assert m.n_states == minimize(m).n_states
    assert characterization_set(m) == reference_characterization_set(m)


def test_chain_machine_needs_deep_witnesses():
    m = chain_machine(40)
    words = characterization_set(m)
    assert minimize(m).n_states == 40
    assert words == tuple((0,) * k for k in range(1, 40))


@pytest.mark.parametrize("case", ["small-5", "small-11", "large-0", "dot-player", "chain-12"])
def test_sampler_draws_match_reference_suffixes(case):
    m = reference_case(case)
    # a renumbered copy, so the sampler has to minimize it first
    perm = list(range(m.n_states))
    random.Random(case).shuffle(perm)
    inv = {p: q for q, p in enumerate(perm)}
    h = MealyMachine(
        m.inputs, m.outputs, inv[m.initial],
        tuple(tuple(inv[s] for s in m.transitions[p]) for p in perm),
        tuple(m.emissions[p] for p in perm),
    )
    cfg = SamplerConfig(mean_infix=2.0, max_len=60)
    reference = PreparedSampler(h, cfg)
    reference.suffixes = reference_characterization_set(minimize(h))
    for sampler in (PreparedSampler(h, cfg), PreparedSampler(h, cfg, minimize(h))):
        rng, ref_rng = random.Random(7), random.Random(7)
        assert [sampler.draw(rng) for _ in range(300)] == [
            reference.draw(ref_rng) for _ in range(300)
        ]


COUNTS = (1, 2, 3, 5, 8)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("mean_infix, max_len", [(4.0, 50), (0.0, 50), (6.0, 4)])
@pytest.mark.parametrize("n_inputs", COUNTS)
def test_sampler_draws_match_randrange_reference_draw_for_draw(method, mean_infix, max_len, n_inputs):
    inputs = Alphabet(tuple(f"i{k}" for k in range(n_inputs)))
    h = random_machine(6, inputs, GAMMA, seed=n_inputs)
    sampler = PreparedSampler(h, SamplerConfig(method, mean_infix, max_len))
    rng, ref_rng = random.Random(n_inputs), random.Random(n_inputs)
    # sizes below, at and above powers of two, so rejected draws retry
    shapes = [(n_access, n_suffix) for n_access in COUNTS for n_suffix in COUNTS]
    longest = 0
    for n_access, n_suffix in shapes if method == "randomized_wp" else shapes[:1]:
        if method == "randomized_wp":
            sampler.accesses = tuple((k % n_inputs,) * k for k in range(n_access))
            sampler.suffixes = tuple((k % n_inputs,) * (k + 1) for k in range(n_suffix))
        for _ in range(60):
            word = sampler.draw(rng)
            assert word == reference_draw(sampler, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            longest = max(longest, len(word))
    if max_len < 50:
        assert longest == max_len  # the cap was reached


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="exhaustive")
    with pytest.raises(ValueError):
        SamplerConfig(mean_infix=-1)
    with pytest.raises(ValueError):
        SamplerConfig(max_len=0)


def test_sample_word_zero_infix_enumerates_products(toggle):
    cfg = SamplerConfig(mean_infix=0.0)
    rng = random.Random(0)
    seen = {sample_word(toggle, cfg, rng) for _ in range(200)}
    assert seen == {(0,), (0, 0)}


def test_sample_word_visits_access_sequences_uniformly(toggle):
    cfg = SamplerConfig(mean_infix=0.0)
    rng = random.Random(1)
    sampler = PreparedSampler(toggle, cfg)
    hits = sum(len(sampler.draw(rng)) == 2 for _ in range(10_000))
    assert abs(hits / 10_000 - 0.5) <= 0.05


def test_sample_word_respects_max_len(toggle):
    cfg = SamplerConfig(mean_infix=30.0, max_len=1)
    rng = random.Random(2)
    assert all(len(sample_word(toggle, cfg, rng)) <= 1 for _ in range(50))


def test_random_walk_geometric_mean_length():
    cfg = SamplerConfig(method="random_walk", mean_infix=4.0, max_len=200)
    rng = random.Random(3)
    m = random_machine(3, SIGMA, GAMMA, 0)
    sampler = PreparedSampler(m, cfg)
    total = sum(len(sampler.draw(rng)) for _ in range(100_000))
    assert abs(total / 100_000 - 4.0) <= 0.4


def test_sampler_deterministic_in_seed(toggle):
    cfg = SamplerConfig(mean_infix=2.0)
    a = [sample_word(toggle, cfg, random.Random(9)) for _ in range(20)]
    b = [sample_word(toggle, cfg, random.Random(9)) for _ in range(20)]
    assert a == b


def test_wp_samples_find_planted_fault():
    rng = random.Random(4)
    cfg = SamplerConfig(mean_infix=4.0, max_len=60)
    found_pairs = 0
    pairs = 0
    seed = 0
    while pairs < 20:
        seed += 1
        h = minimize(random_machine(6, SIGMA, GAMMA, seed))
        if h.n_states < 4:
            continue
        mut = rng.randrange(h.n_states)
        sym = rng.randrange(len(SIGMA))
        new_succ = (h.transitions[mut][sym] + 1) % h.n_states
        trans = tuple(
            tuple(new_succ if (q == mut and a == sym) else s for a, s in enumerate(row))
            for q, row in enumerate(h.transitions)
        )
        target = MealyMachine(h.inputs, h.outputs, h.initial, trans, h.emissions)
        if find_counterexample(h, target) is None:
            continue
        pairs += 1
        sampler = PreparedSampler(h, cfg)
        for _ in range(500):
            w = sampler.draw(rng)
            if h.run(w) != target.run(w):
                found_pairs += 1
                break
    assert found_pairs >= 19
