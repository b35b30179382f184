"""Noise channel, test counting, budget, and majority voting."""

from __future__ import annotations

import random

import pytest

from itertools import product

from ceal.mealy import Alphabet, MealyMachine, Trace, random_machine
from ceal.sul import (
    BudgetExhausted,
    NoiseModel,
    RepeatPolicy,
    SimulatedSystem,
    majority_query,
)
from oracles import ReferenceSystem, reference_majority_query


def quiet(kind: str = "none", rate: float = 0.0, seed: int = 0) -> NoiseModel:
    return NoiseModel.from_seed(kind, rate, seed)


def one_state(n_outputs: int) -> MealyMachine:
    outs = Alphabet(tuple(f"o{i}" for i in range(n_outputs)))
    return MealyMachine(Alphabet(("a",)), outs, 0, ((0,),), ((0,),))


def test_noise_free_probe_is_passthrough(toggle):
    sys = SimulatedSystem(toggle, quiet())
    assert sys.probe((0, 0, 0)) == (0, 1, 0)
    assert sys.tests == 1
    assert sys.symbols == 3


def test_budget_exhausted_before_excess_probe(toggle):
    sys = SimulatedSystem(toggle, quiet(), max_tests=2)
    sys.probe((0,))
    sys.probe((0,))
    with pytest.raises(BudgetExhausted):
        sys.probe((0,))
    assert sys.tests == 2


def test_output_noise_flip_rate_matches_inclusive_uniform():
    # rate 0.1 over 4 outputs: actual flips happen at 0.1 * 3/4 = 0.075
    sys = SimulatedSystem(one_state(4), quiet("output", 0.1, seed=42))
    flips = sum(sys.probe((0,)) != (0,) for _ in range(10_000))
    assert abs(flips / 10_000 - 0.075) <= 0.01


def test_output_noise_degenerate_alphabet_never_flips():
    sys = SimulatedSystem(one_state(1), quiet("output", 1.0, seed=1))
    assert all(sys.probe((0,)) == (0,) for _ in range(100))


def test_input_noise_over_one_input_symbol_changes_nothing(toggle):
    sys = SimulatedSystem(toggle, quiet("input", 1.0, seed=7))
    # toggle has one input symbol, so every uniform redraw is the identity
    assert all(sys.probe((0, 0, 0)) == (0, 1, 0) for _ in range(200))
    assert sys.tests == 200


def test_input_noise_perturbs_with_two_symbols():
    m = MealyMachine(  # one state echoing its input: the output shows the executed word
        Alphabet(("a", "b")), Alphabet(("x", "y")), 0,
        ((0, 0),), ((0, 1),),
    )
    sys = SimulatedSystem(m, quiet("input", 1.0, seed=3))
    possible = {m.run(u) for u in product(range(2), repeat=2)}
    answers = [sys.probe((0, 0)) for _ in range(150)]
    assert set(answers) <= possible
    assert len(set(answers)) > 1
    assert sys.symbols == 2 * len(answers)


def test_noise_identical_seed_identical_stream():
    a = SimulatedSystem(one_state(4), quiet("output", 0.3, seed=5))
    b = SimulatedSystem(one_state(4), quiet("output", 0.3, seed=5))
    words = [(0,) * k for k in range(1, 30)]
    assert [a.probe(w) for w in words] == [b.probe(w) for w in words]


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("output", 1.5)


def test_repeat_policy_validation():
    with pytest.raises(ValueError):
        RepeatPolicy(5, 4)
    with pytest.raises(ValueError):
        RepeatPolicy(0, 1)


class ScriptedSystem:
    """Probe stub replaying a fixed sequence of output words."""

    def __init__(self, outputs):
        self.script = list(outputs)
        self.calls = 0

    def probe(self, word):
        out = self.script[self.calls % len(self.script)]
        self.calls += 1
        return out


class ScriptedTraces(ScriptedSystem):
    """The same script, answered as traces, as the reference vote reads them."""

    def probe(self, word):
        return Trace(word, super().probe(word))


def vote_both(script, policy):
    """The vote and the reference vote over one script, with each one's probe count."""
    stub, ref = ScriptedSystem(script), ScriptedTraces(script)
    got = majority_query(stub, (0,), policy)
    assert got == reference_majority_query(ref, (0,), policy)
    assert stub.calls == ref.calls
    return got, stub.calls


@pytest.mark.parametrize("agree", [4, 8, 12, 16])
def test_majority_stops_exactly_at_four_fifths(agree):
    # distinct dissenters vote first, so the leader first holds four fifths
    # after agree + agree // 4 votes
    script = [(k + 2,) for k in range(agree // 4)] + [(1,)] * 20
    assert vote_both(script, RepeatPolicy(5, 20)) == ((1,), agree + agree // 4)


def test_majority_keeps_voting_at_eleven_of_fourteen():
    script = [(0,)] * 3 + [(1,)] * 11 + [(2,)] * 6
    assert vote_both(script, RepeatPolicy(5, 20)) == ((1,), 20)


def test_majority_unanimous_stops_at_min_repeats(toggle):
    sys = SimulatedSystem(toggle, quiet())
    out = majority_query(sys, (0, 0), RepeatPolicy(5, 10))
    assert out == (0, 1)
    assert sys.tests == 5


def test_majority_four_of_five_meets_threshold():
    stub = ScriptedSystem([(1,), (1,), (1,), (1,), (0,)])
    assert majority_query(stub, (0,), RepeatPolicy(5, 10)) == (1,)
    assert stub.calls == 5


def test_majority_alternating_hits_cap_and_breaks_ties_lexicographically():
    stub = ScriptedSystem([(1,), (0,)])
    assert majority_query(stub, (0,), RepeatPolicy(5, 10)) == (0,)
    assert stub.calls == 10


def test_majority_keeps_voting_until_threshold():
    stub = ScriptedSystem([(1,), (0,), (1,), (1,), (1,)])
    # after 3 votes: 2/3 < 0.8; after 4: 3/4 < 0.8; after 5: 4/5 meets it
    assert majority_query(stub, (0,), RepeatPolicy(3, 10)) == (1,)
    assert stub.calls == 5


def test_majority_votes_spend_the_budget(toggle):
    sys = SimulatedSystem(toggle, quiet(), max_tests=7)
    majority_query(sys, (0,), RepeatPolicy(5, 10))
    with pytest.raises(BudgetExhausted):
        majority_query(sys, (0, 0), RepeatPolicy(5, 10))
    assert sys.tests == 7


def test_probe_memo_does_not_outlive_its_target(toggle, constant_x):
    sys = SimulatedSystem(toggle, quiet())
    assert sys.probe((0, 0)) == (0, 1)
    sys.target = constant_x
    assert sys.probe((0, 0)) == (0, 0)


@pytest.mark.parametrize("kind", ["input", "output"])
def test_probes_of_one_word_share_one_target_run(monkeypatch, kind):
    m = random_machine(4, Alphabet(("a", "b", "c")), Alphabet(("x", "y", "z")), seed=2)
    runs = []
    real_run = MealyMachine.run
    monkeypatch.setattr(
        MealyMachine, "run", lambda self, w, start=None: runs.append(w) or real_run(self, w, start)
    )
    sys = SimulatedSystem(m, quiet(kind, 0.1, seed=3))
    perturbed = []  # the result of every noise draw
    real_perturb = sys.noise.perturb

    def perturb(w, n):
        perturbed.append(real_perturb(w, n))
        return perturbed[-1]

    sys.noise.perturb = perturb
    word = (0, 1, 2, 1, 0)
    answers = [sys.probe(word) for _ in range(200)]
    truth = real_run(m, word)
    clean = [o for o in answers if o == truth]
    # under input noise each probe's noise draw is the word it executed
    executed = perturbed if kind == "input" else [word] * len(answers)
    moved = sum(u != word for u in executed)
    # the voted word runs once however often a perturbed word is run between
    # its probes; a probe its noise missed returns the memoized outputs itself
    assert runs.count(word) == 1 and len(runs) == 1 + moved
    assert max(sum(u is o for u in clean) for o in clean) > 100
    assert len(clean) < len(answers)


def _vote_words(rng: random.Random, n_inputs: int) -> list:
    """Seeded words in runs of repeats and alternations, so the memo hits and misses."""
    pool = [()] + [
        tuple(rng.randrange(n_inputs) for _ in range(rng.randint(1, 8))) for _ in range(6)
    ]
    words = []
    while len(words) < 120:
        u, v = rng.choice(pool), rng.choice(pool)
        words += rng.choice([[u] * rng.randint(1, 4), [u, v] * rng.randint(1, 3)])
    return words


def _mid_vote_budget(target, kind, rate, policy, words) -> int:
    """A budget that runs out on the second probe of a vote past the 30th word."""
    dry = ReferenceSystem(target, NoiseModel.from_seed(kind, rate, 3))
    for k, word in enumerate(words):
        before = dry.tests
        reference_majority_query(dry, word, policy)
        if k >= 30 and (dry.tests - before > 1 or policy.max_repeats == 1):
            return before + 1
    raise AssertionError("no vote past the 30th word took two probes")


NOISE_CASES = [
    ("none", 0.0), ("input", 0.2), ("input", 1.0), ("output", 0.2), ("output", 0.05), ("output", 1.0)
]


# A bounded draw below n takes n.bit_length() bits, so at every output
# alphabet size, a power of two or not, some draws are rejected and retried.
@pytest.mark.parametrize(
    "kind, rate, n_outputs",
    [
        pytest.param(kind, rate, n, id=f"{kind}-{rate}" + ("" if n == 3 else f"-{n}out"))
        for n in (3, 1, 2, 5)
        for kind, rate in NOISE_CASES
    ],
)
@pytest.mark.parametrize("repeats", [(1, 1), (3, 5), (5, 10)])
def test_vote_path_matches_reference_draw_for_draw(kind, rate, n_outputs, repeats):
    inputs = Alphabet(("a", "b", "c"))
    outputs = Alphabet(tuple(f"o{k}" for k in range(n_outputs)))
    target = random_machine(5, inputs, outputs, seed=11)
    policy = RepeatPolicy(*repeats)
    words = _vote_words(random.Random(7), len(inputs))
    budget = _mid_vote_budget(target, kind, rate, policy, words)
    ref = ReferenceSystem(target, NoiseModel.from_seed(kind, rate, 3), max_tests=budget)
    new = SimulatedSystem(target, NoiseModel.from_seed(kind, rate, 3), max_tests=budget)
    probe_calls = [0]
    real_probe = new.probe

    def counted_probe(word):
        probe_calls[0] += 1
        return real_probe(word)

    new.probe = counted_probe
    for word in words:
        tests_before = new.tests
        results = []
        for system, vote in ((ref, reference_majority_query), (new, majority_query)):
            try:
                results.append(vote(system, word, policy))
            except BudgetExhausted:
                results.append(BudgetExhausted)
        assert results[0] == results[1]
        assert (ref.tests, ref.symbols) == (new.tests, new.symbols)
        assert ref.noise.rng.getstate() == new.noise.rng.getstate()
        if results[1] is BudgetExhausted:
            break
        assert probe_calls[0] == new.tests
    else:
        pytest.fail("the budget never ran out")
    # the refused probe raised before it was counted, after part of a vote
    assert new.tests == budget and probe_calls[0] == budget + 1
    assert policy.max_repeats == 1 or tests_before < budget
