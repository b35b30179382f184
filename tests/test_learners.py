"""Learner behaviour against in-memory teachers and a tree-backed reviser."""

from __future__ import annotations

import math
import random
import traceback

import pytest

from ceal.eqtest import SamplerConfig
from ceal.learners import InconsistentTeacher, KVLearner, LStarLearner, PruneRequested
from ceal.mealy import (
    Alphabet,
    MealyMachine,
    Trace,
    canonical_fingerprint,
    find_counterexample,
    minimize,
    random_machine,
)
from ceal.obstree import MostRecentTree
from ceal.reviser import Reviser
from ceal.sul import NoiseModel, RepeatPolicy, SimulatedSystem
from oracles import ReferenceKVLearner, ReferenceLStarLearner

LEARNERS = [LStarLearner, KVLearner]


def oracle_teacher(target):
    return lambda word: target.run(word)


def learn_fully(learner_cls, target, max_rounds=64):
    """Drive a learner with a perfect oracle EQ until equivalence."""
    learner = learner_cls(target.inputs, target.outputs, oracle_teacher(target))
    for _ in range(max_rounds):
        h = learner.build_hypothesis()
        cex = find_counterexample(target, h)
        if cex is None:
            return learner, h
        learner.refine(cex)
    raise AssertionError("learner failed to converge")


def cycle_machine(n: int) -> MealyMachine:
    """n-state cycle emitting 0 everywhere except the last edge."""
    trans = tuple(((q + 1) % n,) for q in range(n))
    emit = tuple((1 if q == n - 1 else 0,) for q in range(n))
    return MealyMachine(Alphabet(("a",)), Alphabet(("x", "y")), 0, trans, emit)


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_single_state_target_learned_immediately(learner_cls, constant_x):
    learner = learner_cls(constant_x.inputs, constant_x.outputs, oracle_teacher(constant_x))
    h = learner.build_hypothesis()
    assert h.n_states == 1
    assert find_counterexample(h, constant_x) is None


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_toggle_learned_exactly(learner_cls, toggle):
    _, h = learn_fully(learner_cls, toggle)
    assert minimize(h).n_states == 2
    assert canonical_fingerprint(h) == canonical_fingerprint(toggle)


@pytest.mark.parametrize("learner_cls", LEARNERS)
@pytest.mark.parametrize("seed", range(12))
def test_noise_free_convergence_on_random_targets(learner_cls, seed):
    sigma = Alphabet(("a", "b"))
    gamma = Alphabet(("0", "1"))
    target = random_machine(5, sigma, gamma, seed)
    _, h = learn_fully(learner_cls, target)
    assert find_counterexample(h, target) is None
    assert minimize(h).n_states == minimize(target).n_states


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_hypothesis_states_grow_monotonically(learner_cls):
    target = random_machine(7, Alphabet(("a", "b")), Alphabet(("0", "1")), 3)
    learner = learner_cls(target.inputs, target.outputs, oracle_teacher(target))
    sizes = []
    for _ in range(40):
        h = learner.build_hypothesis()
        sizes.append(h.n_states)
        cex = find_counterexample(target, h)
        if cex is None:
            break
    assert sizes == sorted(sizes)
    assert sizes[-1] <= minimize(target).n_states


def test_lstar_refinement_query_bound():
    counts = {}
    for n in (4, 8, 16, 32, 64):
        target = cycle_machine(n)
        calls = [0]
        base = oracle_teacher(target)

        def teacher(word, base=base, calls=calls):
            calls[0] += 1
            return base(word)

        learner = LStarLearner(target.inputs, target.outputs, teacher)
        h = learner.build_hypothesis()
        assert h.n_states == 1  # every short row looks alike on this target
        cex = find_counterexample(target, h)
        assert cex is not None and len(cex.inputs) == n
        calls[0] = 0
        learner.refine(cex)
        counts[n] = calls[0]
        assert calls[0] <= math.ceil(math.log2(n)) + 3
    assert counts  # lengths 4..64 all exercised


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_refine_rejects_non_counterexample(learner_cls, toggle):
    learner = learner_cls(toggle.inputs, toggle.outputs, oracle_teacher(toggle))
    h = learner.build_hypothesis()
    honest = Trace((0, 0), h.run((0, 0)))
    with pytest.raises(RuntimeError):
        learner.refine(honest)


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_refine_same_cex_twice_after_rebuild_is_misuse(learner_cls):
    target = cycle_machine(3)
    learner = learner_cls(target.inputs, target.outputs, oracle_teacher(target))
    learner.build_hypothesis()
    cex = find_counterexample(target, learner._hyp)
    learner.refine(cex)
    h2 = learner.build_hypothesis()
    if target.run(cex.inputs) == h2.run(cex.inputs):  # corrected now
        with pytest.raises(RuntimeError):
            learner.refine(cex)


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_refine_before_build_is_misuse(learner_cls, toggle):
    learner = learner_cls(toggle.inputs, toggle.outputs, oracle_teacher(toggle))
    with pytest.raises(RuntimeError):
        learner.refine(Trace((0,), (1,)))


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_restart_is_idempotent_and_resets(learner_cls):
    target = cycle_machine(3)
    learner = learner_cls(target.inputs, target.outputs, oracle_teacher(target))
    first = canonical_fingerprint(learner.build_hypothesis())
    cex = find_counterexample(target, learner._hyp)
    learner.refine(cex)
    learner.restart()
    learner.restart()  # twice equals once
    assert learner._memo == {}
    again = canonical_fingerprint(learner.build_hypothesis())
    assert again == first


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_prune_request_unwinds_and_restart_recovers(learner_cls, toggle):
    state = {"raised": False}
    base = oracle_teacher(toggle)

    def flaky(word):
        if not state["raised"] and len(word) >= 2:
            state["raised"] = True
            raise PruneRequested()
        return base(word)

    learner = learner_cls(toggle.inputs, toggle.outputs, flaky)
    try:
        while True:
            h = learner.build_hypothesis()
            cex = find_counterexample(toggle, h)
            if cex is None:
                break
            learner.refine(cex)
    except PruneRequested:
        learner.restart()
        while True:
            h = learner.build_hypothesis()
            cex = find_counterexample(toggle, h)
            if cex is None:
                break
            learner.refine(cex)
    assert state["raised"]
    assert canonical_fingerprint(h) == canonical_fingerprint(toggle)


@pytest.mark.parametrize("learner_cls", LEARNERS)
def test_restarted_learner_rebuilds_from_tree_for_free(learner_cls):
    """After a full noise-free run, restarting costs zero system tests."""
    target = random_machine(5, Alphabet(("a", "b")), Alphabet(("0", "1")), 11)
    system = SimulatedSystem(target, NoiseModel.from_seed("none", 0.0, 0))
    reviser = Reviser(
        MostRecentTree(), system, RepeatPolicy(1, 1), SamplerConfig(mean_infix=2.0, max_len=40),
        random.Random("0:sampler"), k_survive=40,
    )
    learner = learner_cls(target.inputs, target.outputs, reviser.read)
    first_fp = None
    while True:
        h = learner.build_hypothesis()
        if first_fp is None:
            first_fp = canonical_fingerprint(h)
        verdict = reviser.eq(h)
        if verdict is None:
            break
        assert isinstance(verdict, Trace)
        learner.refine(verdict)
    assert find_counterexample(h, target) is None
    spent = system.meter.tests
    learner.restart()
    rebuilt = learner.build_hypothesis()
    # the fresh build re-asks exactly its old queries; the tree held them all
    assert system.meter.tests == spent
    assert canonical_fingerprint(rebuilt) == first_fp


def _seeded_teacher(target, seed, lie_rate, prunes):
    """A teacher that logs every call, lies stably and raises up to `prunes` prunes.

    A lie replaces an output symbol at random and is kept for the word for
    good, so restarts do not heal it. Prunes fire at random calls.
    """
    rng = random.Random(seed)
    calls: list = []
    told: dict = {}

    def teacher(word):
        nonlocal prunes
        calls.append(word)
        if prunes and rng.random() < 0.02:
            prunes -= 1
            raise PruneRequested()
        out = told.get(word)
        if out is None:
            out = tuple(rng.randrange(len(target.outputs)) if rng.random() < lie_rate else o
                        for o in target.run(word))
            told[word] = out
        return out

    return teacher, calls


def _shape(node):
    if hasattr(node, "label"):
        return node.label, tuple((k, _shape(c)) for k, c in node.children.items())
    return node.access


def _table(learner):
    if hasattr(learner, "S"):
        return list(learner.S), list(learner.E)
    return _shape(learner.root)


def _drive(learner_cls, target, seed, lie_rate, prunes, rounds=60):
    """Learn with perfect equivalence checks; log calls, tables and raise points."""
    teacher, calls = _seeded_teacher(target, seed, lie_rate, prunes)
    learner = learner_cls(target.inputs, target.outputs, teacher)
    events: list = []
    pruned_in: set = set()
    for _ in range(rounds):
        try:
            h = learner.build_hypothesis()
            events.append(("hypothesis", len(calls), h, _table(learner)))
            cex = find_counterexample(target, h)
            if cex is None:
                break
            learner.refine(cex)
            events.append(("refined", len(calls), _table(learner)))
        except PruneRequested as exc:
            events.append(("prune", len(calls)))
            pruned_in.update(f.name for f in traceback.extract_tb(exc.__traceback__))
            learner.restart()
        except InconsistentTeacher as exc:
            events.append(("inconsistent", len(calls), str(exc)))
            break
    return calls, events, pruned_in


def _reference_targets():
    """(seed, target, lie-rate scale) for the call-for-call comparison."""
    for seed in range(16):
        yield seed, random_machine(3 + seed % 6, Alphabet(("a", "b", "c")[: 2 + seed % 2]),
                                   Alphabet(("0", "1")), seed), 1.0
    # larger targets, so that KV builds reuse many cached successors across
    # splits; fewer lies let a lying teacher's session grow past 20 states
    for seed in (16, 17, 18):
        yield seed, random_machine(40, Alphabet(("a", "b", "c", "d")),
                                   Alphabet(("0", "1", "2")), seed), 0.2


@pytest.mark.parametrize("learner_cls,reference_cls", [
    (LStarLearner, ReferenceLStarLearner),
    (KVLearner, ReferenceKVLearner),
])
@pytest.mark.parametrize("teacher_kind", ["honest", "lying", "pruning"])
def test_learner_matches_reference_call_for_call(learner_cls, reference_cls, teacher_kind):
    """The per-life caches change no teacher call, table, hypothesis or raise."""
    lie_rate, prunes = {"honest": (0.0, 0), "lying": (0.05, 0), "pruning": (0.0, 6)}[teacher_kind]
    raised = 0
    pruned_in: set = set()
    for seed, target, lie_scale in _reference_targets():
        want = _drive(reference_cls, target, seed, lie_rate * lie_scale, prunes)
        got = _drive(learner_cls, target, seed, lie_rate * lie_scale, prunes)
        assert got[0] == want[0]  # teacher calls, in order
        assert got[1] == want[1]  # hypotheses, tables and raise points
        raised += sum(e[0] == "inconsistent" for e in got[1])
        pruned_in |= got[2]
    if teacher_kind == "lying":
        assert raised  # the lies reached InconsistentTeacher somewhere
    if teacher_kind == "pruning":  # unwound mid-closing (L*) and mid-sift (KV)
        assert ("sift" if learner_cls is KVLearner else "build_hypothesis") in pruned_in


def test_kv_build_after_one_new_state_sifts_only_what_changed():
    """A KV round that adds one state re-sifts a handful of words, not all n*k."""
    target = random_machine(40, Alphabet(("a", "b", "c", "d")), Alphabet(("0", "1", "2")), 16)
    k = len(target.inputs)
    learner = KVLearner(target.inputs, target.outputs, oracle_teacher(target))
    sifts = [0]
    sift = learner.sift

    def counting_sift(word):
        sifts[0] += 1
        return sift(word)

    learner.sift = counting_sift
    checked = 0
    n = 0
    while True:
        sifts[0] = 0
        h = learner.build_hypothesis()
        if n >= 20 and h.n_states == n + 1:
            assert sifts[0] <= n * k // 4, (n, sifts[0])  # a full rebuild sifts n*k+1 words
            checked += 1
        n = h.n_states
        cex = find_counterexample(target, h)
        if cex is None:
            break
        learner.refine(cex)
    assert n == 40 and checked >= 10
