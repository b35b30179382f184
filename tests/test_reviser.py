"""Reviser operations: apply/read/check/test/eq, logging, selection."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from ceal.eqtest import SamplerConfig
from ceal.harness import load_target
from ceal.learners import InconsistentTeacher, PruneRequested
from ceal.mealy import MealyMachine, Trace, canonical_fingerprint, minimize
from ceal.obstree import MostFrequentTree, MostRecentTree
from ceal.reviser import HypothesisLog, Reviser, select_final
from ceal.sul import NoiseModel, SimulatedSystem
from oracles import ReferenceHypothesisLog


def make_reviser(target, tree=None, k_survive=50, revision_ratio=0.0, seed=0,
                 noise=None, max_tests=None, collapse=False):
    system = SimulatedSystem(
        target,
        noise if noise is not None else NoiseModel.from_seed("none", 0.0, seed),
        max_tests=max_tests,
    )
    return Reviser(
        tree if tree is not None else MostRecentTree(),
        system,
        SamplerConfig(mean_infix=2.0, max_len=30),
        random.Random(f"{seed}:sampler"),
        k_survive=k_survive,
        revision_ratio=revision_ratio,
        collapse=collapse,
    )


class ScriptedSystem:
    """Probe stub with a fixed (word -> outputs) plan and a meter-free life."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.probed = []

    def probe(self, word, phase="mq"):
        self.probed.append((tuple(word), phase))
        return Trace(tuple(word), tuple(self.plan.pop(0)))


def test_apply_on_fresh_tree_never_prunes(toggle):
    r = make_reviser(toggle)
    assert r.apply(Trace((0, 0, 0), (0, 0, 1))) == (0, 0, 1)
    assert r.prunes == 0


def test_apply_conflict_raises_prune_and_counts(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    with pytest.raises(PruneRequested):
        r.apply(Trace((0, 0), (0, 0)))
    assert r.prunes == 1
    assert r.apply(Trace((0, 0), (0, 0))) == (0, 0)  # re-apply of stored data


def test_read_answers_from_tree_without_probing(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    assert r.read((0, 0)) == (0, 1)
    assert r.read((0,)) == (0,)  # prefix answered by the same branch
    assert r.system.meter.tests == 0


def test_read_unknown_word_probes_once_then_caches(toggle):
    r = make_reviser(toggle)
    assert r.read((0, 0, 0)) == (0, 1, 0)
    assert r.system.meter.tests == 1
    assert r.read((0, 0, 0)) == (0, 1, 0)
    assert r.system.meter.tests == 1
    assert r.system.meter.mq_symbols == 3


def test_read_conflicting_probe_raises_prune(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    r.system = ScriptedSystem([(1, 1, 1)])  # contradicts stored (0,1) prefix
    with pytest.raises(PruneRequested):
        r.read((0, 0, 0))
    assert r.prunes == 1


def test_check_is_free_and_exact(toggle, constant_x):
    r = make_reviser(toggle)
    for k in range(1, 4):
        r.apply(Trace((0,) * k, toggle.run((0,) * k)))
    assert r.check(toggle) is None
    found = r.check(constant_x)
    assert found == Trace((0, 0), (0, 1))  # shortest stored witness
    assert constant_x.run(found.inputs) != found.outputs
    assert r.system.meter.tests == 0


def test_check_empty_tree_accepts_anything(toggle, constant_x):
    r = make_reviser(toggle)
    assert r.check(toggle) is None
    assert r.check(constant_x) is None


def test_check_memo_stays_exact_across_updates(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    assert r.check(toggle) is None
    r.apply(Trace((0, 0, 0), (0, 1, 0)))  # additive, still consistent
    assert r.check(toggle) is None
    r.apply(Trace((0, 0, 0, 0), (0, 1, 0, 0)))  # contradicts toggle's 4th step
    found = r.check(toggle)
    assert found is not None and toggle.run(found.inputs) != found.outputs


def test_test_rejects_incoherent_hypothesis(toggle, constant_x):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))  # already contradicts constant_x
    with pytest.raises(RuntimeError):
        r.test(constant_x)


def test_test_survival_costs_exactly_k_tests(toggle):
    r = make_reviser(toggle, k_survive=50)
    assert r.test(toggle) is None
    m = r.system.meter
    assert m.tests == 50
    assert m.symbols == m.eq_symbols > 0
    assert m.mq_symbols == 0


def test_test_finds_counterexample_against_wrong_hypothesis(toggle, constant_x):
    r = make_reviser(toggle, k_survive=200)
    got = r.test(constant_x)
    assert isinstance(got, Trace)
    assert constant_x.run(got.inputs) != got.outputs
    assert toggle.run(got.inputs) == got.outputs  # confirmed, noise-free truth
    assert r.tree.lookup(got.inputs) == got.outputs


class AllOnesSystem:
    """Stub answering every probe with all-ones output, whatever the length."""

    def probe(self, word, phase="mq"):
        return Trace(tuple(word), tuple(1 for _ in word))


def test_test_prunes_on_conflicting_observation(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0,), (0,)))
    r.system = AllOnesSystem()  # every draw starts with 0/1, contradicting 0/0
    with pytest.raises(PruneRequested):
        r.test(toggle)
    assert r.prunes == 1


def test_eq_records_before_answering(toggle, constant_x):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    log = HypothesisLog()
    found = r.eq(constant_x, log)
    assert isinstance(found, Trace)
    assert r.system.meter.tests == 0  # the tree already refuted it
    assert log.total == 1 and log.latest is constant_x


def test_eq_survival_verdict_noise_free(toggle):
    r = make_reviser(toggle, k_survive=30)
    log = HypothesisLog()
    assert r.eq(toggle, log) is None
    assert log.total == 1
    assert r.prunes == 0


def test_eq_minimizes_each_hypothesis_once(toggle, monkeypatch):
    relabeled = MealyMachine(  # toggle with its two states renumbered
        toggle.inputs, toggle.outputs, 1, ((1,), (0,)), ((1,), (0,)),
    )
    calls = []

    def counting(m):
        calls.append(m)
        return minimize(m)

    monkeypatch.setattr("ceal.mealy.minimize", counting)
    monkeypatch.setattr("ceal.eqtest.minimize", counting)
    r = make_reviser(toggle, k_survive=30)
    log = HypothesisLog()
    assert r.eq(relabeled, log) is None
    assert r.system.meter.tests == 30
    # the fingerprint's minimization is reused by the sampler
    assert calls == [relabeled]


def test_bare_test_minimizes_once(monkeypatch):
    lock = load_target(Path(__file__).resolve().parent.parent / "benchmarks" / "lock.dot")
    calls = []

    def counting(m):
        calls.append(m)
        return minimize(m)

    monkeypatch.setattr("ceal.mealy.minimize", counting)
    monkeypatch.setattr("ceal.eqtest.minimize", counting)
    r = make_reviser(lock, k_survive=30)
    assert r.test(lock) is None
    # one minimization serves the tree check's memo key and the sampler
    assert calls == [lock]


def test_collapse_conflict_raises_before_counting_a_prune(toggle):
    conflicting = [
        lambda r: r.apply(Trace((0, 0), (0, 0))),
        lambda r: r.read((0, 0, 0)),  # probed as (1, 1, 1)
        lambda r: r.test(toggle),  # every probe answers all ones
    ]
    for system, action in zip((None, ScriptedSystem([(1, 1, 1)]), AllOnesSystem()),
                              conflicting):
        r = make_reviser(toggle, collapse=True)
        r.apply(Trace((0, 0), (0, 1)))
        if system is not None:
            r.system = system
        with pytest.raises(InconsistentTeacher):
            action(r)
        assert r.prunes == 0


def test_collapse_eq_skips_the_tree_check(toggle, constant_x, monkeypatch):
    r = make_reviser(toggle, k_survive=200, collapse=True)
    r.apply(Trace((0, 0), (0, 1)))  # already contradicts constant_x

    def refuse(*args, **kwargs):
        raise AssertionError("a collapsing reviser never scans the tree")

    monkeypatch.setattr(MostRecentTree, "find_disagreement", refuse)
    log = HypothesisLog()
    found = r.eq(constant_x, log)
    assert isinstance(found, Trace)
    assert constant_x.run(found.inputs) != found.outputs
    assert r.system.meter.tests > 0  # paid for in sampled tests
    assert r.system.meter.mq_symbols == 0
    assert log.latest is constant_x


def test_collapse_test_skips_the_consistency_guard(toggle, constant_x):
    r = make_reviser(toggle, k_survive=200, collapse=True)
    r.apply(Trace((0, 0), (0, 1)))  # would make test() raise RuntimeError
    found = r.test(constant_x)
    assert isinstance(found, Trace)
    assert toggle.run(found.inputs) == found.outputs
    assert r.prunes == 0


def test_revision_ratio_revisits_oldest_words_in_order(toggle):
    r = make_reviser(toggle, k_survive=3, revision_ratio=1.0)
    r.apply(Trace((0,), (0,)))
    r.apply(Trace((0, 0), (0, 1)))
    probes = []
    real_probe = r.system.probe

    def spy(word, phase="mq"):
        probes.append(tuple(word))
        return real_probe(word, phase)

    r.system.probe = spy
    assert r.test(toggle) is None
    # both stored maximal words revisited oldest-first, then the cursor wraps
    assert probes == [(0, 0), (0, 0)] or probes == [(0, 0), (0, 0), (0, 0)]


def test_hypothesis_log_counts_by_language(toggle, constant_x):
    log = HypothesisLog()
    relabeled = MealyMachine(  # toggle with its two states renumbered
        toggle.inputs, toggle.outputs, 1, ((1,), (0,)), ((1,), (0,)),
    )
    log.record(toggle)
    log.record(relabeled)
    log.record(constant_x)
    assert log.total == 3
    assert sorted(log.counts.values()) == [1, 2]
    assert sum(log.counts.values()) == log.total


def test_minimal_machine_memo_matches_fingerprinting_every_record(
    toggle, constant_x, monkeypatch
):
    twin = MealyMachine(  # equal tables, built as separate objects
        toggle.inputs, toggle.outputs, 0,
        tuple(tuple(list(row)) for row in toggle.transitions),
        tuple(tuple(list(row)) for row in toggle.emissions),
    )
    relabeled = MealyMachine(  # same language as toggle, another table
        toggle.inputs, toggle.outputs, 1, ((1,), (0,)), ((1,), (0,)),
    )
    assert twin == toggle and twin is not toggle and twin.transitions is not toggle.transitions
    assert hash(twin) == hash(toggle)
    assert relabeled != toggle
    sequence = [twin, constant_x, toggle, relabeled, twin, constant_x, relabeled, toggle]

    calls = []

    def counting(h):
        calls.append(h)
        return minimize(h)

    log, ref = HypothesisLog(), ReferenceHypothesisLog()
    for h in sequence:
        with monkeypatch.context() as patch:
            patch.setattr("ceal.mealy.minimize", counting)
            key = log.record(h)
        assert key == minimize(h)
        assert canonical_fingerprint(key) == ref.record(h)
        assert log.latest is ref.latest
    assert calls == [twin, constant_x, relabeled]  # once per distinct table

    def by_fingerprint(keyed):
        return {canonical_fingerprint(key): value for key, value in keyed.items()}

    assert by_fingerprint(log.counts) == ref.counts and len(log.counts) == 2
    assert by_fingerprint(log.first_seen) == ref.first_seen
    assert log.total == ref.total == len(sequence)
    representatives = by_fingerprint(log.representatives)
    assert representatives.keys() == ref.representatives.keys()
    for fp, h in ref.representatives.items():
        assert representatives[fp] is h


def test_select_final_strategies(toggle, constant_x):
    log = HypothesisLog()
    for h in (toggle, constant_x, toggle, toggle, constant_x):
        log.record(h)
    assert select_final(log, "most_recent") is constant_x
    assert select_final(log, "most_frequent") is toggle


def test_select_final_tie_prefers_later_first_seen(toggle, constant_x):
    log = HypothesisLog()
    for h in (toggle, constant_x, toggle, constant_x):
        log.record(h)
    assert select_final(log, "most_frequent") is constant_x


def test_select_final_empty_log_raises():
    with pytest.raises(ValueError):
        select_final(HypothesisLog(), "most_recent")
    with pytest.raises(ValueError):
        select_final(HypothesisLog(), "most_frequent")


@pytest.mark.parametrize("tree_cls", [MostRecentTree, MostFrequentTree])
def test_every_probe_is_integrated_before_any_answer(toggle, tree_cls):
    """Probe results must reach the tree's update before anything else."""
    events = []
    tree = tree_cls()
    real_update = tree.update

    def spy_update(trace):
        events.append(("update", trace))
        return real_update(trace)

    tree.update = spy_update
    r = make_reviser(toggle, tree=tree, k_survive=10)
    real_probe = r.system.probe

    def spy_probe(word, phase="mq"):
        t = real_probe(word, phase)
        events.append(("probe", t))
        return t

    r.system.probe = spy_probe
    r.read((0, 0, 0))
    r.read((0,))
    r.test(toggle)
    for k, (kind, payload) in enumerate(events):
        if kind == "probe":
            assert k + 1 < len(events), "probe not followed by an update"
            nxt = events[k + 1]
            assert nxt == ("update", payload)
