"""Reviser operations: apply/read/check/test/eq, logging, selection."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from ceal.eqtest import PreparedSampler, SamplerConfig
from ceal.harness import ExperimentConfig, load_target, run
from ceal.learners import InconsistentTeacher, PruneRequested
from ceal.mealy import MealyMachine, Trace, canonical_fingerprint, minimize
from ceal.obstree import MostFrequentTree, MostRecentTree
from ceal.reviser import HypothesisLog, Reviser, select_final
from ceal.sul import NoiseModel, RepeatPolicy, SimulatedSystem
from oracles import ReferenceHypothesisLog


def make_reviser(target, tree=None, k_survive=50, seed=0, noise=None,
                 max_tests=None, tree_check=True, policy=RepeatPolicy(1, 1)):
    system = SimulatedSystem(
        target,
        noise if noise is not None else NoiseModel.from_seed("none", 0.0, seed),
        max_tests=max_tests,
    )
    return Reviser(
        tree if tree is not None else MostRecentTree(),
        system,
        policy,
        SamplerConfig(mean_infix=2.0, max_len=30),
        random.Random(f"{seed}:sampler"),
        k_survive=k_survive,
        tree_check=tree_check,
    )


def count_prunes(action):
    """Run action; return how many PruneRequested it raised (0 or 1)."""
    try:
        action()
    except PruneRequested:
        return 1
    return 0


class ScriptedSystem:
    """Probe stub with a fixed (word -> outputs) plan and a meter-free life."""

    def __init__(self, plan):
        self.plan = list(plan)
        self.probed = []

    def probe(self, word, phase="mq"):
        self.probed.append((tuple(word), phase))
        return tuple(self.plan.pop(0))


def test_apply_on_fresh_tree_never_prunes(toggle):
    r = make_reviser(toggle)
    got = []
    assert count_prunes(lambda: got.append(r.apply(Trace((0, 0, 0), (0, 0, 1))))) == 0
    assert got == [(0, 0, 1)]


def test_apply_conflict_raises_prune_and_counts(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    assert count_prunes(lambda: r.apply(Trace((0, 0), (0, 0)))) == 1
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


def test_read_votes_under_the_policy_and_stores_one_trace(toggle):
    tree = MostRecentTree()
    updates = []
    real_update = tree.update

    def spy_update(trace):
        updates.append(trace)
        return real_update(trace)

    tree.update = spy_update
    r = make_reviser(toggle, tree=tree, policy=RepeatPolicy(5, 10))
    assert r.read((0, 0, 0)) == (0, 1, 0)
    m = r.system.meter
    assert (m.tests, m.mq_symbols, m.eq_symbols) == (5, 15, 0)  # unanimous at min_repeats
    assert updates == [Trace((0, 0, 0), (0, 1, 0))]


def test_test_votes_are_charged_to_eq_symbols(toggle):
    r = make_reviser(toggle, k_survive=4, policy=RepeatPolicy(5, 10))
    assert r.test(toggle) is None
    sampler = PreparedSampler(minimize(toggle), r.sampler_cfg)
    rng = random.Random("0:sampler")
    drawn = [sampler.draw(rng) for _ in range(4)]
    m = r.system.meter
    assert m.tests == 5 * 4
    assert m.eq_symbols == m.symbols == 5 * sum(map(len, drawn))
    assert m.mq_symbols == 0


@pytest.mark.parametrize(
    "tree_cls",
    [
        MostRecentTree,
        pytest.param(MostFrequentTree, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: apply returns the new answer even when a heavier "
                   "stored answer keeps the selection",
        )),
    ],
)
def test_read_under_input_noise_answers_what_the_tree_holds(tree_cls):
    lock = load_target(Path(__file__).resolve().parent.parent / "benchmarks" / "lock.dot")
    answered = differ = 0
    for seed in range(5):
        r = make_reviser(lock, tree=tree_cls(), seed=seed,
                         noise=NoiseModel.from_seed("input", 0.5, seed))
        rng = random.Random(f"{seed}:words")
        for _ in range(40):
            word = tuple(rng.randrange(len(lock.inputs)) for _ in range(rng.randint(1, 8)))
            try:
                answer = r.read(word)
            except PruneRequested:
                continue
            answered += 1
            differ += answer != r.tree.lookup(word)
    assert answered > 100
    assert differ == 0, f"{differ} of {answered} answers differ from the tree"


def test_read_conflicting_probe_raises_prune(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    r.system = ScriptedSystem([(1, 1, 1)])  # contradicts stored (0,1) prefix
    assert count_prunes(lambda: r.read((0, 0, 0))) == 1


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


def test_check_stays_exact_across_updates(toggle):
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
    # the tree's own counterexample, before any sampled test
    assert r.test(constant_x) == r.check(constant_x) == Trace((0, 0), (0, 1))
    assert r.system.meter.tests == 0


def test_eq_scans_the_tree_once(toggle, monkeypatch):
    r = make_reviser(toggle, k_survive=30)
    r.apply(Trace((0, 0), (0, 1)))
    scans = []
    real_scan = MostRecentTree.find_disagreement

    def counting(tree, machine, *args, **kwargs):
        scans.append(machine)
        return real_scan(tree, machine, *args, **kwargs)

    monkeypatch.setattr(MostRecentTree, "find_disagreement", counting)
    assert r.eq(toggle) is None
    assert scans == [toggle]


def test_test_survival_costs_exactly_k_tests(toggle):
    r = make_reviser(toggle, k_survive=50)
    probes = []
    real_probe = r.system.probe

    def spy(word, phase="mq"):
        probes.append(tuple(word))
        return real_probe(word, phase)

    r.system.probe = spy
    assert r.test(toggle) is None
    m = r.system.meter
    assert m.tests == 50
    assert m.symbols == m.eq_symbols > 0
    assert m.mq_symbols == 0
    # every tested word is the sampler's next draw, from the reviser's stream
    sampler = PreparedSampler(minimize(toggle), r.sampler_cfg)
    rng = random.Random("0:sampler")
    assert probes == [sampler.draw(rng) for _ in range(50)]


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
        return tuple(1 for _ in word)


def test_test_prunes_on_conflicting_observation(toggle):
    r = make_reviser(toggle)
    r.apply(Trace((0,), (0,)))
    r.system = AllOnesSystem()  # every draw starts with 0/1, contradicting 0/0
    assert count_prunes(lambda: r.test(toggle)) == 1


def test_eq_records_before_answering(toggle, constant_x):
    r = make_reviser(toggle)
    r.apply(Trace((0, 0), (0, 1)))
    found = r.eq(constant_x)
    assert isinstance(found, Trace)
    assert r.system.meter.tests == 0  # the tree already refuted it
    assert sum(r.log.counts.values()) == 1 and r.log.latest is constant_x


def test_eq_survival_verdict_noise_free(toggle):
    r = make_reviser(toggle, k_survive=30)
    got = []
    assert count_prunes(lambda: got.append(r.eq(toggle))) == 0
    assert got == [None]
    assert sum(r.log.counts.values()) == 1


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
    assert r.eq(relabeled) is None
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
    # the sampler takes the log's minimization, the only one; the tree check needs none
    assert calls == [lock]


def test_check_then_eq_share_one_minimization(toggle, monkeypatch):
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
    r.apply(Trace((0, 0), (0, 1)))
    assert r.check(relabeled) is None
    assert r.eq(relabeled) is None
    # the record's minimization serves the sampler; the checks need none
    assert calls == [relabeled]


@pytest.mark.parametrize("tree_check", [True, False])
def test_every_conflict_raises_prune_with_or_without_tree_check(toggle, tree_check):
    conflicting = [
        lambda r: r.apply(Trace((0, 0), (0, 0))),
        lambda r: r.read((0, 0, 0)),  # probed as (1, 1, 1)
        lambda r: r.test(toggle),  # every probe answers all ones
    ]
    for system, action in zip((None, ScriptedSystem([(1, 1, 1)]), AllOnesSystem()),
                              conflicting):
        r = make_reviser(toggle, tree_check=tree_check)
        r.apply(Trace((0, 0), (0, 1)))
        if system is not None:
            r.system = system
        assert count_prunes(lambda: action(r)) == 1


def test_collapse_eq_skips_the_tree_check(toggle, constant_x, monkeypatch):
    r = make_reviser(toggle, k_survive=200, tree_check=False)
    r.apply(Trace((0, 0), (0, 1)))  # already contradicts constant_x

    def refuse(*args, **kwargs):
        raise AssertionError("a reviser without tree_check never scans the tree")

    monkeypatch.setattr(MostRecentTree, "find_disagreement", refuse)
    found = r.eq(constant_x)
    assert isinstance(found, Trace)
    assert constant_x.run(found.inputs) != found.outputs
    assert r.system.meter.tests > 0  # paid for in sampled tests
    assert r.system.meter.mq_symbols == 0
    assert r.log.latest is constant_x


def test_collapse_test_skips_the_consistency_guard(toggle, constant_x):
    r = make_reviser(toggle, k_survive=200, tree_check=False)
    r.apply(Trace((0, 0), (0, 1)))  # a tree check would refute constant_x
    got = []
    assert count_prunes(lambda: got.append(r.test(constant_x))) == 0
    (found,) = got
    assert isinstance(found, Trace)
    assert toggle.run(found.inputs) == found.outputs


def test_hypothesis_log_counts_by_language(toggle, constant_x):
    log = HypothesisLog()
    relabeled = MealyMachine(  # toggle with its two states renumbered
        toggle.inputs, toggle.outputs, 1, ((1,), (0,)), ((1,), (0,)),
    )
    log.record(toggle)
    log.record(relabeled)
    log.record(constant_x)
    assert sorted(log.counts.values()) == [1, 2]
    assert sum(log.counts.values()) == 3


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
            log.record(h)
            key = log.canonical(h)
        assert key == minimize(h)
        assert canonical_fingerprint(key) == ref.record(h)
        assert log.latest is ref.latest
    assert calls == [twin, constant_x, relabeled]  # once per distinct table

    def by_fingerprint(keyed):
        return {canonical_fingerprint(key): value for key, value in keyed.items()}

    assert by_fingerprint(log.counts) == ref.counts and len(log.counts) == 2
    # counts keeps its keys in first-seen order
    first_seen = sorted(ref.first_seen, key=ref.first_seen.__getitem__)
    assert [canonical_fingerprint(key) for key in log.counts] == first_seen
    assert sum(log.counts.values()) == ref.total == len(sequence)
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
        outputs = real_probe(word, phase)
        events.append(("probe", Trace(word, outputs)))
        return outputs

    r.system.probe = spy_probe
    r.read((0, 0, 0))
    r.read((0,))
    r.test(toggle)
    for k, (kind, payload) in enumerate(events):
        if kind == "probe":
            assert k + 1 < len(events), "probe not followed by an update"
            nxt = events[k + 1]
            assert nxt == ("update", payload)


@pytest.mark.parametrize("learner", ["lstar_rs", "kv"])
@pytest.mark.parametrize("strategy", ["most_recent", "most_frequent"])
def test_every_counterexample_test_returns_is_what_the_tree_holds(
    monkeypatch, strategy, learner
):
    """test answers from the tree's language, though it reads back only a MostFrequentTree."""
    real_test = Reviser.test
    returned = []  # (counterexample, the tree's answer for its word when returned)

    def checked(self, h):
        found = real_test(self, h)
        if found is not None:
            returned.append((found, self.tree.lookup(found.inputs)))
        return found

    monkeypatch.setattr(Reviser, "test", checked)
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    for name in ("lock", "session", "player"):
        cfg = ExperimentConfig(
            target=str(bench / f"{name}.dot"), learner=learner, update_strategy=strategy,
            noise_kind="output", noise_rate=0.05, repeats=RepeatPolicy(1, 1),
            max_queries=3_000, seeds=(0, 1),
        )
        for seed in cfg.seeds:
            try:
                run(cfg, seed)
            except InconsistentTeacher:  # ROADMAP item 1's leak, on most_frequent
                pass
    assert returned
    assert all(found.outputs == stored for found, stored in returned)
