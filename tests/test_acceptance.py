"""Acceptance gate: eleven end-to-end checks, one verdict line each.

Each test prints ``criterion NN: PASS/FAIL`` with a measurement summary,
so a verbose run doubles as the acceptance report. Budgets (stream counts,
seed counts, time boxes) are stated inline next to each check.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

from oracles import language, prefixes, replay_heaviest_wins, replay_latest_wins

from ceal.eqtest import SamplerConfig
from ceal.harness import ExperimentConfig, emit_report, run, run_grid
from ceal.learners import LStarLearner, PruneRequested
from ceal.mealy import (
    Alphabet,
    MealyMachine,
    Trace,
    canonical_fingerprint,
    find_counterexample,
    random_machine,
)
from ceal.obstree import MostFrequentTree, MostRecentTree
from ceal.reviser import Reviser
from ceal.sul import NoiseModel, RepeatPolicy, SimulatedSystem

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
TARGETS = ("lock", "session", "player")
SIGMA = Alphabet(("a", "b"))
GAMMA = Alphabet(("0", "1"))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def load_benchmark(name: str) -> MealyMachine:
    from ceal.harness import load_target

    return load_target(BENCH / f"{name}.dot")


def _random_stream(rng: random.Random) -> list[Trace]:
    stream = []
    for _ in range(rng.randint(0, 8)):
        k = rng.randint(0, 4)
        stream.append(
            Trace(
                tuple(rng.randrange(2) for _ in range(k)),
                tuple(rng.randrange(2) for _ in range(k)),
            )
        )
    return stream


def test_criterion_01_most_recent_language_oracle():
    t0 = time.monotonic()
    checked = 0
    for i in range(1000):
        stream = _random_stream(random.Random(f"c1:{i}"))
        tree = MostRecentTree()
        for obs in stream:
            tree.update(obs)
        assert language(tree) == replay_latest_wins(stream), f"stream {i}"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(1, checked == 1000 and elapsed < 10.0,
             f"{checked}/1000 streams exact in {elapsed:.1f}s")


def test_criterion_02_most_frequent_language_oracle():
    t0 = time.monotonic()
    checked = 0
    for i in range(1000):
        stream = _random_stream(random.Random(f"c2:{i}"))
        tree = MostFrequentTree()
        for obs in stream:
            tree.update(obs)
        assert language(tree) == replay_heaviest_wins(stream), f"stream {i}"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(2, checked == 1000 and elapsed < 10.0,
             f"{checked}/1000 streams exact in {elapsed:.1f}s")


class _FlipSystem:
    """Forced-noise stub: every probe answers the target with seeded flips."""

    def __init__(self, target: MealyMachine, rate: float, rng: random.Random) -> None:
        self.target = target
        self.rate = rate
        self.rng = rng

    def probe(self, word, phase="mq"):
        outs = tuple(
            self.rng.randrange(len(self.target.outputs))
            if self.rng.random() < self.rate else o
            for o in self.target.run(word)
        )
        return outs


def test_criterion_03_prune_iff_non_additive_update():
    runs, violations, prunes_seen, updates_seen = 200, 0, 0, 0
    for r in range(200):
        rng = random.Random(f"c3:{r}")
        target = random_machine(2 + r % 4, SIGMA, GAMMA, seed=r)
        tree = MostRecentTree() if r % 2 == 0 else MostFrequentTree()
        events: list[tuple] = []

        real_update = tree.update
        snapshots: list[tuple[bool, bool]] = []  # (flagged, non_additive)

        def spy_update(trace, _tree=tree, _real=real_update):
            before = language(_tree)
            flagged = _real(trace)
            events.append(("update", trace))
            snapshots.append((flagged, not before <= language(_tree)))
            return flagged

        tree.update = spy_update
        system = _FlipSystem(target, 0.15, rng)
        real_probe = system.probe

        def spy_probe(word, phase="mq", _real=real_probe):
            outputs = _real(word, phase)
            events.append(("probe", Trace(tuple(word), outputs)))
            return outputs

        system.probe = spy_probe
        reviser = Reviser(tree, system, RepeatPolicy(1, 1),
                          SamplerConfig(mean_infix=2.0, max_len=10),
                          random.Random(f"c3s:{r}"), k_survive=8)
        for j in range(4):
            word = tuple(rng.randrange(2) for _ in range(rng.randint(1, 6)))
            try:
                reviser.read(word)
            except PruneRequested:
                prunes_seen += 1
        for h in (target, random_machine(2, SIGMA, GAMMA, seed=1000 + r)):
            if reviser.check(h) is not None:
                continue  # eq() would answer from the tree, probing nothing
            try:
                reviser.eq(h)
            except PruneRequested:
                prunes_seen += 1
        # Prune surfaced iff the triggering update was non-additive
        violations += sum(1 for flagged, shrank in snapshots if flagged != shrank)
        updates_seen += len(snapshots)
        # every probed trace enters the tree before anything else happens
        for k, (kind, payload) in enumerate(events):
            if kind == "probe":
                if k + 1 >= len(events) or events[k + 1] != ("update", payload):
                    violations += 1
    _verdict(3, violations == 0 and prunes_seen > 0 and updates_seen > 0,
             f"{runs} runs, {updates_seen} updates, {prunes_seen} prunes, "
             f"{violations} violations")


def test_criterion_04_conflicting_update_replay():
    def tr(ins: str, outs: str) -> Trace:
        return Trace(tuple("ab".index(c) for c in ins),
                     tuple("ab".index(c) for c in outs))

    tree = MostRecentTree()
    for obs in (tr("aaa", "aab"), tr("aab", "aaa"), tr("ab", "ab")):
        assert tree.update(obs) is False
    conflicted = tree.update(tr("aaa", "abb"))
    expected = set(prefixes(tr("aaa", "abb"))) | set(prefixes(tr("ab", "ab")))
    ok = conflicted is True and language(tree) == expected
    _verdict(4, ok, f"conflict flagged, surviving language has {len(language(tree))} traces")


def test_criterion_05_noise_free_convergence():
    t0 = time.monotonic()
    wins, prunes = 0, 0
    for i in range(50):
        target = random_machine(1 + (i % 10), SIGMA, GAMMA, 1000 + i)
        for framework in ("ceal", "mat"):
            for learner in ("lstar_rs", "kv"):
                cfg = ExperimentConfig(
                    target=f"random-{i}", framework=framework, learner=learner,
                    repeats=RepeatPolicy(1, 1), selection="most_recent", seeds=(i,),
                )
                result = run(cfg, i, target)
                wins += result.success and result.terminated_by == "stability"
                if framework == "ceal":
                    prunes += result.prunes
    elapsed = time.monotonic() - t0
    _verdict(5, wins == 200 and prunes == 0 and elapsed < 120.0,
             f"{wins}/200 runs exact, {prunes} prunes, {elapsed:.1f}s")


def test_criterion_06_restart_is_free_for_answered_queries():
    target = load_benchmark("lock")
    system = SimulatedSystem(target, NoiseModel.from_seed("none", 0.0, 0))
    reviser = Reviser(MostRecentTree(), system, RepeatPolicy(1, 1),
                      SamplerConfig(mean_infix=2.0, max_len=30),
                      random.Random("c6:sampler"), k_survive=50)
    answered: dict[tuple, tuple] = {}

    def teacher(word):
        answer = reviser.read(word)
        answered[tuple(word)] = answer
        return answer

    learner = LStarLearner(target.inputs, target.outputs, teacher)
    while True:
        h = learner.build_hypothesis()
        verdict = reviser.eq(h)
        if verdict is None:
            break
        learner.refine(verdict)
    star_fp = canonical_fingerprint(h)
    assert find_counterexample(h, target) is None

    # poison one fresh word beyond the stored branch, then heal it: the heal
    # is the forced Prune, and it leaves the tree holding only the truth
    depth = 0
    while reviser.tree.lookup((0,) * (depth + 1)) is not None:
        depth += 1
    word = (0,) * (depth + 3)
    truth = target.run(word)
    poison = truth[:-1] + ((truth[-1] + 1) % len(target.outputs),)
    assert reviser.apply(Trace(word, poison)) == poison  # additive lie
    prunes = 0
    try:
        reviser.apply(Trace(word, truth))
    except PruneRequested:
        prunes += 1
    assert reviser.tree.lookup(word) == truth
    assert prunes == 1

    learner.restart()
    overcharged = []

    def audited_teacher(word):
        before = system.meter.tests
        answer = reviser.read(word)
        key = tuple(word)
        if key in answered and system.meter.tests != before:
            overcharged.append(key)
        return answer

    learner.teacher = audited_teacher
    while True:
        h2 = learner.build_hypothesis()
        verdict = reviser.eq(h2)
        if verdict is None:
            break
        learner.refine(verdict)
    ok = not overcharged and canonical_fingerprint(h2) == star_fp
    _verdict(6, ok, f"rebuild re-asked {len(answered)} known words for 0 tests, "
                    f"final model unchanged")


def _noisy_cells(noise_rate: float) -> dict[tuple[str, str, str], list]:
    results: dict[tuple[str, str, str], list] = {}
    for name in TARGETS:
        target = load_benchmark(name)
        for learner in ("lstar_rs", "kv"):
            for framework in ("ceal", "mat"):
                kind = "output" if noise_rate else "none"
                cfg = ExperimentConfig(
                    target=str(BENCH / f"{name}.dot"), framework=framework,
                    learner=learner, noise_kind=kind, noise_rate=noise_rate,
                    seeds=tuple(range(50)),
                )
                results[name, learner, framework] = [run(cfg, s, target) for s in cfg.seeds]
    return results


def test_criterion_07_noisy_success_ordering():
    t0 = time.monotonic()
    cells = _noisy_cells(0.05)
    lines, ok = [], True
    totals = {"ceal": 0, "mat": 0}
    for name in TARGETS:
        for learner in ("lstar_rs", "kv"):
            rates = {}
            for framework in ("ceal", "mat"):
                wins = sum(r.success for r in cells[name, learner, framework])
                rates[framework] = wins / 50
                totals[framework] += wins
            ok = ok and rates["ceal"] >= rates["mat"]
            lines.append(f"{name}/{learner} {rates['ceal']:.2f}v{rates['mat']:.2f}")
    margin = (totals["ceal"] - totals["mat"]) / 300
    elapsed = time.monotonic() - t0
    ok = ok and margin >= 0.10 and elapsed < 1800.0
    _verdict(7, ok, f"margin {margin * 100:+.1f}pp, cells {' '.join(lines)}, {elapsed:.0f}s")


def test_criterion_08_equivalence_cost_dominance():
    cells = _noisy_cells(0.0)
    pooled = {"ceal": [], "mat": []}
    for (_, _, framework), results in cells.items():
        pooled[framework].extend(r.eq_fraction for r in results if r.success)
    mat = sum(pooled["mat"]) / len(pooled["mat"])
    ceal = sum(pooled["ceal"]) / len(pooled["ceal"])
    _verdict(8, mat > ceal and mat > 0.5,
             f"mean eq share: classical {mat:.4f} > conflict-aware {ceal:.4f} > 0.5")


def test_criterion_09_binary_search_refinement_bound():
    def cycle_machine(n: int) -> MealyMachine:
        trans = tuple(((q + 1) % n,) for q in range(n))
        emit = tuple((1 if q == n - 1 else 0,) for q in range(n))
        return MealyMachine(Alphabet(("a",)), Alphabet(("x", "y")), 0, trans, emit)

    worst = []
    for n in (4, 8, 16, 32, 64):
        target = cycle_machine(n)
        calls = [0]

        def teacher(word, _t=target, _c=calls):
            _c[0] += 1
            return _t.run(word)

        learner = LStarLearner(target.inputs, target.outputs, teacher)
        h = learner.build_hypothesis()
        cex = find_counterexample(target, h)
        assert cex is not None and len(cex.inputs) == n
        calls[0] = 0
        learner.refine(cex)
        bound = math.ceil(math.log2(n)) + 3
        worst.append((n, calls[0], bound))
    ok = all(used <= bound for _, used, bound in worst)
    shown = " ".join(f"|cex|={n}:{used}<={bound}" for n, used, bound in worst)
    _verdict(9, ok, shown)


def test_criterion_10_seeded_determinism():
    cfg = ExperimentConfig(
        target=str(BENCH / "session.dot"),
        noise_kind="output", noise_rate=0.05, seeds=(11,),
    )
    first, second = run(cfg, 11), run(cfg, 11)
    grid_cfg = ExperimentConfig(target=str(BENCH / "lock.dot"), seeds=(0, 1))
    report_a = emit_report(run_grid([grid_cfg]))
    report_b = emit_report(run_grid([grid_cfg]))
    ok = repr(first) == repr(second) and first == second and report_a == report_b
    _verdict(10, ok, "repeated runs and reports byte-identical")


def test_criterion_11_output_noise_flip_rate():
    noise = NoiseModel.from_seed("output", 0.1, 42)
    flips = 0
    for k in range(10_000):
        symbol = k % 4
        flips += noise.perturb((symbol,), 4) != (symbol,)
    rate = flips / 10_000
    # uniform replacement re-draws the same symbol 1/4 of the time
    _verdict(11, abs(rate - 0.075) <= 0.01, f"observed flip rate {rate:.4f} vs 0.075±0.01")
