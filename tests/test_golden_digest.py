"""Golden digest: seeded RunResults stay byte-identical across refactors.

The first digest covers every noise kind, both frameworks and both learners
on a small voted grid, so a change to the probe, noise or voting path that
moves any RNG draw, test count or verdict shows up here. It runs only the
default most_recent tree; the second digest covers the most_frequent tree.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ceal.harness import ExperimentConfig, load_target, run
from ceal.learners import InconsistentTeacher
from ceal.mealy import Alphabet, random_machine, write_dot
from ceal.sul import RepeatPolicy

LOCK = Path(__file__).resolve().parent.parent / "benchmarks" / "lock.dot"
INPUTS4 = Alphabet(("a", "b", "c", "d"))
OUTPUTS2 = Alphabet(("0", "1"))

# sha256 over repr(RunResult) of the grid below, in loop order
GOLDEN = "aa05bff45ff0ec8bc2cc45da205879875af7585851817221b871c7657ead7368"


def test_seeded_grid_digest_is_unchanged():
    target = load_target(LOCK)
    digest = hashlib.sha256()
    for framework in ("ceal", "mat"):
        for learner in ("lstar_rs", "kv"):
            for kind, rate in (("none", 0.0), ("input", 0.05), ("output", 0.05)):
                cfg = ExperimentConfig(
                    target=str(LOCK),
                    framework=framework,
                    learner=learner,
                    repeats=RepeatPolicy(3, 5),
                    noise_kind=kind,
                    noise_rate=rate,
                    max_queries=4000,
                )
                for seed in range(4):
                    digest.update(repr(run(cfg, seed, target)).encode())
    assert digest.hexdigest() == GOLDEN


# sha256 over the most_frequent grid below, in loop order
GOLDEN_MOST_FREQUENT = "d7f1d3f95127773a18fb821d745e3dca438612fac742aff45c481af1f75e79b3"


def test_most_frequent_grid_digest_is_unchanged():
    """The same check for ceal on the frequency tree, under light and medium voting.

    A session that raises adds its exception type name in place of its
    RunResult: at this digest 7 of the 32 sessions raise InconsistentTeacher,
    because the reviser hands upward answers the frequency tree does not
    hold. Fixing that (ROADMAP item 1) moves this digest on purpose.
    """
    target = load_target(LOCK)
    digest = hashlib.sha256()
    for learner in ("lstar_rs", "kv"):
        for kind in ("input", "output"):
            for repeats in (RepeatPolicy(1, 1), RepeatPolicy(3, 5)):
                cfg = ExperimentConfig(
                    target=str(LOCK),
                    framework="ceal",
                    learner=learner,
                    repeats=repeats,
                    noise_kind=kind,
                    noise_rate=0.05,
                    update_strategy="most_frequent",
                    max_queries=2000,
                )
                for seed in range(4):
                    try:
                        result = repr(run(cfg, seed, target))
                    except InconsistentTeacher as exc:
                        result = type(exc).__name__
                    digest.update(result.encode())
    assert digest.hexdigest() == GOLDEN_MOST_FREQUENT


# sha256 over the random-target grid below, in loop order
GOLDEN_RANDOM_TARGET = "669c7472af627f423cd2849340df1c18a28e4403b126161bc761932c06355af6"


def test_random_target_digest_is_unchanged(tmp_path):
    """Noise-free ceal and MAT on a seeded random target with deep witnesses.

    lock.dot's characterization set is tiny, so the grids above barely pin
    the equivalence-test sampler. This target has 30 states, 4 inputs and
    2 outputs, so its hypotheses need multi-symbol characterization words;
    a change to the sampler's accesses, suffixes or draws moves this digest.
    The target goes through DOT and back, as the benchmarks' targets do.
    """
    path = tmp_path / "random30.dot"
    path.write_text(write_dot(random_machine(30, INPUTS4, OUTPUTS2, seed=5)))
    target = load_target(path)
    digest = hashlib.sha256()
    for framework in ("ceal", "mat"):
        for learner in ("lstar_rs", "kv"):
            cfg = ExperimentConfig(target=str(path), framework=framework, learner=learner)
            for seed in range(3):
                digest.update(repr(run(cfg, seed, target)).encode())
    assert digest.hexdigest() == GOLDEN_RANDOM_TARGET
