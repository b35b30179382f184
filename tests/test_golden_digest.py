"""Golden digest: seeded RunResults stay byte-identical across refactors.

The digest covers every noise kind, both frameworks and both learners on a
small voted grid, so a change to the probe, noise or voting path that moves
any RNG draw, meter count or verdict shows up here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ceal.harness import ExperimentConfig, load_target, run
from ceal.sul import RepeatPolicy

LOCK = Path(__file__).resolve().parent.parent / "benchmarks" / "lock.dot"

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
