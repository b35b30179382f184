"""Seeded workload generation for the ceal benchmark.

A workload is a list of experiment cells whose seeds are drawn from the
benchmark seed; sessions run in the (cell, seed) order ``run_grid`` uses.
The program only ever sees DOT files and ``ExperimentConfig`` values:
random targets are generated here and written as DOT before any session
loads them.

Importing this module puts the checkout's ``src`` first on ``sys.path`` so
the benchmark always measures the ceal next to it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ceal.harness import ExperimentConfig, load_target  # noqa: E402
from ceal.mealy import Alphabet, MealyMachine, random_machine, write_dot  # noqa: E402
from ceal.sul import RepeatPolicy  # noqa: E402

PAPER_TARGETS = ("lock", "session", "player")
LEARNERS = ("lstar_rs", "kv")


@dataclass(frozen=True)
class Workload:
    """Cells in run order plus each cell's loaded target (as run_grid loads it)."""

    cells: tuple[ExperimentConfig, ...]
    targets: tuple[MealyMachine, ...]

    def sessions(self):
        """(cell, session seed, target) in run_grid order."""
        for cfg, target in zip(self.cells, self.targets):
            for seed in cfg.seeds:
                yield cfg, seed, target


def session_seeds(name: str, seed: int, count: int) -> tuple[int, ...]:
    """Distinct per-session seeds derived from the benchmark seed."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    return tuple(rng.sample(range(1 << 31), count))


def _paper_dot(stem: str) -> str:
    return str(ROOT / "benchmarks" / f"{stem}.dot")


def voted_paper(seed: int, out_dir: Path, per_cell: int) -> list[ExperimentConfig]:
    """The paper's comparison grid: ceal vs MAT, output noise 0.05, voting 5:10."""
    seeds = session_seeds("voted-paper", seed, per_cell)
    return [
        ExperimentConfig(
            target=_paper_dot(stem),
            framework=framework,
            learner=learner,
            repeats=RepeatPolicy(5, 10),
            noise_kind="output",
            noise_rate=0.05,
            seeds=seeds,
        )
        for stem in PAPER_TARGETS
        for framework in ("ceal", "mat")
        for learner in LEARNERS
    ]


def light_vote(seed: int, out_dir: Path, per_cell: int) -> list[ExperimentConfig]:
    """Conflict-heavy ceal: voting 1:1 at output noise 0.05, both trees, small cap."""
    seeds = session_seeds("light-vote", seed, per_cell)
    return [
        ExperimentConfig(
            target=_paper_dot(stem),
            framework="ceal",
            learner=learner,
            repeats=RepeatPolicy(1, 1),
            noise_kind="output",
            noise_rate=0.05,
            update_strategy=strategy,
            max_queries=2_000,
            seeds=seeds,
        )
        for stem in PAPER_TARGETS
        for strategy in ("most_recent", "most_frequent")
        for learner in LEARNERS
    ]


CLEAN_STATES = 120
CLEAN_INPUTS = Alphabet(tuple(f"i{k}" for k in range(6)))
CLEAN_OUTPUTS = Alphabet(tuple(f"o{k}" for k in range(4)))
CLEAN_TARGETS = 8


def clean_large(seed: int, out_dir: Path, per_cell: int) -> list[ExperimentConfig]:
    """Noise-free, voting 1:1, on random 120-state targets generated from the seed."""
    rng = random.Random(f"perfbench:clean-large-targets:{seed}")
    target_dir = out_dir / "targets"
    target_dir.mkdir(parents=True, exist_ok=True)
    seeds = session_seeds("clean-large", seed, per_cell)
    cells = []
    for k in range(CLEAN_TARGETS):
        machine = random_machine(
            CLEAN_STATES, CLEAN_INPUTS, CLEAN_OUTPUTS, seed=rng.randrange(1 << 31)
        )
        path = target_dir / f"random{k}.dot"
        path.write_text(write_dot(machine, f"random{k}"), encoding="utf-8")
        cells += [
            ExperimentConfig(
                target=str(path),
                framework=framework,
                learner=learner,
                repeats=RepeatPolicy(1, 1),
                seeds=seeds,
            )
            for framework in ("ceal", "mat")
            for learner in LEARNERS
        ]
    return cells


# name -> (cell factory, session seeds per cell)
WORKLOADS = {
    "voted-paper": (voted_paper, 80),
    "light-vote": (light_vote, 8),
    "clean-large": (clean_large, 2),
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate the workload's inputs from the seed, load targets, build cells."""
    make_cells, per_cell = WORKLOADS[name]
    cells = make_cells(seed, Path(out_dir), per_cell)
    return Workload(tuple(cells), tuple(load_target(c.target) for c in cells))
