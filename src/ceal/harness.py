"""Experiment orchestration: single runs, parameter grids, report emission.

One run (``run``) wires a learner through a Reviser and majority voting to
a noisy simulated system, and judges the final model against the
noise-free target. The frameworks differ in the Reviser's conflict
policy: ceal prunes and restarts the learner, MAT collapses the run. A
grid crosses targets, frameworks, learners, noise settings and repeat
policies, runs every seed of every cell, and aggregates per-cell success
rates and mean costs.

Grid files are flat ``key = value`` text; list-valued keys take
comma-separated entries. Recognized keys::

    targets   = benchmarks/lock.dot, benchmarks/dispenser.dot   (required)
    frameworks = mat, ceal
    learners  = lstar_rs, kv
    noise     = none:0, output:0.05        # kind:rate pairs
    repeats   = 5:10                       # min:max voting pairs
    seeds     = 0..49                      # inclusive range, or 0,1,2
    update_strategy = most_recent          # ceal only; MAT ignores it
    selection = most_frequent              # ceal only; MAT ignores it
    sampler   = randomized_wp              # or random_walk
    mean_infix = 4.0
    max_len   = 50
    k_survive = 200
    max_queries = 200000

Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .eqtest import SamplerConfig
from .learners import InconsistentTeacher, KVLearner, LStarLearner, PruneRequested
from .mealy import (
    DotParseError,
    MealyMachine,
    Trace,
    Word,
    find_counterexample,
    parse_dot,
)
from .obstree import MostFrequentTree, MostRecentTree
from .reviser import HypothesisLog, Reviser, select_final
from .sul import (
    NOISE_KINDS,
    BudgetExhausted,
    NoiseModel,
    RepeatPolicy,
    SimulatedSystem,
    majority_query,
)

FRAMEWORKS = ("mat", "ceal")
LEARNER_NAMES = ("lstar_rs", "kv")
STRATEGIES = ("most_recent", "most_frequent")

_LEARNER_CLASSES = {"lstar_rs": LStarLearner, "kv": KVLearner}

REPORT_FIELDS = (
    "experiment",
    "framework",
    "algorithm",
    "repeats",
    "noise_kind",
    "noise_level",
    "success_rate",
    "test_count_mean",
    "symbol_count_mean",
    "eq_fraction_mean",
    "prune_count_mean",
    "runs",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment cell; validated on construction."""

    target: str
    framework: str = "ceal"
    learner: str = "lstar_rs"
    repeats: RepeatPolicy = RepeatPolicy(5, 10)
    noise_kind: str = "none"
    noise_rate: float = 0.0
    update_strategy: str = "most_recent"  # ignored under MAT
    selection: str = "most_frequent"  # ignored under MAT
    sampler: SamplerConfig = SamplerConfig()
    k_survive: int = 200
    max_queries: int = 200_000
    seeds: tuple[int, ...] = tuple(range(20))

    def __post_init__(self) -> None:
        object.__setattr__(self, "framework", self.framework.lower())
        object.__setattr__(self, "learner", self.learner.lower())
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.framework not in FRAMEWORKS:
            raise ValueError(f"framework must be one of {FRAMEWORKS}, got {self.framework!r}")
        if self.learner not in _LEARNER_CLASSES:
            raise ValueError(f"learner must be one of {LEARNER_NAMES}, got {self.learner!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ValueError("noise rate must lie in [0,1]")
        if self.update_strategy not in STRATEGIES:
            raise ValueError(f"update strategy must be one of {STRATEGIES}")
        if self.selection not in STRATEGIES:
            raise ValueError(f"selection must be one of {STRATEGIES}")
        if self.k_survive < 1:
            raise ValueError("k_survive must be positive")
        if self.max_queries < 1:
            raise ValueError("max_queries must be positive")
        if not self.seeds:
            raise ValueError("a cell needs at least one seed")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one learning session.

    success is judged by running the ground-truth comparison between the
    selected final model and the noise-free target, never self-reported.
    """

    success: bool
    tests: int
    symbols: int
    eq_fraction: float
    hypothesis_states: int
    prunes: int
    terminated_by: str  # stability | query_cap | collapse


class _VotingSystem:
    """System facade that majority-votes every probe behind one interface.

    Each requested word is re-run per the repeat policy and the agreed
    output word is returned as a single trace, so the Reviser above sees a
    denoised system. Both frameworks vote through it; budget accounting
    stays on the wrapped system's meter.
    """

    def __init__(self, system: SimulatedSystem, policy: RepeatPolicy) -> None:
        self.system = system
        self.policy = policy

    def probe(self, word: Word, phase: str = "mq") -> Trace:
        return Trace(word, majority_query(self.system, word, self.policy, phase))


def load_target(path: str | Path) -> MealyMachine:
    """Read and parse a DOT model file."""
    machine, _, _ = parse_dot(Path(path).read_text(encoding="utf-8"))
    return machine


def run(cfg: ExperimentConfig, seed: int, target: Optional[MealyMachine] = None) -> RunResult:
    """One learning session: learner <-> Reviser <-> voting <-> noisy system.

    The learner asks reviser.read directly. Every probe is majority-voted
    per cfg.repeats in both frameworks, so their comparison isolates
    conflict handling. Under ceal a conflict raises PruneRequested, from a
    membership query or from reviser.eq alike, and the one handler restarts
    the learner; the final model is chosen per cfg.selection, and an
    InconsistentTeacher from the learner propagates.
    Under MAT the Reviser collapses on a most_recent tree: a conflict ends
    the run unjudged as "collapse", and the final model is the latest
    hypothesis. The tree and all counters persist across restarts. Hitting
    the query cap ends the run, and the final model is still judged.
    """
    if target is None:
        target = load_target(cfg.target)
    system = SimulatedSystem(
        target,
        NoiseModel.from_seed(cfg.noise_kind, cfg.noise_rate, seed),
        max_tests=cfg.max_queries,
    )
    mat = cfg.framework == "mat"
    frequent = cfg.update_strategy == "most_frequent" and not mat
    reviser = Reviser(
        MostFrequentTree() if frequent else MostRecentTree(),
        _VotingSystem(system, cfg.repeats),
        cfg.sampler,
        random.Random(f"{seed}:sampler"),
        k_survive=cfg.k_survive,
        collapse=mat,
    )
    learner = _LEARNER_CLASSES[cfg.learner](target.inputs, target.outputs, reviser.read)
    log = HypothesisLog()
    terminated_by = "stability"
    try:
        while True:
            try:
                h = learner.build_hypothesis()
                verdict = reviser.eq(h, log)
                if verdict is None:
                    break
                learner.refine(verdict)
            except PruneRequested:
                learner.restart()
    except BudgetExhausted:
        terminated_by = "query_cap"
    except InconsistentTeacher:
        if not mat:
            raise
        terminated_by = "collapse"
    final = None
    if log.latest is not None:
        final = select_final(log, "most_recent" if mat else cfg.selection)
    success = (
        terminated_by != "collapse"
        and final is not None
        and find_counterexample(final, target) is None
    )
    meter = system.meter
    fraction = meter.eq_symbols / meter.symbols if meter.symbols else 0.0
    states = final.n_states if final is not None else 0
    return RunResult(
        success, meter.tests, meter.symbols, fraction, states, reviser.prunes, terminated_by
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _cell_row(cfg: ExperimentConfig, results: Optional[Sequence[RunResult]]) -> dict:
    row = {
        "experiment": Path(cfg.target).stem,
        "framework": cfg.framework,
        "algorithm": cfg.learner,
        "repeats": f"({cfg.repeats.min_repeats}, {cfg.repeats.max_repeats})",
        "noise_kind": cfg.noise_kind,
        "noise_level": cfg.noise_rate,
    }
    wins = [r for r in results if r.success] if results else []
    if results:
        row["success_rate"] = len(wins) / len(results)
    else:
        row["success_rate"] = None  # cell errored before any run
    if wins:
        row["test_count_mean"] = _mean([r.tests for r in wins])
        row["symbol_count_mean"] = _mean([r.symbols for r in wins])
        row["eq_fraction_mean"] = _mean([r.eq_fraction for r in wins])
        row["prune_count_mean"] = _mean([r.prunes for r in wins])
    else:
        row["test_count_mean"] = None
        row["symbol_count_mean"] = None
        row["eq_fraction_mean"] = None
        row["prune_count_mean"] = None
    row["runs"] = len(results) if results else 0
    return row


def _row_order(row: dict) -> tuple:
    rate = row["success_rate"]
    tests = row["test_count_mean"]
    return (
        rate is None,
        -(rate if rate is not None else 0.0),
        tests if tests is not None else math.inf,
        row["experiment"],
        row["framework"],
        row["algorithm"],
        row["repeats"],
        row["noise_kind"],
        row["noise_level"],
    )


def run_grid(
    cells: Sequence[ExperimentConfig],
    on_result: Optional[Callable[[ExperimentConfig, int, RunResult], None]] = None,
) -> list[dict]:
    """Run every seed of every cell; aggregate into best-first ordered rows.

    Mean costs average over successful runs only; a cell without successes
    reports them as absent. An unreadable or malformed target marks its
    cell errored (empty rate and means, zero runs) and the sweep goes on.
    """
    rows = []
    for cfg in cells:
        try:
            target = load_target(cfg.target)
        except (OSError, DotParseError):
            rows.append(_cell_row(cfg, None))
            continue
        results = []
        for seed in cfg.seeds:
            result = run(cfg, seed, target)
            results.append(result)
            if on_result is not None:
                on_result(cfg, seed, result)
        rows.append(_cell_row(cfg, results))
    rows.sort(key=_row_order)
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def emit_report(rows: Sequence[dict], format: str = "csv") -> str:
    """Render aggregated rows as CSV (floats to 2 decimals) or JSON.

    Either text ends in one newline.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in REPORT_FIELDS])
        return buf.getvalue()
    if format == "json":
        return json.dumps([{f: row[f] for f in REPORT_FIELDS} for row in rows], indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_grid_config(text: str) -> dict[str, str]:
    """Parse flat key = value lines; '#' comments and blank lines ignored."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"grid config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in options:
            raise ValueError(f"grid config line {lineno}: duplicate key {key!r}")
        options[key] = value.strip()
    return options


def _split_list(value: str) -> list[str]:
    items = [part.strip() for part in value.split(",")]
    return [part for part in items if part]


def _parse_pair(value: str, what: str) -> tuple[str, str]:
    if value.count(":") != 1:
        raise ValueError(f"{what} must be written as a:b, got {value!r}")
    left, right = value.split(":")
    return left.strip(), right.strip()


def parse_seed_list(value: str) -> tuple[int, ...]:
    """Seeds as comma-separated integers and/or inclusive a..b ranges."""
    seeds: list[int] = []
    for part in _split_list(value):
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds given")
    return tuple(seeds)


def expand_grid(
    options: dict[str, str], base_dir: Optional[Path] = None
) -> list[ExperimentConfig]:
    """Cross a parsed grid config into one ExperimentConfig per cell.

    Axes: targets x noise x frameworks x learners x repeats; an axis given
    as an empty list is rejected. Everything else is shared by all cells.
    Target paths resolve against base_dir.
    """
    opts = dict(options)

    def take(key: str, default: str) -> str:
        return opts.pop(key, default)

    def axis(key: str, default: str) -> list[str]:
        items = _split_list(take(key, default))
        if not items:
            raise ValueError(f"grid config {key!r} is empty")
        return items

    if "targets" not in opts:
        raise ValueError("grid config needs a 'targets' key")
    targets = axis("targets", "")
    if base_dir is not None:
        targets = [
            t if Path(t).is_absolute() else str(Path(base_dir) / t) for t in targets
        ]
    frameworks = axis("frameworks", "ceal")
    learners = axis("learners", "lstar_rs")
    noises = []
    for item in axis("noise", "none:0"):
        kind, rate = _parse_pair(item, "noise")
        noises.append((kind, float(rate)))
    repeat_policies = []
    for item in axis("repeats", "5:10"):
        lo, hi = _parse_pair(item, "repeats")
        repeat_policies.append(RepeatPolicy(int(lo), int(hi)))
    seeds = parse_seed_list(take("seeds", "0..19"))
    sampler = SamplerConfig(
        method=take("sampler", "randomized_wp"),
        mean_infix=float(take("mean_infix", "4.0")),
        max_len=int(take("max_len", "50")),
    )
    update_strategy = take("update_strategy", "most_recent")
    selection = take("selection", "most_frequent")
    k_survive = int(take("k_survive", "200"))
    max_queries = int(take("max_queries", "200000"))
    if opts:
        raise ValueError(f"unknown grid config keys: {', '.join(sorted(opts))}")

    cells = []
    for target in targets:
        for noise_kind, noise_rate in noises:
            for framework in frameworks:
                for learner in learners:
                    for repeats in repeat_policies:
                        cells.append(
                            ExperimentConfig(
                                target=target,
                                framework=framework,
                                learner=learner,
                                repeats=repeats,
                                noise_kind=noise_kind,
                                noise_rate=noise_rate,
                                update_strategy=update_strategy,
                                selection=selection,
                                sampler=sampler,
                                k_survive=k_survive,
                                max_queries=max_queries,
                                seeds=seeds,
                            )
                        )
    return cells
