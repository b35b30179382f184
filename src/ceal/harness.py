"""Experiment orchestration: single runs, parameter grids, report emission.

One run (``run``) wires a learner through a voting Reviser to a noisy
simulated system, and judges the final model against the noise-free
target. The frameworks differ in what a conflict means to
``run``: ceal prunes and restarts the learner, MAT collapses the run. A
grid crosses targets, frameworks, learners, noise settings and repeat
policies, runs every seed of every cell, and aggregates per-cell success
rates and mean costs.

Grid files are flat ``key = value`` text; ``#`` starts a comment and
blank lines are ignored. ``GRID_KEYS`` names every key, the cell fields it
sets and how its text is read. ``targets`` is required. The axes
``targets``, ``noise`` (kind:rate pairs), ``frameworks``, ``learners`` and
``repeats`` (min:max pairs) take comma-separated entries and are crossed;
``seeds`` takes integers and inclusive ``a..b`` ranges, no seed twice. The
other keys are shared by all cells. A key left out is not passed, so the
default of ExperimentConfig, SamplerConfig or RepeatPolicy applies.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import random
from collections import ChainMap
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional, Sequence

from .eqtest import SamplerConfig
from .learners import KVLearner, LStarLearner, PruneRequested
from .mealy import DotParseError, MealyMachine, find_counterexample, parse_dot
from .obstree import MostFrequentTree, MostRecentTree
from .reviser import Reviser, select_final
from .sul import NOISE_KINDS, BudgetExhausted, NoiseModel, RepeatPolicy, SimulatedSystem
from .sul import majority_query  # noqa: F401 - perfbench/tracer.py wraps it here

FRAMEWORKS = ("mat", "ceal")
STRATEGIES = ("most_recent", "most_frequent")

_LEARNER_CLASSES = {"lstar_rs": LStarLearner, "kv": KVLearner}
LEARNER_NAMES = tuple(_LEARNER_CLASSES)

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
    """Every knob of one experiment cell; validated on construction.

    Its defaults, and those of the SamplerConfig and RepeatPolicy it holds,
    are the only ones: a grid key or ``ceal run`` flag left out takes them.
    """

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
        if self.noise_kind == "none" and self.noise_rate != 0.0:
            raise ValueError("noise kind 'none' takes no rate but 0")
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
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds repeats an entry")


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


def load_target(path: str | Path) -> MealyMachine:
    """Read and parse a DOT model file; each distinct text is parsed once.

    The parse is memoized by the file's text, not its path, so a rewritten
    file is parsed again, and a malformed one raises on every load. Loads
    of one text share one machine, which is safe because machines are
    frozen.
    """
    return _parse_target(Path(path).read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=64)
def _parse_target(text: str) -> MealyMachine:
    machine, _, _ = parse_dot(text)
    return machine


def run(cfg: ExperimentConfig, seed: int, target: Optional[MealyMachine] = None) -> RunResult:
    """One learning session: learner <-> Reviser <-> noisy system.

    The learner asks reviser.read directly. The Reviser majority-votes every
    word it asks the system per cfg.repeats in both frameworks, so their
    comparison isolates conflict handling. A conflict raises
    PruneRequested, from a membership query or reviser.eq alike, and this
    one handler decides what it means: ceal counts a prune and restarts
    the learner, and MAT (a Reviser without tree check, on a most_recent
    tree) ends the run unjudged as "collapse". The tree, the hypothesis
    log, the system's test and symbol counts and the Reviser's eq_symbols
    persist across restarts; the final model is selected from that log
    per cfg.selection, or is the latest hypothesis under MAT.
    An InconsistentTeacher from the learner propagates. Hitting the query
    cap ends the run, and the final model is still judged.
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
        system,
        cfg.repeats,
        cfg.sampler,
        random.Random(f"{seed}:sampler"),
        k_survive=cfg.k_survive,
        tree_check=not mat,
    )
    learner = _LEARNER_CLASSES[cfg.learner](target.inputs, target.outputs, reviser.read)
    terminated_by = "stability"
    prunes = 0
    try:
        while True:
            try:
                h = learner.build_hypothesis()
                verdict = reviser.eq(h)
                if verdict is None:
                    break
                learner.refine(verdict)
            except PruneRequested:
                if mat:
                    terminated_by = "collapse"
                    break
                prunes += 1
                learner.restart()
    except BudgetExhausted:
        terminated_by = "query_cap"
    final = None
    if reviser.log.latest is not None:
        final = select_final(reviser.log, "most_recent" if mat else cfg.selection)
    success = (
        terminated_by != "collapse"
        and final is not None
        and find_counterexample(final, target) is None
    )
    fraction = reviser.eq_symbols / system.symbols if system.symbols else 0.0
    states = final.n_states if final is not None else 0
    return RunResult(
        success, system.tests, system.symbols, fraction, states, prunes, terminated_by
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _cell_row(cfg: ExperimentConfig, results: Optional[Sequence[RunResult]]) -> dict:
    row = {
        "experiment": cfg.target,
        "framework": cfg.framework,
        "algorithm": cfg.learner,
        "repeats": f"{cfg.repeats.min_repeats}:{cfg.repeats.max_repeats}",
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


def _row_order(cfg: ExperimentConfig, row: dict) -> tuple:
    """Best cell first; ties go by the cell's settings, repeats by value."""
    rate = row["success_rate"]
    tests = row["test_count_mean"]
    return (
        rate is None,
        -(rate if rate is not None else 0.0),
        tests if tests is not None else math.inf,
        row["experiment"],
        cfg.framework,
        cfg.learner,
        (cfg.repeats.min_repeats, cfg.repeats.max_repeats),
        cfg.noise_kind,
        cfg.noise_rate,
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
    rows = []  # (cell, row)
    for cfg in cells:
        try:
            target = load_target(cfg.target)
        except (OSError, DotParseError):
            rows.append((cfg, _cell_row(cfg, None)))
            continue
        results = []
        for seed in cfg.seeds:
            result = run(cfg, seed, target)
            results.append(result)
            if on_result is not None:
                on_result(cfg, seed, result)
        rows.append((cfg, _cell_row(cfg, results)))
    rows.sort(key=lambda pair: _row_order(*pair))
    return [row for _, row in rows]


def _csv_cell(field: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and field != "noise_level":
        return f"{value:.2f}"
    return str(value)


def emit_report(rows: Sequence[dict], format: str = "csv") -> str:
    """Render aggregated rows as CSV or JSON; either text ends in one newline.

    CSV statistics are rounded to 2 decimals; the noise level is written in
    full, so distinct cells keep distinct keys.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for row in rows:
            writer.writerow([_csv_cell(f, row[f]) for f in REPORT_FIELDS])
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


def _pair(text: str, first: Callable, second: Callable) -> tuple:
    """'a:b' text read as (first(a), second(b))."""
    if text.count(":") != 1:
        raise ValueError(f"must be written as a:b, got {text!r}")
    left, right = text.split(":")
    return first(left.strip()), second(right.strip())


# Grid key -> (the field or fields one entry sets, parser of the entry's text).
# The sampler keys set SamplerConfig fields, the others ExperimentConfig's.
GRID_KEYS: dict[str, tuple] = {
    "targets": ("target", str),
    "noise": (("noise_kind", "noise_rate"), lambda text: _pair(text, str, float)),
    "frameworks": ("framework", str),
    "learners": ("learner", str),
    "repeats": ("repeats", lambda text: RepeatPolicy(*_pair(text, int, int))),
    "seeds": ("seeds", parse_seed_list),
    "update_strategy": ("update_strategy", str),
    "selection": ("selection", str),
    "k_survive": ("k_survive", int),
    "max_queries": ("max_queries", int),
    "mean_infix": ("mean_infix", float),
    "max_len": ("max_len", int),
}
_AXES = ("targets", "noise", "frameworks", "learners", "repeats")
_SAMPLER_KEYS = ("mean_infix", "max_len")


def _fields(key: str, text: str) -> dict:
    """The fields that one entry of a grid key sets; errors name the key."""
    fields, parse = GRID_KEYS[key]
    try:
        value = parse(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return dict(zip(fields, value)) if isinstance(fields, tuple) else {fields: value}


def expand_grid(
    options: dict[str, str], base_dir: Optional[Path] = None
) -> list[ExperimentConfig]:
    """Cross a parsed grid config into one ExperimentConfig per cell.

    Axes: targets x noise x frameworks x learners x repeats; an axis given
    as an empty list, or with two entries that read the same (``ceal,
    CEAL``), is rejected. Everything else is shared by all cells,
    and a key left out takes the ExperimentConfig default. Target paths
    resolve against base_dir; a parse error names its key.
    """
    if "targets" not in options:
        raise ValueError("grid config needs a 'targets' key")
    unknown = options.keys() - GRID_KEYS.keys()
    if unknown:
        raise ValueError(f"unknown grid config keys: {', '.join(sorted(unknown))}")
    axes = [
        [_fields(key, item) for item in _split_list(options[key])] if key in options else [{}]
        for key in _AXES
    ]
    for key, entries in zip(_AXES, axes):
        if not entries:
            raise ValueError(f"{key} is empty")
    shared, sampler = {}, {}
    for key, text in options.items():
        if key not in _AXES:
            (sampler if key in _SAMPLER_KEYS else shared).update(_fields(key, text))
    if sampler:
        shared["sampler"] = SamplerConfig(**sampler)
    if base_dir is not None:
        for entry in axes[0]:
            entry["target"] = str(Path(base_dir) / entry["target"])
    cells = [ExperimentConfig(**shared, **ChainMap(*cell)) for cell in itertools.product(*axes)]
    # Every entry of an axis shows up, normalized, in some cell's fields, so
    # fewer distinct values than entries means two entries read the same.
    for key, entries in zip(_AXES, axes):
        if len(entries) > 1 and len(set(map(attrgetter(*entries[0]), cells))) < len(entries):
            raise ValueError(f"{key} repeats an entry")
    return cells
