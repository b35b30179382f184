"""Query learning of Mealy machines that survives conflicting observations."""

from .eqtest import PreparedSampler, SamplerConfig, sample_word
from .harness import (
    ExperimentConfig,
    RunResult,
    emit_report,
    expand_grid,
    load_target,
    parse_grid_config,
    run,
    run_grid,
)
from .learners import InconsistentTeacher, KVLearner, LStarLearner, PruneRequested
from .mealy import (
    Alphabet,
    DotParseError,
    MealyMachine,
    Trace,
    Word,
    canonical_fingerprint,
    find_counterexample,
    minimize,
    parse_dot,
    random_machine,
    write_dot,
)
from .obstree import MostFrequentTree, MostRecentTree, conflicts
from .reviser import PRUNE, HypothesisLog, Reviser, select_final
from .sul import (
    BudgetExhausted,
    NoiseModel,
    RepeatPolicy,
    SimulatedSystem,
    TestMeter,
    majority_query,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BudgetExhausted",
    "DotParseError",
    "ExperimentConfig",
    "HypothesisLog",
    "InconsistentTeacher",
    "KVLearner",
    "LStarLearner",
    "MealyMachine",
    "MostFrequentTree",
    "MostRecentTree",
    "NoiseModel",
    "PRUNE",
    "PreparedSampler",
    "PruneRequested",
    "RepeatPolicy",
    "Reviser",
    "RunResult",
    "SamplerConfig",
    "SimulatedSystem",
    "TestMeter",
    "Trace",
    "Word",
    "canonical_fingerprint",
    "conflicts",
    "emit_report",
    "expand_grid",
    "find_counterexample",
    "load_target",
    "majority_query",
    "minimize",
    "parse_dot",
    "parse_grid_config",
    "random_machine",
    "run",
    "run_grid",
    "sample_word",
    "select_final",
    "write_dot",
]
