"""The reviser: the conflict-aware middle layer between learner and system.

The reviser majority-votes every word it asks the system under its
RepeatPolicy. Every voted answer is integrated into the observation tree,
under the word that was asked, before any other use, and every answer
handed upward is read back from the tree's language, never from the
system directly. When an integration changes the tree's language
non-additively the reviser raises PruneRequested, telling the learner its
internal state may rest on retracted answers. A learner asking through
``read`` unwinds on it, so ``read`` is a teacher as it stands. What a
conflict means is the caller's decision. An equivalence query first scans
the whole tree once for a stored trace the hypothesis mislabels, at no
test cost. With ``tree_check`` off the reviser is a classical MAT teacher
over the same tree: equivalence queries get no free counterexamples from
the tree.

The reviser also logs every proposed hypothesis (up to language
equivalence) so a final model can be selected when a noisy run is cut off
by budget rather than by a clean termination. Within a session a hypothesis
is identified by its canonical minimal machine: minimize renumbers states
in BFS order, so two machines share a language exactly when their minimal
machines compare equal.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from . import mealy, sul
from .eqtest import PreparedSampler, SamplerConfig
from .learners import PruneRequested
from .mealy import MealyMachine, Trace, Word
from .mealy import canonical_fingerprint  # noqa: F401 - perfbench/tracer.py wraps it here
from .obstree import MostFrequentTree, MostRecentTree
from .sul import RepeatPolicy, SimulatedSystem


Tree = Union[MostRecentTree, MostFrequentTree]


class HypothesisLog:
    """Occurrence counts of proposed hypotheses, up to language equivalence.

    Each hypothesis is keyed by its canonical minimal machine, which
    canonical memoizes per table for as long as the log lives, i.e. one
    session: a learner restarted after a prune mostly re-proposes machines
    it has proposed before, and the reviser's test prepares its sampler from
    the same machine. counts keeps its keys in first-seen order; representatives
    keeps, per key, the first table proposed with that language.
    """

    def __init__(self) -> None:
        self.counts: dict[MealyMachine, int] = {}
        self.representatives: dict[MealyMachine, MealyMachine] = {}
        self.latest: Optional[MealyMachine] = None
        self._minimal: dict[MealyMachine, MealyMachine] = {}

    def canonical(self, h: MealyMachine) -> MealyMachine:
        """minimize(h), computed once per distinct table."""
        minimal = self._minimal.get(h)
        if minimal is None:
            # via the module, where perfbench/tracer.py wraps minimize
            minimal = self._minimal[h] = mealy.minimize(h)
        return minimal

    def record(self, h: MealyMachine) -> None:
        minimal = self.canonical(h)
        self.latest = h
        if minimal not in self.counts:
            self.counts[minimal] = 0
            self.representatives[minimal] = h
        self.counts[minimal] += 1


def select_final(log: HypothesisLog, strategy: str) -> MealyMachine:
    """Pick the run's final model: the latest, or the most frequent one.

    Frequency ties break toward the language first seen most recently. The
    result is a table the learner proposed, not its minimal machine.
    """
    if log.latest is None:
        raise ValueError("no hypotheses were recorded")
    if strategy == "most_recent":
        return log.latest
    if strategy == "most_frequent":
        # max keeps the first of equal counts, so scan latest first-seen first
        key = max(reversed(log.counts), key=log.counts.__getitem__)
        return log.representatives[key]
    raise ValueError(f"unknown selection strategy {strategy!r}")


class Reviser:
    """Answers membership and equivalence queries through an observation tree.

    The tree is the single source of truth for answers; the system is only
    consulted, one vote under policy per word, for words the tree cannot
    answer and for equivalence testing. Without tree_check, test skips the
    tree check, so every counterexample costs system tests, as with a
    classical teacher. A Reviser serves one session: log holds every
    hypothesis eq was asked about, and test prepares its sampler from the
    log's canonical minimal machine. The system counts every test and
    symbol; eq_symbols counts the symbols that test spent.
    """

    def __init__(
        self,
        tree: Tree,
        system: SimulatedSystem,
        policy: RepeatPolicy,
        sampler_cfg: SamplerConfig,
        rng: random.Random,
        k_survive: int,
        tree_check: bool = True,
    ) -> None:
        if k_survive < 1:
            raise ValueError("k_survive must be positive")
        self.tree = tree
        self.system = system
        self.policy = policy
        self.sampler_cfg = sampler_cfg
        self.rng = rng
        self.k_survive = k_survive
        self.tree_check = tree_check
        self.log = HypothesisLog()
        self.eq_symbols = 0

    def apply(self, trace: Trace) -> Word:
        """Integrate one trace and return its outputs.

        If it changed settled answers, raise PruneRequested.
        """
        if self.tree.update(trace):
            raise PruneRequested()
        return trace.outputs

    def read(self, word: Word) -> Word:
        """Membership answer: from the tree if stored, else one voted query.

        A conflicting answer raises as in apply.
        """
        stored = self.tree.lookup(word)
        if stored is not None:
            return stored
        # via the module, where perfbench/tracer.py wraps majority_query
        return self.apply(Trace(word, sul.majority_query(self.system, word, self.policy)))

    def check(self, h: MealyMachine) -> Optional[Trace]:
        """Scan the whole tree for a stored trace the hypothesis mislabels.

        Costs zero system tests.
        """
        return self.tree.find_disagreement(h)

    def test(self, h: MealyMachine) -> Optional[Trace]:
        """Vote sampled words until a counterexample, a conflict, or survival.

        With tree_check, check runs first, and a stored trace it finds is
        returned at no test cost; without tree_check the tree is never
        scanned. A conflict raises as in apply. Returns a tree-confirmed
        counterexample trace on disagreement, and None once k_survive
        consecutive voted words produced neither. A MostRecentTree holds
        every trace its update accepts, so its answer is the voted word; a
        MostFrequentTree is read back, as a heavier stored branch may keep
        the selection. Every symbol the system spends during the call adds
        to eq_symbols, also when a conflict or BudgetExhausted cuts it short.
        """
        if self.tree_check:
            found = self.check(h)
            if found is not None:
                return found
        sampler = PreparedSampler(self.log.canonical(h), self.sampler_cfg)
        read_back = isinstance(self.tree, MostFrequentTree)
        survived = 0
        spent_before = self.system.symbols
        try:
            while survived < self.k_survive:
                word = sampler.draw(self.rng)
                voted = sul.majority_query(self.system, word, self.policy)
                confirmed = self.apply(Trace(word, voted))
                if read_back:
                    confirmed = self.tree.lookup(word)
                if confirmed is not None and h.run(word) != confirmed:
                    return Trace(word, confirmed)
                survived += 1
            return None
        finally:
            self.eq_symbols += self.system.symbols - spent_before

    def eq(self, h: MealyMachine) -> Optional[Trace]:
        """Equivalence query: record h in the log, then test it.

        Never answers "yes": the None verdict only means the hypothesis
        survived the configured amount of testing. A conflict raises as in
        apply. Without tree_check the tree check is skipped.
        """
        self.log.record(h)
        return self.test(h)
