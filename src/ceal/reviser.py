"""The reviser: the conflict-aware middle layer between learner and system.

Every raw system trace is integrated into the observation tree before any
other use, and every answer handed upward is read back from the tree's
language, never from the system directly. When an integration changes the
tree's language non-additively the reviser raises PruneRequested, telling
the learner its internal state may rest on retracted answers. A learner
asking through ``read`` unwinds on it, so ``read`` is a teacher as it
stands. With ``collapse`` set the reviser is a classical MAT teacher over
the same tree: a conflict raises InconsistentTeacher instead, ending the
session, and equivalence queries get no free counterexamples from the tree.

The reviser also records every proposed hypothesis (up to language
equivalence) so a final model can be selected when a noisy run is cut off
by budget rather than by a clean termination. Within a session a hypothesis
is identified by its canonical minimal machine: minimize renumbers states
in BFS order, so two machines share a language exactly when their minimal
machines compare equal.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from . import mealy
from .eqtest import PreparedSampler, SamplerConfig
from .learners import InconsistentTeacher, PruneRequested
from .mealy import MealyMachine, Trace, Word
from .mealy import canonical_fingerprint  # noqa: F401 - perfbench/tracer.py wraps it here
from .obstree import MostFrequentTree, MostRecentTree
from .sul import SimulatedSystem


Tree = Union[MostRecentTree, MostFrequentTree]


class HypothesisLog:
    """Occurrence counts of proposed hypotheses, up to language equivalence.

    Each hypothesis is keyed by its canonical minimal machine, which record
    returns so the checks and the test that follow need not minimize again.
    A learner restarted after a prune mostly re-proposes machines it has
    proposed before, so the minimal machine is memoized per table, for as
    long as the log lives, i.e. one session. representatives keeps, per
    key, the first table proposed with that language.
    """

    def __init__(self) -> None:
        self.counts: dict[MealyMachine, int] = {}
        self.representatives: dict[MealyMachine, MealyMachine] = {}
        self.first_seen: dict[MealyMachine, int] = {}
        self.latest: Optional[MealyMachine] = None
        self.total = 0
        self._minimal: dict[MealyMachine, MealyMachine] = {}

    def record(self, h: MealyMachine) -> MealyMachine:
        minimal = self._minimal.get(h)
        if minimal is None:
            # via the module, where perfbench/tracer.py wraps minimize
            minimal = self._minimal[h] = mealy.minimize(h)
        self.latest = h
        self.total += 1
        if minimal not in self.counts:
            self.counts[minimal] = 0
            self.representatives[minimal] = h
            self.first_seen[minimal] = self.total
        self.counts[minimal] += 1
        return minimal


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
        key = max(log.counts, key=lambda m: (log.counts[m], log.first_seen[m]))
        return log.representatives[key]
    raise ValueError(f"unknown selection strategy {strategy!r}")


class Reviser:
    """Answers membership and equivalence queries through an observation tree.

    The tree is the single source of truth for answers; the system is only
    consulted for words the tree cannot answer, and for equivalence testing.
    Under collapse a conflict raises InconsistentTeacher rather than
    pruning, and eq skips the tree check, so every counterexample costs
    system tests, as with a classical teacher.
    """

    def __init__(
        self,
        tree: Tree,
        system: SimulatedSystem,
        sampler_cfg: SamplerConfig,
        rng: random.Random,
        k_survive: int = 200,
        revision_ratio: float = 0.0,
        collapse: bool = False,
    ) -> None:
        if not (0.0 <= revision_ratio <= 1.0):
            raise ValueError("revision_ratio must lie in [0,1]")
        if k_survive < 1:
            raise ValueError("k_survive must be positive")
        self.tree = tree
        self.system = system
        self.sampler_cfg = sampler_cfg
        self.rng = rng
        self.k_survive = k_survive
        self.revision_ratio = revision_ratio
        self.collapse = collapse
        self.prunes = 0
        self._memo: dict[MealyMachine, int] = {}  # minimal machine -> version verified against
        self._revision_cursor = 0

    def apply(self, trace: Trace) -> Word:
        """Integrate one system trace and return its outputs.

        If it changed settled answers, count a prune and raise
        PruneRequested; under collapse raise InconsistentTeacher instead.
        """
        if self.tree.update(trace):
            if self.collapse:
                raise InconsistentTeacher("an observation contradicts a stored answer")
            self.prunes += 1
            raise PruneRequested()
        return trace.outputs

    def read(self, word: Word) -> Word:
        """Membership answer: from the tree if stored, else one system probe.

        A conflicting probe raises as in apply.
        """
        stored = self.tree.lookup(word)
        if stored is not None:
            return stored
        return self.apply(self.system.probe(word, phase="mq"))

    def check(
        self, h: MealyMachine, minimal: Optional[MealyMachine] = None
    ) -> Optional[Trace]:
        """Scan the tree for a stored trace the hypothesis mislabels.

        Costs zero system tests. Scans are incremental: once a hypothesis
        (up to language equivalence) has been verified against the whole
        tree, later scans cover only the parts touched since. minimal is
        minimize(h) when the caller already has it.
        """
        if minimal is None:
            minimal = mealy.minimize(h)
        since = self._memo.get(minimal, -1)
        found = self.tree.find_disagreement(h, since=since)
        if found is None:
            self._memo[minimal] = self.tree.version
        return found

    def _draw_word(self, sampler: PreparedSampler) -> Word:
        if self.revision_ratio > 0.0 and self.rng.random() < self.revision_ratio:
            old = self.tree.oldest_maximal_trace(after_uid=self._revision_cursor)
            if old is None and self._revision_cursor:
                self._revision_cursor = 0
                old = self.tree.oldest_maximal_trace(after_uid=0)
            if old is not None and old[0].inputs:
                self._revision_cursor = old[1]
                return old[0].inputs
        return sampler.draw(self.rng)

    def test(
        self, h: MealyMachine, minimal: Optional[MealyMachine] = None
    ) -> Optional[Trace]:
        """Probe sampled words until a counterexample, a conflict, or survival.

        Requires a hypothesis consistent with the tree, unless under
        collapse, which never checks the tree. A conflict raises as in
        apply. Returns a tree-confirmed counterexample trace on
        disagreement, and None once k_survive consecutive probes produced
        neither. minimal is as for check, and is computed once here if not
        given.
        """
        if minimal is None:
            minimal = mealy.minimize(h)
        if not self.collapse and self.check(h, minimal) is not None:
            raise RuntimeError("test() requires a hypothesis consistent with the tree")
        sampler = PreparedSampler(h, self.sampler_cfg, minimal)
        survived = 0
        while survived < self.k_survive:
            word = self._draw_word(sampler)
            trace = self.system.probe(word, phase="eq")
            self.apply(trace)
            confirmed = self.tree.lookup(trace.inputs)
            if confirmed is not None and h.run(trace.inputs) != confirmed:
                return Trace(trace.inputs, confirmed)
            survived += 1
        return None

    def eq(self, h: MealyMachine, log: HypothesisLog) -> Optional[Trace]:
        """Equivalence query: record, check against the tree, then test.

        Never answers "yes": the None verdict only means the hypothesis
        survived the configured amount of testing. A conflict raises as in
        apply. Under collapse the tree check is skipped.
        """
        minimal = log.record(h)
        if not self.collapse:
            found = self.check(h, minimal)
            if found is not None:
                return found
        return self.test(h, minimal)
