"""The reviser: the conflict-aware middle layer between learner and system.

Every raw system trace is integrated into the observation tree before any
other use, and every answer handed upward is read back from the tree's
language, never from the system directly. When an integration changes the
tree's language non-additively the reviser emits the PRUNE signal, telling
the learner its internal state may rest on retracted answers. With
``collapse`` set the reviser is a classical MAT teacher over the same tree:
a conflict ends the session instead, and equivalence queries get no free
counterexamples from the tree.

The reviser also records every proposed hypothesis (up to language
equivalence) so a final model can be selected when a noisy run is cut off
by budget rather than by a clean termination.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .eqtest import PreparedSampler, SamplerConfig
from .learners import InconsistentTeacher
from .mealy import MealyMachine, Trace, Word, canonical_fingerprint, canonical_form
from .obstree import MostFrequentTree, MostRecentTree
from .sul import SimulatedSystem


class _PruneSignal:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Prune"


PRUNE = _PruneSignal()

QueryAnswer = Union[Word, _PruneSignal]

Tree = Union[MostRecentTree, MostFrequentTree]


class HypothesisLog:
    """Occurrence counts of proposed hypotheses, up to language equivalence.

    A learner restarted after a prune mostly re-proposes machines it has
    proposed before, so the log memoizes each machine's fingerprint. The
    memo is keyed by the machine itself: MealyMachine hashes and compares by
    its alphabets, initial state and tables, which are all the fingerprint
    depends on. It lives as long as the log, i.e. one session. Next to each
    fingerprint the log keeps the canonical minimal machine it digests, in
    `minimal`, so the equivalence test that follows need not minimize again.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.representatives: dict[str, MealyMachine] = {}
        self.first_seen: dict[str, int] = {}
        self.latest: Optional[MealyMachine] = None
        self.total = 0
        self.minimal: dict[str, MealyMachine] = {}
        self._fingerprints: dict[MealyMachine, str] = {}

    def record(self, h: MealyMachine) -> str:
        fp = self._fingerprints.get(h)
        if fp is None:
            fp, minimal = canonical_form(h)
            self._fingerprints[h] = fp
            self.minimal[fp] = minimal
        self.latest = h
        self.total += 1
        if fp not in self.counts:
            self.counts[fp] = 0
            self.representatives[fp] = h
            self.first_seen[fp] = self.total
        self.counts[fp] += 1
        return fp


def select_final(log: HypothesisLog, strategy: str) -> MealyMachine:
    """Pick the run's final model: the latest, or the most frequent one.

    Frequency ties break toward the fingerprint first seen most recently.
    """
    if log.latest is None:
        raise ValueError("no hypotheses were recorded")
    if strategy == "most_recent":
        return log.latest
    if strategy == "most_frequent":
        fp = max(log.counts, key=lambda f: (log.counts[f], log.first_seen[f]))
        return log.representatives[fp]
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
        self._memo: dict[str, int] = {}  # fingerprint -> version verified against
        self._revision_cursor = 0

    def apply(self, trace: Trace) -> QueryAnswer:
        """Integrate one system trace; PRUNE iff it changed settled answers.

        Under collapse a conflict raises InconsistentTeacher instead.
        """
        if self.tree.update(trace):
            if self.collapse:
                raise InconsistentTeacher("an observation contradicts a stored answer")
            self.prunes += 1
            return PRUNE
        return trace.outputs

    def read(self, word: Word) -> QueryAnswer:
        """Membership answer: from the tree if stored, else one system probe."""
        stored = self.tree.lookup(word)
        if stored is not None:
            return stored
        return self.apply(self.system.probe(word, phase="mq"))

    def check(self, h: MealyMachine, fp: Optional[str] = None) -> Optional[Trace]:
        """Scan the tree for a stored trace the hypothesis mislabels.

        Costs zero system tests. Scans are incremental: once a hypothesis
        (up to language equivalence) has been verified against the whole
        tree, later scans cover only the parts touched since. fp is h's
        canonical fingerprint when the caller already has it.
        """
        if fp is None:
            fp = canonical_fingerprint(h)
        since = self._memo.get(fp, -1)
        found = self.tree.find_disagreement(h, since=since)
        if found is None:
            self._memo[fp] = self.tree.version
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
        self,
        h: MealyMachine,
        fp: Optional[str] = None,
        minimal: Optional[MealyMachine] = None,
    ) -> Union[Trace, _PruneSignal, None]:
        """Probe sampled words until a counterexample, a conflict, or survival.

        Requires a hypothesis consistent with the tree, unless under
        collapse, which never checks the tree. Returns PRUNE on conflict (or
        raises, under collapse), a tree-confirmed counterexample trace on
        disagreement, and None once k_survive consecutive probes produced
        neither. fp is as for check; minimal is h's canonical minimal
        machine when the caller already has it.
        """
        if not self.collapse and self.check(h, fp) is not None:
            raise RuntimeError("test() requires a hypothesis consistent with the tree")
        sampler = PreparedSampler(h, self.sampler_cfg, minimal)
        survived = 0
        while survived < self.k_survive:
            word = self._draw_word(sampler)
            trace = self.system.probe(word, phase="eq")
            if self.apply(trace) is PRUNE:
                return PRUNE
            confirmed = self.tree.lookup(trace.inputs)
            if confirmed is not None and h.run(trace.inputs) != confirmed:
                return Trace(trace.inputs, confirmed)
            survived += 1
        return None

    def eq(self, h: MealyMachine, log: HypothesisLog) -> Union[Trace, _PruneSignal, None]:
        """Equivalence query: record, check against the tree, then test.

        Never answers "yes": the None verdict only means the hypothesis
        survived the configured amount of testing. Under collapse the tree
        check is skipped.
        """
        fp = log.record(h)
        if not self.collapse:
            found = self.check(h, fp)
            if found is not None:
                return found
        return self.test(h, fp, log.minimal[fp])
