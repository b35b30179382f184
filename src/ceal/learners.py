"""Restartable membership-query learners: L* (Rivest-Schapire) and KV.

A learner talks to exactly one dependency: a teacher callable mapping an
input word to its full output word, such as Reviser.read. The teacher may
raise PruneRequested from inside any query to signal that previously given
answers were retracted; learners are written so that an unwind at a query
boundary is always recoverable through restart(), which re-runs the
constructor. Answers are memoized per life because the answering layer
guarantees them stable between restarts.

Both learners produce complete Mealy machines and grow them monotonically:
refine(cex) adds at least one distinguishing experiment, so the next
hypothesis either has more states or corrects the counterexample.

A rebuild repeats no work done earlier in the same life. L* caches each
word's row and closes the table in one forward scan over S. The cache is
exact because within a life the memo never changes and E only grows by
appending, so a cached row lacks only the columns appended since it was
computed.

KV keeps, on each leaf, its emission row and the node each one-symbol
extension of its access word sifted to. A split turns the leaf inner in
place and hands both caches to the new leaf for its access word. A build
re-sifts an extension only when its cached successor is no longer a leaf,
and asks and sifts in full only for leaves it has not built before. This
is exact: the emission row is read from the memo, and the tree only gains
nodes, so a new sift would end at a successor that is still a leaf, on
memo hits alone. The teacher sees the same calls in the same order as
without the caches. restart() drops them with the memo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

from .mealy import Alphabet, MealyMachine, Trace, Word

TeacherFn = Callable[[Word], Word]


class PruneRequested(Exception):
    """A conflict retracted previous answers: ceal restarts the learner, MAT ends the run."""


class InconsistentTeacher(RuntimeError):
    """Teacher answers fit no single machine.

    Only learners raise it, at points unreachable while the teacher
    answers from one fixed language; reaching them means earlier and later
    answers contradict each other (e.g. a voting teacher over a noisy system).
    """


class Learner(ABC):
    """Common shell: teacher access with per-life memoization, restart.

    A learner is __init__(inputs, outputs, teacher), build_hypothesis and
    refine; restart() re-runs __init__, which sets up all learned state.
    """

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.teacher = teacher
        self._memo: dict[Word, Word] = {}
        self._hyp: Optional[MealyMachine] = None

    def _ask(self, word: Word) -> Word:
        got = self._memo.get(word)
        if got is None:
            got = self.teacher(word)
            if len(got) != len(word):
                raise RuntimeError(f"teacher answered {len(got)} symbols to a "
                                   f"{len(word)}-symbol query")
            self._memo[word] = got
        return got

    def restart(self) -> None:
        """Discard all learned state by re-running the constructor."""
        self.__init__(self.inputs, self.outputs, self.teacher)  # type: ignore[misc]

    @abstractmethod
    def build_hypothesis(self) -> MealyMachine: ...

    @abstractmethod
    def refine(self, cex: Trace) -> None: ...


class LStarLearner(Learner):
    """Observation-table learner with binary-search counterexample handling.

    The table keeps access words S (pairwise-distinct rows, so no
    consistency phase is needed) and suffix columns E, seeded with every
    single input symbol so emissions can always be read off the table.
    """

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        super().__init__(inputs, outputs, teacher)
        self.S: list[Word] = [()]
        self.E: list[Word] = [(a,) for a in range(len(inputs))]
        self._rows: dict[Word, tuple[Word, ...]] = {}

    def _row(self, s: Word) -> tuple[Word, ...]:
        """The row of s over E, cached per life and extended as E grows."""
        row = self._rows.get(s, ())
        if len(row) < len(self.E):
            n = len(s)
            row += tuple(self._ask(s + e)[n:] for e in self.E[len(row):])
            self._rows[s] = row
        return row

    def build_hypothesis(self) -> MealyMachine:
        S = self.S
        ni = len(self.inputs)
        index = {self._row(s): i for i, s in enumerate(S)}
        transitions = []
        emissions = []
        # close in one scan: an extension whose row matches no S row joins
        # S at the end, so the scan reaches it later
        i = 0
        while i < len(S):
            s = S[i]
            trow = []
            for a in range(ni):
                w = s + (a,)
                r = self._row(w)
                j = index.get(r)
                if j is None:
                    j = index[r] = len(S)
                    S.append(w)
                trow.append(j)
            transitions.append(tuple(trow))
            emissions.append(tuple(col[0] for col in self._row(s)[:ni]))
            i += 1
        m = MealyMachine(self.inputs, self.outputs, 0, tuple(transitions), tuple(emissions))
        self._hyp = m
        return m

    def refine(self, cex: Trace) -> None:
        """Extract one distinguishing suffix by binary search over the cex.

        Uses O(log |cex|) teacher queries: the endpoints need none (position
        0 is the counterexample itself, position n trivially agrees).
        """
        h = self._hyp
        if h is None:
            raise RuntimeError("refine called before any hypothesis was built")
        u = cex.inputs
        n = len(u)
        if n == 0 or h.run(u) == cex.outputs:
            raise RuntimeError("refine called with a non-counterexample")
        visited = h.states(u)

        def disagrees(k: int) -> bool:
            s_k = self.S[visited[k]]
            actual = self._ask(s_k + u[k:])[len(s_k):]
            predicted = h.run(u[k:], start=visited[k])
            return actual != predicted

        if not disagrees(0):
            raise InconsistentTeacher("teacher answers no longer refute the hypothesis")
        lo, hi = 0, n  # position n holds trivially: both tails are empty
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if disagrees(mid):
                lo = mid
            else:
                hi = mid
        suffix = u[lo + 1:]
        if not suffix or suffix in self.E:
            raise InconsistentTeacher("refinement produced no new distinguishing suffix")
        self.E.append(suffix)


class _Node:
    """A classification-tree node: a leaf while `children` is None.

    A leaf holds an access word and, once a build reaches it, the emission
    row and the successor node of each one-symbol extension. A split turns
    it inner: it gains a distinguishing `label` and children keyed by the
    output word that label produces.
    """

    __slots__ = ("access", "label", "children", "emissions", "successors")
    label: Word

    def __init__(self, access: Word) -> None:
        self.access = access
        self.children: Optional[dict[Word, _Node]] = None
        self.emissions: tuple[int, ...] = ()
        self.successors: Optional[list[_Node]] = None


class KVLearner(Learner):
    """Classification-tree learner, lifted to Mealy machines.

    Inner nodes hold distinguishing input words; edges are keyed by the
    output word the distinguisher produces after the access word being
    sifted. Leaves hold access words, one per discovered state. A split
    turns a leaf inner in place, so the root is never replaced.
    """

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        super().__init__(inputs, outputs, teacher)
        self.root = _Node(())
        self._sift_created = False

    def _tail(self, word: Word, suffix: Word) -> Word:
        return self._ask(word + suffix)[len(word):]

    def sift(self, word: Word) -> _Node:
        """Classify a word to a leaf, materializing one if its answers are new."""
        self._sift_created = False
        node = self.root
        while node.children is not None:
            t = self._tail(word, node.label)
            child = node.children.get(t)
            if child is None:
                child = node.children[t] = _Node(word)
                self._sift_created = True
            node = child
        return node

    def build_hypothesis(self) -> MealyMachine:
        ni = len(self.inputs)
        init = self.sift(())
        order: list[_Node] = [init]
        index: dict[_Node, int] = {init: 0}
        transitions: list[tuple[int, ...]] = []
        emissions: list[tuple[int, ...]] = []
        i = 0
        while i < len(order):
            leaf = order[i]
            i += 1
            successors = leaf.successors
            if successors is None:
                erow = []
                successors = []
                for a in range(ni):
                    w = leaf.access + (a,)
                    erow.append(self._ask(w)[-1])
                    successors.append(self.sift(w))
                leaf.emissions = tuple(erow)
                leaf.successors = successors
            else:
                for a in range(ni):
                    if successors[a].children is not None:
                        successors[a] = self.sift(leaf.access + (a,))
            trow = []
            for succ in successors:
                j = index.get(succ)
                if j is None:
                    j = index[succ] = len(order)
                    order.append(succ)
                trow.append(j)
            transitions.append(tuple(trow))
            emissions.append(leaf.emissions)
        m = MealyMachine(self.inputs, self.outputs, 0, tuple(transitions), tuple(emissions))
        self._hyp = m
        self._leaves = order
        return m

    def _split(self, leaf: _Node, suffix: Word, new_access: Word) -> None:
        t_old = self._tail(leaf.access, suffix)
        t_new = self._tail(new_access, suffix)
        if t_old == t_new:
            raise InconsistentTeacher("split suffix fails to distinguish the two words")
        old = _Node(leaf.access)
        old.emissions, old.successors = leaf.emissions, leaf.successors
        leaf.label = suffix
        leaf.children = {t_old: old, t_new: _Node(new_access)}
        leaf.emissions, leaf.successors = (), None

    def refine(self, cex: Trace) -> None:
        """Split the first leaf whose classification the counterexample breaks."""
        h = self._hyp
        if h is None:
            raise RuntimeError("refine called before any hypothesis was built")
        u = cex.inputs
        predicted = h.run(u)
        mismatches = [k for k in range(len(u)) if predicted[k] != cex.outputs[k]]
        if not mismatches:
            raise RuntimeError("refine called with a non-counterexample")
        m = mismatches[0]
        visited = h.states(u)
        for j in range(1, m + 1):
            hyp_leaf = self._leaves[visited[j]]
            real_leaf = self.sift(u[:j])
            if self._sift_created:
                return  # the sift itself discovered a new state
            if real_leaf is not hyp_leaf:
                prev = self._leaves[visited[j - 1]]
                a = u[j - 1]
                w1, w2 = u[:j], prev.access + (a,)
                node = self.root
                while node.children is not None:
                    t1 = self._tail(w1, node.label)
                    t2 = self._tail(w2, node.label)
                    if t1 != t2:
                        self._split(prev, (a,) + node.label, u[:j - 1])
                        return
                    node = node.children[t1]
                raise InconsistentTeacher("diverging sifts share every distinguisher")
        # every prefix classifies as the hypothesis says; the mismatch symbol
        # itself then separates the reached state's access word from u[:m]
        self._split(self._leaves[visited[m]], (u[m],), u[:m])
