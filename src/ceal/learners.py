"""Restartable membership-query learners: L* (Rivest-Schapire) and KV.

A learner talks to exactly one dependency: a teacher callable mapping an
input word to its full output word, such as Reviser.read. The teacher may
raise PruneRequested from inside any query to signal that previously given
answers were retracted; learners are written so that an unwind at a query
boundary is always recoverable through restart(), which returns the learner
to its freshly-constructed state. Answers are memoized per life because the
answering layer guarantees them stable between restarts.

Both learners produce complete Mealy machines and grow them monotonically:
refine(cex) adds at least one distinguishing experiment, so the next
hypothesis either has more states or corrects the counterexample.

A rebuild repeats no work done earlier in the same life. L* caches each
word's row and closes the table in one forward scan over S. The cache is
exact because within a life the memo never changes and E only grows by
appending, so a cached row lacks only the columns appended since it was
computed.

KV keeps, on each leaf, its emission row and the leaf each one-symbol
extension of its access word sifted to, with that leaf's split count at the
time. A build re-sifts an extension only when its cached successor has
been split since, and asks and sifts in full only for leaves it has not
built before. The shortcut is exact for the same reasons: the emission row
is read from the memo, and the classification tree only gains nodes (a
split replaces a leaf in place by an inner node that keeps it as a child),
so a leaf that was never split is where a new sift of the extension would
end, on memo hits alone. The teacher sees the same calls in the same order
as without the caches. restart() drops them with the memo, since it
replaces the whole classification tree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Union

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
    """Common shell: teacher access with per-life memoization, restart."""

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.teacher = teacher
        self._memo: dict[Word, Word] = {}
        self._hyp: Optional[MealyMachine] = None
        self._reset()

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
        """Discard all learned state; the next build starts from scratch."""
        self._memo.clear()
        self._hyp = None
        self._reset()

    @abstractmethod
    def _reset(self) -> None: ...

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

    S: list[Word]
    E: list[Word]

    def _reset(self) -> None:
        self.S = [()]
        self.E = [(a,) for a in range(len(self.inputs))]
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
        state_after = [h.initial]
        for a in u:
            state_after.append(h.transitions[state_after[-1]][a])

        def disagrees(k: int) -> bool:
            s_k = self.S[state_after[k]]
            actual = self._ask(s_k + u[k:])[len(s_k):]
            predicted = h.run(u[k:], start=state_after[k])
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


class _Leaf:
    __slots__ = ("access", "parent", "splits", "emissions", "successors")

    def __init__(self, access: Word, parent: Optional["_Inner"]) -> None:
        self.access = access
        self.parent = parent
        # bumped by every split of this leaf
        self.splits = 0
        # filled by the first build that reaches this leaf: the emission row,
        # and per input the successor leaf with its split count at the time
        self.emissions: tuple[int, ...] = ()
        self.successors: Optional[list[tuple["_Leaf", int]]] = None


class _Inner:
    __slots__ = ("label", "children", "parent")

    def __init__(self, label: Word, parent: Optional["_Inner"]) -> None:
        self.label = label
        self.children: dict[Word, Union[_Leaf, "_Inner"]] = {}
        self.parent = parent


class KVLearner(Learner):
    """Classification-tree learner, lifted to Mealy machines.

    Inner nodes hold distinguishing input words; edges are keyed by the
    output word the distinguisher produces after the access word being
    sifted. Leaves hold access words, one per discovered state.
    """

    root: Union[_Leaf, _Inner]

    def _reset(self) -> None:
        self.root = _Leaf((), None)
        self._sift_created = False

    def _tail(self, word: Word, suffix: Word) -> Word:
        return self._ask(word + suffix)[len(word):]

    def sift(self, word: Word) -> _Leaf:
        """Classify a word to a leaf, materializing one if its answers are new."""
        self._sift_created = False
        node = self.root
        while isinstance(node, _Inner):
            t = self._tail(word, node.label)
            child = node.children.get(t)
            if child is None:
                child = node.children[t] = _Leaf(word, node)
                self._sift_created = True
            node = child
        return node

    def build_hypothesis(self) -> MealyMachine:
        ni = len(self.inputs)
        init = self.sift(())
        order: list[_Leaf] = [init]
        index: dict[int, int] = {id(init): 0}
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
                    succ = self.sift(w)
                    successors.append((succ, succ.splits))
                leaf.emissions = tuple(erow)
                leaf.successors = successors
            else:
                for a in range(ni):
                    succ, splits = successors[a]
                    if succ.splits != splits:
                        succ = self.sift(leaf.access + (a,))
                        successors[a] = (succ, succ.splits)
            trow = []
            for succ, _ in successors:
                j = index.get(id(succ))
                if j is None:
                    j = index[id(succ)] = len(order)
                    order.append(succ)
                trow.append(j)
            transitions.append(tuple(trow))
            emissions.append(leaf.emissions)
        m = MealyMachine(self.inputs, self.outputs, 0, tuple(transitions), tuple(emissions))
        self._hyp = m
        self._leaves = order
        return m

    def _split(self, leaf: _Leaf, suffix: Word, new_access: Word) -> None:
        t_old = self._tail(leaf.access, suffix)
        t_new = self._tail(new_access, suffix)
        if t_old == t_new:
            raise InconsistentTeacher("split suffix fails to distinguish the two words")
        inner = _Inner(suffix, leaf.parent)
        if leaf.parent is None:
            self.root = inner
        else:
            for key, child in leaf.parent.children.items():
                if child is leaf:
                    leaf.parent.children[key] = inner
                    break
        inner.children[t_old] = leaf
        inner.children[t_new] = _Leaf(new_access, inner)
        leaf.parent = inner
        leaf.splits += 1

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
        state_after = [h.initial]
        for a in u:
            state_after.append(h.transitions[state_after[-1]][a])
        for j in range(1, m + 1):
            hyp_leaf = self._leaves[state_after[j]]
            real_leaf = self.sift(u[:j])
            if self._sift_created:
                return  # the sift itself discovered a new state
            if real_leaf is not hyp_leaf:
                prev = self._leaves[state_after[j - 1]]
                a = u[j - 1]
                w1, w2 = u[:j], prev.access + (a,)
                node = self.root
                while isinstance(node, _Inner):
                    t1 = self._tail(w1, node.label)
                    t2 = self._tail(w2, node.label)
                    if t1 != t2:
                        self._split(prev, (a,) + node.label, u[:j - 1])
                        return
                    node = node.children[t1]
                raise InconsistentTeacher("diverging sifts share every distinguisher")
        # every prefix classifies as the hypothesis says; the mismatch symbol
        # itself then separates the reached state's access word from u[:m]
        self._split(self._leaves[state_after[m]], (u[m],), u[:m])
