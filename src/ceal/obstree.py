"""Observation trees that absorb contradictory observations.

Two tree flavours store a stream of traces from a possibly-noisy system and
expose a deterministic lookup language:

* MostRecentTree keeps exactly one branch per (node, input); a contradicting
  observation replaces the old subtree, so the latest version of events wins.
* MostFrequentTree keeps every branch with an observation count per node; the
  lookup follows, per (node, input), the entry with the strictly greatest
  count, ties resolved toward the most recently observed entry.

`update` reports whether the observation changed the stored language
non-additively (some previously-answered word now answers differently or not
at all). That flag is the trees' conflict signal: callers treat it as "your
previous answers may be invalid".

Both trees carry monotone version stamps on their nodes so that a consistency
scan can skip subtrees untouched since an earlier scan; see find_disagreement.
"""

from __future__ import annotations

from typing import Optional

from .mealy import MealyMachine, Trace, Word


def conflicts(t1: Trace, t2: Trace) -> bool:
    """True when some common input prefix of the traces has differing outputs."""
    for i1, o1, i2, o2 in zip(t1.inputs, t1.outputs, t2.inputs, t2.outputs):
        if i1 != i2:
            return False
        if o1 != o2:
            return True
    return False


class _RNode:
    __slots__ = ("uid", "edges", "stamp")

    def __init__(self, uid: int, stamp: int) -> None:
        self.uid = uid
        self.edges: dict[int, tuple[_RNode, int]] = {}
        self.stamp = stamp


class MostRecentTree:
    """Deterministic observation tree; contradictions prune the old branch."""

    def __init__(self) -> None:
        self.version = 0
        self._uids = 0
        self.root = _RNode(self._next_uid(), 0)
        self.n_nodes = 1

    def _next_uid(self) -> int:
        self._uids += 1
        return self._uids

    def lookup(self, word: Word) -> Optional[Word]:
        """Stored output word for `word`, or None where the branch ends early."""
        node = self.root
        out = []
        for a in word:
            edge = node.edges.get(a)
            if edge is None:
                return None
            node, o = edge[0], edge[1]
            out.append(o)
        return tuple(out)

    def update(self, trace: Trace) -> bool:
        """Store one observation; True iff the stored language shrank somewhere.

        A mismatching output on an existing edge discards the whole old
        subtree below that edge and is the only non-additive case.
        """
        if len(trace.inputs) != len(trace.outputs):
            raise ValueError("trace input and output words differ in length")
        self.version += 1
        version = self.version
        conflicted = False
        node = self.root
        node.stamp = version
        for a, o in zip(trace.inputs, trace.outputs):
            edge = node.edges.get(a)
            if edge is not None and edge[1] == o:
                node = edge[0]
            else:
                if edge is not None:
                    conflicted = True
                    self.n_nodes -= _subtree_size(edge[0])
                child = _RNode(self._next_uid(), version)
                node.edges[a] = (child, o)
                self.n_nodes += 1
                node = child
            node.stamp = version
        return conflicted

    def language(self) -> set[Trace]:
        """Every stored trace, including (ε, ε); prefix-closed and functional."""
        result: set[Trace] = set()
        stack: list[tuple[_RNode, Word, Word]] = [(self.root, (), ())]
        while stack:
            node, ins, outs = stack.pop()
            result.add(Trace(ins, outs))
            for a, (child, o) in node.edges.items():
                stack.append((child, ins + (a,), outs + (o,)))
        return result

    def oldest_maximal_trace(self, after_uid: int = 0) -> Optional[tuple[Trace, int]]:
        """Maximal trace whose leaf has the smallest creation id above after_uid."""
        best: Optional[tuple[Trace, int]] = None
        stack: list[tuple[_RNode, Word, Word]] = [(self.root, (), ())]
        while stack:
            node, ins, outs = stack.pop()
            if not node.edges:
                if node.uid > after_uid and (best is None or node.uid < best[1]):
                    best = (Trace(ins, outs), node.uid)
                continue
            for a, (child, o) in node.edges.items():
                stack.append((child, ins + (a,), outs + (o,)))
        return best

    def find_disagreement(self, machine: MealyMachine, since: int = -1) -> Optional[Trace]:
        """Some stored trace the machine answers differently, or None.

        A scan with since=v is exact for a machine known to agree with the
        whole tree as of version v: disagreements can only appear in subtrees
        stamped after v (pruning alone never creates one).
        """
        trans, emit = machine.transitions, machine.emissions
        stack: list[tuple[_RNode, int, Word, Word]] = [(self.root, machine.initial, (), ())]
        while stack:
            node, q, ins, outs = stack.pop()
            for a, (child, o) in node.edges.items():
                if emit[q][a] != o:
                    return Trace(ins + (a,), outs + (o,))
                if child.stamp > since:
                    stack.append((child, trans[q][a], ins + (a,), outs + (o,)))
        return None


def _subtree_size(node: _RNode) -> int:
    total = 0
    stack = [node]
    while stack:
        n = stack.pop()
        total += 1
        stack.extend(c for c, _ in n.edges.values())
    return total


class _FNode:
    __slots__ = ("uid", "weight", "edges", "stamp", "visible")

    def __init__(self, uid: int, stamp: int) -> None:
        self.uid = uid
        self.weight = 1
        # per input symbol: list of (child, output), most recently observed first
        self.edges: dict[int, list[tuple[_FNode, int]]] = {}
        self.stamp = stamp
        self.visible = stamp


class MostFrequentTree:
    """Weighted nondeterministic observation tree; the heaviest branch wins.

    Every observation is kept; each node counts how often it was traversed.
    Lookup resolution per (node, input): scan entries newest-observation-first
    and keep the entry whose weight strictly exceeds the running maximum, so
    equal weights resolve to the most recent entry.
    """

    def __init__(self) -> None:
        self.version = 0
        self._uids = 0
        self.root = _FNode(self._next_uid(), 0)
        self.n_nodes = 1

    def _next_uid(self) -> int:
        self._uids += 1
        return self._uids

    def next_entry(self, node: _FNode, symbol: int) -> Optional[tuple[_FNode, int]]:
        """Selected (child, output) for one input symbol, or None if undefined."""
        entries = node.edges.get(symbol)
        if not entries:
            return None
        best = None
        best_w = 0
        for entry in entries:
            w = entry[0].weight
            if w > best_w:
                best, best_w = entry, w
        return best

    def lookup(self, word: Word) -> Optional[Word]:
        node = self.root
        out = []
        for a in word:
            entry = self.next_entry(node, a)
            if entry is None:
                return None
            node, o = entry
            out.append(o)
        return tuple(out)

    def update(self, trace: Trace) -> bool:
        """Record one observation; True iff a selected branch changed underway.

        The conflict flag is raised exactly when, while still on the path the
        lookup would take, the selected entry of (node, input) changes across
        this observation's increment or insertion; equivalently, when the
        stored language loses a word.
        """
        if len(trace.inputs) != len(trace.outputs):
            raise ValueError("trace input and output words differ in length")
        self.version += 1
        version = self.version
        conflicted = False
        mainbranch = True
        node = self.root
        node.stamp = version
        for a, o in zip(trace.inputs, trace.outputs):
            entries = node.edges.get(a)
            if entries is None:
                entries = node.edges[a] = []
            pre = self.next_entry(node, a)
            followed = None
            for idx, entry in enumerate(entries):
                if entry[1] == o:
                    followed = entry
                    entry[0].weight += 1
                    if idx:
                        # move to front: most recently observed first
                        del entries[idx]
                        entries.insert(0, entry)
                    break
            if followed is None:
                child = _FNode(self._next_uid(), version)
                self.n_nodes += 1
                followed = (child, o)
                entries.insert(0, followed)
            post = self.next_entry(node, a)
            if mainbranch:
                if pre is not None and post is not pre:
                    conflicted = True
                if post is not followed:
                    mainbranch = False
            if post is not pre:
                post[0].visible = version
            node = followed[0]
            node.stamp = version
        return conflicted

    def language(self) -> set[Trace]:
        """Traces along selected entries only; prefix-closed and functional."""
        result: set[Trace] = set()
        stack: list[tuple[_FNode, Word, Word]] = [(self.root, (), ())]
        while stack:
            node, ins, outs = stack.pop()
            result.add(Trace(ins, outs))
            for a in node.edges:
                entry = self.next_entry(node, a)
                if entry is not None:
                    stack.append((entry[0], ins + (a,), outs + (entry[1],)))
        return result

    def oldest_maximal_trace(self, after_uid: int = 0) -> Optional[tuple[Trace, int]]:
        best: Optional[tuple[Trace, int]] = None
        stack: list[tuple[_FNode, Word, Word]] = [(self.root, (), ())]
        while stack:
            node, ins, outs = stack.pop()
            grew = False
            for a in node.edges:
                entry = self.next_entry(node, a)
                if entry is not None:
                    grew = True
                    stack.append((entry[0], ins + (a,), outs + (entry[1],)))
            if not grew and node.uid > after_uid and (best is None or node.uid < best[1]):
                best = (Trace(ins, outs), node.uid)
        return best

    def find_disagreement(self, machine: MealyMachine, since: int = -1) -> Optional[Trace]:
        """Like MostRecentTree.find_disagreement over the selected language.

        A subtree is rescanned when its content changed (stamp) or when it
        became newly selected through a weight flip (visible stamp); both are
        maintained by update.
        """
        trans, emit = machine.transitions, machine.emissions
        # (node, state, ins, outs, full); full forces a complete subtree scan
        stack: list[tuple[_FNode, int, Word, Word, bool]] = [
            (self.root, machine.initial, (), (), False)
        ]
        while stack:
            node, q, ins, outs, full = stack.pop()
            for a in node.edges:
                entry = self.next_entry(node, a)
                if entry is None:
                    continue
                child, o = entry
                if emit[q][a] != o:
                    return Trace(ins + (a,), outs + (o,))
                descend = full or child.stamp > since or child.visible > since
                if descend:
                    child_full = full or child.visible > since
                    stack.append(
                        (child, trans[q][a], ins + (a,), outs + (o,), child_full)
                    )
        return None
