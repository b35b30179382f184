"""Observation trees that absorb contradictory observations.

Two tree flavours store a stream of traces from a possibly-noisy system and
expose a deterministic lookup language:

* MostRecentTree keeps exactly one branch per (node, input); a contradicting
  observation replaces the old subtree, so the latest version of events wins.
* MostFrequentTree keeps every branch with an observation count per node; the
  lookup follows, per (node, input), the entry with the greatest count, ties
  resolved toward the most recently observed entry.

In both trees every node maps each input symbol to its selected
(child, output) in `edges`, so lookup and the traversals read the same
structure and the two classes differ only in how `update` keeps it current.
MostFrequentTree parks the entries that lost the selection in a separate,
lazily created store next to `edges`.

`update` reports whether the observation changed the stored language
non-additively (some previously-answered word now answers differently or not
at all). That flag is the trees' conflict signal: callers treat it as "your
previous answers may be invalid".

Both trees carry monotone version stamps on their nodes so that a consistency
scan can skip subtrees untouched since an earlier scan; see find_disagreement.
"""

from __future__ import annotations

from typing import Optional, Union

from .mealy import MealyMachine, Trace, Word


class _RNode:
    __slots__ = ("uid", "edges", "stamp", "visible")

    def __init__(self, uid: int, stamp: int) -> None:
        self.uid = uid
        self.edges: dict[int, tuple[_RNode, int]] = {}
        self.stamp = stamp
        # a node is selected from its creation on, until it is discarded
        self.visible = stamp


class _FNode:
    __slots__ = ("uid", "edges", "stamp", "weight", "visible", "others")

    def __init__(self, uid: int, stamp: int) -> None:
        self.uid = uid
        # per input symbol: the selected (child, output)
        self.edges: dict[int, tuple[_FNode, int]] = {}
        self.stamp = stamp
        self.weight = 1
        self.visible = stamp
        # (input, output) -> child, for every entry not selected; None until
        # some input sees a second output here
        self.others: Optional[dict[tuple[int, int], _FNode]] = None


_Node = Union[_RNode, _FNode]

# A node's path from the root as a parent link: (parent's path, input, output),
# None at the root. The disagreement scan pushes one link per node and builds
# the words only for the trace it returns.
_Path = Optional[tuple]


def _trace(path: _Path) -> Trace:
    ins: list[int] = []
    outs: list[int] = []
    while path is not None:
        path, a, o = path
        ins.append(a)
        outs.append(o)
    return Trace(tuple(reversed(ins)), tuple(reversed(outs)))


class _SelectedEdges:
    """Traversals of the selected language, shared by both trees."""

    def __init__(self, node_cls: type) -> None:
        self.version = 0
        self._uids = 0
        self.root = node_cls(self._next_uid(), 0)

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

    def find_disagreement(self, machine: MealyMachine, since: int = -1) -> Optional[Trace]:
        """Some stored trace the machine answers differently, or None.

        A scan with since=v is exact for a machine known to agree with the
        whole tree as of version v: disagreements can only appear in subtrees
        whose content changed after v (stamp) or that became selected after
        v (visible stamp), both maintained by update; dropping a subtree
        alone never creates one. A MostRecentTree node is selected from its
        creation on; a MostFrequentTree entry is selected again when a
        weight flips.
        """
        trans, emit = machine.transitions, machine.emissions
        # (node, state, path, full); full forces a complete subtree scan
        stack: list[tuple[_Node, int, _Path, bool]] = [
            (self.root, machine.initial, None, False)
        ]
        while stack:
            node, q, path, full = stack.pop()
            row, succ = emit[q], trans[q]
            for a, (child, o) in node.edges.items():
                if row[a] != o:
                    return _trace((path, a, o))
                # a leaf has no edges to check
                if child.edges and (full or child.stamp > since or child.visible > since):
                    child_full = full or child.visible > since
                    stack.append((child, succ[a], (path, a, o), child_full))
        return None

    def oldest_maximal_trace(self, after_uid: int = 0) -> Optional[tuple[Trace, int]]:
        """Maximal selected trace whose leaf has the smallest creation id above after_uid."""
        best: Optional[tuple[Trace, int]] = None
        stack: list[tuple[_Node, Word, Word]] = [(self.root, (), ())]
        while stack:
            node, ins, outs = stack.pop()
            if not node.edges:
                if node.uid > after_uid and (best is None or node.uid < best[1]):
                    best = (Trace(ins, outs), node.uid)
                continue
            for a, (child, o) in node.edges.items():
                stack.append((child, ins + (a,), outs + (o,)))
        return best


class MostRecentTree(_SelectedEdges):
    """Deterministic observation tree; contradictions prune the old branch."""

    def __init__(self) -> None:
        super().__init__(_RNode)

    # Bound in each class's own namespace, so that instrumentation can wrap
    # one tree's traversals without touching the other's.
    lookup = _SelectedEdges.lookup
    find_disagreement = _SelectedEdges.find_disagreement

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
                child = _RNode(self._next_uid(), version)
                node.edges[a] = (child, o)
                node = child
            node.stamp = version
        return conflicted


class MostFrequentTree(_SelectedEdges):
    """Weighted nondeterministic observation tree; the heaviest branch wins.

    Every observation is kept; each node counts how often it was traversed.
    Per (node, input) the selected entry is the heaviest, ties resolved to
    the most recently observed one. `update` keeps that selection in `edges`
    at O(1) per symbol: an observation adds 1 to the weight of the one entry
    it follows and makes that entry the most recently observed, and leaves
    every other entry as it was. So the followed entry is selected afterwards
    exactly when its new weight reaches the previously selected entry's
    weight; otherwise the previous selection still wins.
    """

    def __init__(self) -> None:
        super().__init__(_FNode)

    # see MostRecentTree.lookup
    lookup = _SelectedEdges.lookup
    find_disagreement = _SelectedEdges.find_disagreement

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
            pre = node.edges.get(a)
            if pre is None:
                child = _FNode(self._next_uid(), version)
                node.edges[a] = (child, o)
            elif pre[1] == o:
                child = pre[0]
                child.weight += 1
            else:
                others = node.others
                if others is None:
                    others = node.others = {}
                child = others.pop((a, o), None)
                if child is None:
                    child = _FNode(self._next_uid(), version)
                else:
                    child.weight += 1
                if child.weight >= pre[0].weight:
                    node.edges[a] = (child, o)
                    others[(a, pre[1])] = pre[0]
                    child.visible = version
                    if mainbranch:
                        conflicted = True
                else:
                    others[(a, o)] = child
                    mainbranch = False
            node = child
            node.stamp = version
        return conflicted
