"""Observation trees that absorb contradictory observations.

Two tree flavours store a stream of traces from a possibly-noisy system and
expose a deterministic lookup language:

* MostRecentTree keeps exactly one branch per (node, input); a contradicting
  observation replaces the old subtree, so the latest version of events wins.
* MostFrequentTree keeps every branch with an observation count per node; the
  lookup follows, per (node, input), the entry with the greatest count, ties
  resolved toward the most recently observed entry.

In both trees a node is a plain dict of its selected edges, mapping each
input symbol to `(child, output)`; a leaf is an empty dict. Lookup and the
traversals read only `edge[0]` and `edge[1]`, so the two classes share them
and differ only in how `update` keeps the dicts current. MostFrequentTree's
edges carry a third field, the `_Counts` of the child they lead to: its
observation count and the edges that lost the selection at the child, parked
whole in `others`.

`update` reports whether the observation changed the stored language
non-additively (some previously-answered word now answers differently or not
at all). That flag is the trees' conflict signal: callers treat it as "your
previous answers may be invalid".
"""

from __future__ import annotations

from typing import Optional

from .mealy import MealyMachine, Trace, Word

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


class _Counts:
    """MostFrequentTree's bookkeeping for the node an edge leads to."""

    __slots__ = ("weight", "others")

    def __init__(self) -> None:
        self.weight = 1
        # (input, output) -> parked edge, for every entry not selected; None
        # until some input sees a second output at this node
        self.others: Optional[dict[tuple[int, int], tuple]] = None


class _SelectedEdges:
    """Traversals of the selected language, shared by both trees."""

    def __init__(self) -> None:
        self.root: dict[int, tuple] = {}

    def lookup(self, word: Word) -> Optional[Word]:
        """Stored output word for `word`, or None where the branch ends early."""
        node = self.root
        out = []
        for a in word:
            edge = node.get(a)
            if edge is None:
                return None
            node = edge[0]
            out.append(edge[1])
        return tuple(out)

    def find_disagreement(self, machine: MealyMachine) -> Optional[Trace]:
        """Some stored trace the machine answers differently, or None.

        Walks the whole selected language depth first and returns the first
        mismatching edge it meets: a node's edges are checked in insertion
        order before any is descended into, and the children are descended
        into last-inserted first.
        """
        trans, emit = machine.transitions, machine.emissions
        stack: list[tuple[dict, int, _Path]] = [(self.root, machine.initial, None)]
        while stack:
            node, q, path = stack.pop()
            row, succ = emit[q], trans[q]
            for a, edge in node.items():
                o = edge[1]
                if row[a] != o:
                    return _trace((path, a, o))
                # a leaf has no edges to check
                if edge[0]:
                    stack.append((edge[0], succ[a], (path, a, o)))
        return None


class MostRecentTree(_SelectedEdges):
    """Deterministic observation tree; contradictions prune the old branch."""

    # Bound in each class's own namespace, so that instrumentation can wrap
    # one tree's traversals without touching the other's.
    lookup = _SelectedEdges.lookup
    find_disagreement = _SelectedEdges.find_disagreement

    def update(self, trace: Trace) -> bool:
        """Store one observation; True iff the stored language shrank somewhere.

        A mismatching output on an existing edge discards the whole old
        subtree below that edge and is the only non-additive case. The
        stored tree is walked up to the first missing or contradicted edge;
        the rest of the trace then hangs there as one fresh branch.
        """
        ins, outs = trace
        n = len(ins)
        if n != len(outs):
            raise ValueError("trace input and output words differ in length")
        node = self.root
        for i in range(n):
            edge = node.get(ins[i])
            if edge is None or edge[1] != outs[i]:
                break
            node = edge[0]
        else:
            return False
        branch: dict[int, tuple] = {}
        for j in range(n - 1, i, -1):
            branch = {ins[j]: (branch, outs[j])}
        node[ins[i]] = (branch, outs[i])
        return edge is not None


class MostFrequentTree(_SelectedEdges):
    """Weighted nondeterministic observation tree; the heaviest branch wins.

    Every observation is kept; each node counts how often it was traversed.
    Per (node, input) the selected entry is the heaviest, ties resolved to
    the most recently observed one. `update` keeps that selection in the
    node dicts at O(1) per symbol: an observation adds 1 to the weight of the
    one entry it follows and makes that entry the most recently observed, and
    leaves every other entry as it was. So the followed entry is selected
    afterwards exactly when its new weight reaches the previously selected
    entry's weight; otherwise the previous selection still wins.
    """

    def __init__(self) -> None:
        super().__init__()
        self._root_counts = _Counts()

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
        conflicted = False
        mainbranch = True
        node, counts = self.root, self._root_counts
        for a, o in zip(trace.inputs, trace.outputs):
            pre = node.get(a)
            if pre is None:
                edge = node[a] = ({}, o, _Counts())
            elif pre[1] == o:
                edge = pre
                edge[2].weight += 1
            else:
                others = counts.others
                if others is None:
                    others = counts.others = {}
                edge = others.pop((a, o), None)
                if edge is None:
                    edge = ({}, o, _Counts())
                else:
                    edge[2].weight += 1
                if edge[2].weight >= pre[2].weight:
                    node[a] = edge
                    others[(a, pre[1])] = pre
                    if mainbranch:
                        conflicted = True
                else:
                    others[(a, o)] = edge
                    mainbranch = False
            node, counts = edge[0], edge[2]
        return conflicted
