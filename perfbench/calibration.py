"""A fixed reference loop that tracks how fast the shared machine runs now.

On a machine shared with other tenants the same Python work can take twice
as long for spells of tens of seconds, in CPU time as much as in wall time.
The benchmark samples this loop between sessions and scales each session's
CPU time by REFERENCE_S / (loop time around that session), so session times
read as CPU seconds at the speed where the loop takes REFERENCE_S.

The loop imitates what ceal spends its time on (dict-edged tree walks,
tuple words, table-driven machine runs, vote counting) but calls no ceal
code, so a change to ceal never changes the reference.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from collections import Counter

REFERENCE_S = 0.001  # nominal loop time; about its least on a 2.1 GHz Xeon vCPU
WINDOW_S = 1.0  # samples within this many seconds of a session scale it
SAMPLE_EVERY_S = 0.2


class _Node:
    __slots__ = ("edges",)

    def __init__(self) -> None:
        self.edges: dict[int, tuple[_Node, int]] = {}


def reference_loop():
    """Build the loop's fixed data once; return the loop."""
    rng = random.Random(0)
    nodes = [_Node()]
    for i in range(1, 20_000):
        child = _Node()
        parent = nodes[rng.randrange(i)]
        parent.edges[len(parent.edges)] = (child, i % 7)
        nodes.append(child)
    words = [tuple(rng.randrange(3) for _ in range(16)) for _ in range(360)]
    trans = tuple(tuple(rng.randrange(40) for _ in range(3)) for _ in range(40))
    emit = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(40))
    root = nodes[0]

    def loop() -> int:
        votes: Counter = Counter()
        for word in words:
            node, stored = root, []
            for a in word:
                edge = node.edges.get(a)
                if edge is None:
                    break
                node, o = edge
                stored.append(o)
            q, out = 0, []
            for a in word:
                out.append(emit[q][a])
                q = trans[q][a]
            votes[tuple(out)] += 1
            votes[tuple(stored) + word[:2]] += 1
        return len(votes)

    return loop


class SpeedProbe:
    """Timestamped samples of the reference loop's CPU time."""

    def __init__(self) -> None:
        self._loop = reference_loop()
        self._stamps: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> None:
        """Best of three loop runs, stamped with the monotonic clock."""
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            self._loop()
            best = min(best, time.process_time() - start)
        self._stamps.append(time.monotonic())
        self._seconds.append(best)

    def due(self) -> bool:
        return not self._stamps or time.monotonic() - self._stamps[-1] >= SAMPLE_EVERY_S

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median loop time sampled near monotonic time `at`."""
        lo = bisect.bisect_left(self._stamps, at - WINDOW_S)
        hi = bisect.bisect_right(self._stamps, at + WINDOW_S)
        if lo == hi:  # no sample that close: use the nearest one
            nearest = min(bisect.bisect_left(self._stamps, at), len(self._stamps) - 1)
            lo, hi = nearest, nearest + 1
        return REFERENCE_S / statistics.median(self._seconds[lo:hi])
