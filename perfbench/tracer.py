"""Per-layer tracing of ceal from outside the package.

``Tracer.installed()`` wraps the public entry points of each ceal module
in place, on the classes and at every module where a function is looked up
(``ceal.harness.majority_query``, ``ceal.reviser.canonical_fingerprint``,
``ceal.mealy.minimize``, ...), and restores the originals on exit.

Each wrapped call is a span. Spans are aggregated as they close rather
than stored one by one, because a light-vote sweep makes millions of them:
per span name the tracer keeps calls, busy seconds, self seconds (busy time
minus the time covered by child spans and by their wrappers) and a
name-specific count of useful outcomes. The wrappers' cost per call is
measured once, on a wrapped no-op (``wrapper_cost``); a span's busy and self
seconds still hold the clock read inside its own wrapper. A session is the outermost span; its probe count is kept so it
can be checked against the session's ``RunResult.tests``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Callable, Optional

import ceal.eqtest as eqtest
import ceal.harness as harness
import ceal.learners as learners
import ceal.mealy as mealy
import ceal.obstree as obstree
import ceal.reviser as reviser
import ceal.sul as sul

LAYERS = ("harness", "sul", "obstree", "reviser", "learners", "eqtest", "mealy")


# outcome counters: (result, probes issued during the call) -> amount
def _conflicted(result, probes):
    return 1 if result else 0


def _hit(result, probes):
    return 0 if result is None else 1


def _reached_system(result, probes):
    return 1 if probes else 0


def _probes(result, probes):
    return probes


def wrapper_cost(counted: bool, calls: int = 2_000, batches: int = 15) -> float:
    """Seconds a wrapped call adds to its caller beyond the callee's span.

    A no-op method is wrapped and called in batches inside a parent span;
    the parent's time not covered by the no-op's spans, less the bare
    loop's, is the wrapper's cost. The median batch is taken.
    """
    tracer = Tracer(calibrate=False)
    noop = tracer.wrap("noop", lambda self, arg: None, _probes if counted else None)
    clock = time.perf_counter
    per_call = []
    for _ in range(batches):
        start = clock()
        for _ in range(calls):
            pass
        bare = clock() - start
        tracer._open.append([0.0])
        start = clock()
        for _ in range(calls):
            noop(None, None)
        elapsed = clock() - start
        covered = tracer._open.pop()[0]
        per_call.append((elapsed - covered - bare) / calls)
    return max(0.0, statistics.median(per_call))


class SpanStats:
    __slots__ = ("calls", "returned", "busy", "own", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.returned = 0
        self.busy = 0.0
        self.own = 0.0
        self.count = 0


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, calibrate: bool = True) -> None:
        self.spans: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []  # child seconds of each open span
        self._fingerprints: set[str] = set()  # distinct within the current session
        # seconds a wrapped call costs its caller, without and with a counter
        self.costs = (wrapper_cost(False), wrapper_cost(True)) if calibrate else (0.0, 0.0)

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """fn inside a span; count(result, probes) adds to the span's outcome count.

        The wrapper's own cost is booked to the caller's child time with the
        call's, so it stays out of the caller's self time.
        """
        stats = self.stats(name)
        probe = self.stats("sul.probe")
        open_spans = self._open
        clock = time.perf_counter
        cost = self.costs[count is not None]

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            probes_before = probe.calls
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed + cost
                stats.calls += 1
                stats.busy += elapsed
                stats.own += elapsed - children[0]
            stats.returned += 1
            if count is not None:
                stats.count += count(result, probe.calls - probes_before)
            return result

        return traced

    def _fingerprint_seen(self, result, probes):
        if result in self._fingerprints:
            return 0
        self._fingerprints.add(result)
        return 1

    def session(self, fn: Callable) -> Callable:
        """harness.run wrapped as the session span; fingerprints count per session."""
        traced = self.wrap("harness.session", fn)

        def run_session(*args, **kwargs):
            self._fingerprints = set()
            return traced(*args, **kwargs)

        return run_session

    def _sites(self):
        """(owner, attribute, span name, counter) for every traced entry point."""
        trees = (obstree.MostRecentTree, obstree.MostFrequentTree)
        steps = (learners.LStarLearner, learners.KVLearner)
        return [
            (harness, "find_counterexample", "harness.judge", None),
            (sul.SimulatedSystem, "probe", "sul.probe", None),
            (sul.NoiseModel, "perturb", "sul.perturb", None),
            (harness, "majority_query", "sul.vote", _probes),
            (sul, "majority_query", "sul.vote", _probes),
            *[(t, "update", "obstree.update", _conflicted) for t in trees],
            *[(t, "lookup", "obstree.lookup", _hit) for t in trees],
            *[(t, "find_disagreement", "obstree.find_disagreement", None) for t in trees],
            (reviser.Reviser, "read", "reviser.read", _reached_system),
            (reviser.Reviser, "check", "reviser.check", None),
            (reviser.Reviser, "test", "reviser.test", None),
            (reviser.HypothesisLog, "record", "reviser.record", None),
            *[(s, "build_hypothesis", "learners.build", None) for s in steps],
            *[(s, "refine", "learners.refine", None) for s in steps],
            (learners.Learner, "restart", "learners.restart", None),
            (eqtest.PreparedSampler, "__init__", "eqtest.prepare", None),
            (eqtest.PreparedSampler, "draw", "eqtest.draw", None),
            (mealy, "canonical_fingerprint", "mealy.fingerprint", self._fingerprint_seen),
            (reviser, "canonical_fingerprint", "mealy.fingerprint", self._fingerprint_seen),
            (mealy, "minimize", "mealy.minimize", None),
            (eqtest, "minimize", "mealy.minimize", None),
            (mealy.MealyMachine, "run", "mealy.run", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the duration of the block; always restore."""
        saved = []
        try:
            for owner, attr, name, count in self._sites():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def probes(self) -> int:
        """Probes that returned so far; a session's share is the difference.

        A probe refused by the budget raises before it is charged as a test.
        """
        return self.stats("sul.probe").returned

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, busy and self seconds, and outcome ratios."""
        s = self.stats

        def share(stats: SpanStats) -> float:
            # over calls that returned: a raising call has no outcome
            return stats.count / stats.returned if stats.returned else 0.0

        m: dict[str, tuple[float, str]] = {}

        def calls(name: str) -> None:
            m[f"{name}.calls"] = (s(name).calls, "count")

        def busy(name: str) -> None:
            m[f"{name}.s"] = (s(name).busy, "s")

        for name in ("harness.session", "harness.judge", "sul.perturb", "reviser.record"):
            busy(name)
        for name in (
            "sul.probe", "sul.vote", "obstree.update", "obstree.lookup",
            "obstree.find_disagreement", "reviser.read", "reviser.check",
            "reviser.test", "learners.build", "learners.refine", "eqtest.prepare",
            "eqtest.draw", "mealy.fingerprint", "mealy.minimize", "mealy.run",
        ):
            calls(name)
            busy(name)
        calls("learners.restart")
        m["sul.probes_per_vote"] = (share(s("sul.vote")), "ratio")
        m["obstree.update.conflict_share"] = (share(s("obstree.update")), "share")
        m["obstree.lookup.hit_share"] = (share(s("obstree.lookup")), "share")
        m["reviser.read.probe_share"] = (share(s("reviser.read")), "share")
        m["mealy.fingerprint.distinct_share"] = (share(s("mealy.fingerprint")), "share")
        for layer in LAYERS:
            own = sum(st.own for name, st in self.spans.items() if name.startswith(layer + "."))
            m[f"{layer}.self_s"] = (own, "s")
        return m
