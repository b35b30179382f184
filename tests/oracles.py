"""Reference evaluators for the observation-tree semantics and the vote path.

The tree references rebuild the expected stored language directly from an
observation stream, without any incremental bookkeeping, so the tree
implementations can be checked against them wholesale. The vote-path
references are the straightforward probe, noise and voting code that the
optimized ``ceal.sul`` must match draw for draw.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

from ceal.mealy import MealyMachine, Trace, Word, prefixes
from ceal.obstree import conflicts
from ceal.sul import BudgetExhausted, NoiseModel, RepeatPolicy, TestMeter


def is_prefix(u: Trace, t: Trace) -> bool:
    n = len(u.inputs)
    return u.inputs == t.inputs[:n] and u.outputs == t.outputs[:n]


def replay_latest_wins(stream: list[Trace]) -> set[Trace]:
    """Expected language of a MostRecentTree fed the stream in order.

    A prefix written at position k survives iff no later observation
    contradicts it.
    """
    n = len(stream)
    kept: set[Trace] = {Trace((), ())}
    for k, t in enumerate(stream):
        for p in prefixes(t):
            if not any(conflicts(p, stream[l]) for l in range(k + 1, n)):
                kept.add(p)
    return kept


def replay_heaviest_wins(stream: list[Trace]) -> set[Trace]:
    """Expected selected language of a MostFrequentTree fed the stream.

    From the root down, each (prefix, input) resolves to the extension seen
    most often across the whole stream, ties to the one seen most recently.
    """

    def count(u: Trace) -> int:
        return sum(1 for t in stream if is_prefix(u, t))

    def last_seen(u: Trace) -> int:
        return max(k for k, t in enumerate(stream) if is_prefix(u, t))

    lang = {Trace((), ())}
    frontier = [Trace((), ())]
    while frontier:
        u = frontier.pop()
        depth = len(u.inputs)
        choices: dict[int, set[int]] = {}
        for t in stream:
            if len(t.inputs) > depth and is_prefix(u, t):
                choices.setdefault(t.inputs[depth], set()).add(t.outputs[depth])
        for a, outs in choices.items():
            ranked = []
            for o in outs:
                v = Trace(u.inputs + (a,), u.outputs + (o,))
                ranked.append((count(v), last_seen(v), v))
            ranked.sort()
            winner = ranked[-1][2]
            lang.add(winner)
            frontier.append(winner)
    return lang


def naive_disagreement(language: set[Trace], machine: MealyMachine) -> bool:
    """True iff the machine mislabels some trace of the given language."""
    for t in language:
        if machine.run(t.inputs) != t.outputs:
            return True
    return False


def reference_perturb(noise: NoiseModel, word: Word, alphabet_size: int) -> Word:
    """Each symbol independently replaced by a uniform draw with prob rate."""
    if noise.kind == "none" or noise.rate == 0.0:
        return word
    rng: random.Random = noise.rng
    return tuple(
        rng.randrange(alphabet_size) if rng.random() < noise.rate else s
        for s in word
    )


class ReferenceSystem:
    """A SimulatedSystem that re-runs the target on every probe, no memo."""

    def __init__(
        self,
        target: MealyMachine,
        noise: NoiseModel,
        max_tests: Optional[int] = None,
    ) -> None:
        self.target = target
        self.noise = noise
        self.meter = TestMeter()
        self.max_tests = max_tests

    def probe(self, word: Word, phase: str = "mq") -> Trace:
        if self.max_tests is not None and self.meter.tests >= self.max_tests:
            raise BudgetExhausted(f"test budget of {self.max_tests} spent")
        noise = self.noise
        if noise.kind == "input":
            executed = reference_perturb(noise, word, len(self.target.inputs))
            outputs = self.target.run(executed)
        elif noise.kind == "output":
            executed = word
            outputs = reference_perturb(
                noise, self.target.run(word), len(self.target.outputs)
            )
        else:
            executed = word
            outputs = self.target.run(word)
        self.meter.charge(len(executed), phase)
        return Trace(executed, outputs)


def reference_majority_query(
    system, word: Word, policy: RepeatPolicy, phase: str = "mq"
) -> Word:
    """Vote by recounting the whole tally after every probe."""
    votes: Counter[Word] = Counter()
    for _ in range(policy.min_repeats):
        votes[system.probe(word, phase).outputs] += 1
    while True:
        total = sum(votes.values())
        best_n = max(votes.values())
        winners = [w for w, n in votes.items() if n == best_n]
        if best_n >= policy.threshold * total - 1e-9:
            return winners[0]
        if total >= policy.max_repeats:
            return min(winners)
        votes[system.probe(word, phase).outputs] += 1
