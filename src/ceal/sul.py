"""Simulated system under learning: noise injection, metering, majority voting.

A SimulatedSystem wraps a hidden target machine. Every probe executes one
reset + one input word and charges it to the system's meter; noise perturbs
either the input word before execution or the output word after it, one
symbol at a time. NoiseModel.perturb draws input noise; the probe draws
output noise itself, with the same draws, since under output noise every
probe draws once per symbol. Noisy replacement draws uniformly from the
full alphabet, so a drawn symbol may equal the original; the effective
flip rate per symbol is rate * (n - 1) / n for an alphabet of size n.

The noise stream is fixed per symbol: for each symbol in order, one
``random()`` draw, then one bounded draw below n only when it hits. A
bounded draw (randbelow) reads n.bit_length() bits from ``getrandbits``
until they fall below n, which is what ``randrange(n)`` does inside, so it
makes the same draws and returns the same symbol without the cost of
randrange's argument checks. Seeded runs therefore depend only on which
words are probed, in which order.

A probe answers with the output word it observed, never with the input
word it executed: a closed-box learner cannot see input noise, so every
answer belongs to the word that was asked. A probe remembers the
noise-free output of the last word it ran on the target, so voting the
same word runs the target once and then only draws noise. A probe whose
noise hit no symbol returns that output object as it is. Under input
noise the memo answers whenever the executed word is the memoized word; a
perturbed word is run on the target without replacing the memo, so the
word being voted stays memoized. The memo holds one entry and is dropped
when the system's target is replaced.

majority_query votes one word under a RepeatPolicy, stopping once one
output word holds four fifths of the votes; the Reviser asks the system
every word it needs through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .mealy import MealyMachine, Word

NOISE_KINDS = ("none", "input", "output")


def randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1: the same getrandbits draws, the same result.

    Draws n.bit_length() random bits until they read below n, as randrange
    does inside, without its argument checks.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class BudgetExhausted(RuntimeError):
    """A probe was requested after the test budget was spent."""


@dataclass
class NoiseModel:
    """Per-symbol uniform-replacement noise on one side of the trace."""

    kind: str
    rate: float = 0.0
    rng: random.Random = field(default_factory=random.Random, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"noise rate must lie in [0,1], got {self.rate!r}")

    @classmethod
    def from_seed(cls, kind: str, rate: float, seed: int | str) -> "NoiseModel":
        return cls(kind, rate, random.Random(f"{seed}:noise"))

    def perturb(self, word: Word, alphabet_size: int) -> Word:
        """Each symbol independently replaced by a uniform draw with prob rate.

        Returns word itself when no symbol is hit.
        """
        if self.kind == "none" or self.rate == 0.0:
            return word
        rng, rate = self.rng, self.rate
        draw = rng.random
        out = None
        for i in range(len(word)):
            if draw() < rate:
                if out is None:
                    out = list(word)
                out[i] = randbelow(rng, alphabet_size)
        return word if out is None else tuple(out)


@dataclass
class TestMeter:
    """Monotone interaction counters; symbols = eq_symbols + mq_symbols."""

    tests: int = 0
    eq_symbols: int = 0
    mq_symbols: int = 0

    @property
    def symbols(self) -> int:
        return self.eq_symbols + self.mq_symbols


@dataclass(frozen=True)
class RepeatPolicy:
    """Voting discipline for answering one query over a noisy system."""

    min_repeats: int = 5
    max_repeats: int = 10

    def __post_init__(self) -> None:
        if not (1 <= self.min_repeats <= self.max_repeats):
            raise ValueError("need 1 <= min_repeats <= max_repeats")


class SimulatedSystem:
    """The only gateway to the target; every interaction is metered here."""

    def __init__(
        self, target: MealyMachine, noise: NoiseModel, max_tests: Optional[int] = None
    ) -> None:
        self.target = target
        self.noise = noise
        self.meter = TestMeter()
        self.max_tests = max_tests

    @property
    def target(self) -> MealyMachine:
        return self._target

    @target.setter
    def target(self, machine: MealyMachine) -> None:
        self._target = machine
        self._n_inputs = len(machine.inputs)
        self._n_outputs = len(machine.outputs)
        # the last word run on this target and its noise-free outputs; the
        # empty word's are exact for any machine
        self._memo_word: Word = ()
        self._memo_outputs: Word = ()

    def probe(self, word: Word, phase: str = "mq") -> Word:
        """One reset + one word on the system; returns the outputs as observed.

        An unknown phase raises before anything is drawn, run or counted.
        """
        if phase != "mq" and phase != "eq":
            raise ValueError(f"unknown meter phase {phase!r}")
        meter = self.meter
        if self.max_tests is not None and meter.tests >= self.max_tests:
            raise BudgetExhausted(f"test budget of {self.max_tests} spent")
        noise = self.noise
        executed = noise.perturb(word, self._n_inputs) if noise.kind == "input" else word
        if executed == self._memo_word:
            outputs = self._memo_outputs
        else:
            outputs = self._target.run(executed)
            if executed is word:
                self._memo_word, self._memo_outputs = word, outputs
        meter.tests += 1
        if phase == "mq":
            meter.mq_symbols += len(word)
        else:
            meter.eq_symbols += len(word)
        rate = noise.rate
        if noise.kind != "output" or rate == 0.0:
            return outputs
        # NoiseModel.perturb inlined, with randbelow inlined on each hit, as
        # every probe under output noise draws once per symbol
        rng = noise.rng
        uniform = rng.random
        out = None
        for i in range(len(outputs)):
            if uniform() < rate:
                if out is None:
                    out = list(outputs)
                n = self._n_outputs
                width = n.bit_length()
                r = rng.getrandbits(width)
                while r >= n:
                    r = rng.getrandbits(width)
                out[i] = r
        return outputs if out is None else tuple(out)


def majority_query(
    system: SimulatedSystem,
    word: Word,
    policy: RepeatPolicy,
    phase: str = "mq",
) -> Word:
    """Vote the same word repeatedly; return the agreed or plurality output.

    Stops as soon as one output word holds at least four fifths of all
    votes so far (checked from min_repeats on); four fifths is a strict
    majority, so that word is unique. At max_repeats the plurality wins,
    ties going to the lexicographically least output word.
    """
    probe = system.probe
    first = probe(word, phase)
    agreed = 1
    while agreed < policy.min_repeats:
        out = probe(word, phase)
        if out is not first and out != first:
            break
        agreed += 1
    else:
        return first  # unanimous
    votes = {first: agreed, out: 1}
    total, best_n = agreed + 1, agreed
    while True:
        if total >= policy.min_repeats:
            if 5 * best_n >= 4 * total:
                return next(w for w, n in votes.items() if n == best_n)
            if total >= policy.max_repeats:
                return min(w for w, n in votes.items() if n == best_n)
        out = probe(word, phase)
        n = votes[out] = votes.get(out, 0) + 1
        if n > best_n:
            best_n = n
        total += 1
