"""Test-word generation for equivalence testing.

Two methods feed the tester's word draw: plain random walks, and a
randomized Wp-style scheme that concatenates a uniformly chosen state's
access sequence, a geometric-length uniform infix, and a uniformly chosen
characterization suffix. Randomness is injected as an explicit generator so
configs stay plain data.

A draw takes, in order: the access index, one ``random()`` per infix step
(the infix stops at the first draw below 1 / (1 + mean_infix), or at
max_len), the infix symbols, and the suffix index. Every index and symbol
is a bounded draw made with ``getrandbits`` exactly as ``randrange`` makes
it (see ceal.sul.randbelow), so seeded draws are those of randrange.

Preparing the Wp scheme for a hypothesis costs one minimization (skipped
when the caller already holds the canonical minimal machine), a BFS for the
access sequences and a characterization set. The characterization set is
built in near-linear time for the usual case: one-symbol witnesses come from
grouping emission rows by prefix, and only pairs of states with equal
emission rows go through the fixed-point passes for deeper witnesses. The
words, and so every draw, are the same as those of the plain all-pairs
refinement; see characterization_set.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .mealy import MealyMachine, Word, minimize  # perfbench/tracer.py wraps it here
from .sul import randbelow

METHODS = ("random_walk", "randomized_wp")


@dataclass(frozen=True)
class SamplerConfig:
    method: str = "randomized_wp"
    mean_infix: float = 4.0
    max_len: int = 50

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (self.mean_infix >= 0):  # also rejects NaN
            raise ValueError("mean_infix must be nonnegative")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


def access_sequences(h: MealyMachine) -> dict[int, Word]:
    """Shortest input word reaching each state, ties by input-symbol order."""
    access: dict[int, Word] = {h.initial: ()}
    queue = deque([h.initial])
    while queue:
        q = queue.popleft()
        for a, succ in enumerate(h.transitions[q]):
            if succ not in access:
                access[succ] = access[q] + (a,)
                queue.append(succ)
    if len(access) != h.n_states:
        missing = sorted(set(range(h.n_states)) - access.keys())
        raise ValueError(f"states unreachable from the initial state: {missing}")
    return access


def characterization_set(h: MealyMachine) -> tuple[Word, ...]:
    """Words that pairwise separate the states of a minimal machine.

    Each pair of states gets a witness: a pair whose emission rows differ
    gets (a,) for its first differing input a; any other pair inherits
    (a,) + witness(successor pair) from the first input a whose successors
    are distinct and already witnessed, in repeated passes over the pairs in
    lexicographic order until a pass assigns nothing. The result is the
    sorted set of witnesses.

    Only the second kind of pair needs the passes, so the work runs in two
    stages. The one-symbol witnesses come from grouping the distinct
    emission rows by prefix, one input at a time: (a,) is some pair's first
    differing input exactly when one group still together after inputs
    0..a-1 splits on a. The passes then run over the emission-equal pairs
    alone, in the same order; a successor pair with different rows counts as
    witnessed from the start, and its witness is found when first needed.
    Every pair is assigned the same witness in the same pass as if all
    n(n-1)/2 pairs were scanned, so the result is the same.
    """
    n = h.n_states
    if n == 1:
        return ((0,),)
    ni = len(h.inputs)
    trans, emit = h.transitions, h.emissions
    states_of: dict[tuple[int, ...], list[int]] = {}
    for q in range(n):
        states_of.setdefault(emit[q], []).append(q)

    # stage 1: refine groups of distinct rows by emission prefix
    words: set[Word] = set()
    groups = [list(states_of)]
    for a in range(ni):
        refined = []
        for group in groups:
            parts: dict[int, list[tuple[int, ...]]] = {}
            for row in group:
                parts.setdefault(row[a], []).append(row)
            if len(parts) > 1:
                words.add((a,))
            refined.extend(part for part in parts.values() if len(part) > 1)
        groups = refined

    # stage 2: Gauss-Seidel passes over the emission-equal pairs
    pending = sorted(
        (p, q)
        for states in states_of.values()
        for i, p in enumerate(states)
        for q in states[i + 1 :]
    )
    witness: dict[tuple[int, int], Word] = {}
    changed = True
    while changed:
        changed = False
        left = []
        for p, q in pending:
            for a in range(ni):
                sp, sq = trans[p][a], trans[q][a]
                if sp == sq:
                    continue
                rp, rq = emit[sp], emit[sq]
                if rp != rq:
                    found = (a, next(b for b in range(ni) if rp[b] != rq[b]))
                    break
                tail = witness.get((sp, sq) if sp < sq else (sq, sp))
                if tail is not None:
                    found = (a,) + tail
                    break
            else:
                left.append((p, q))
                continue
            witness[(p, q)] = found
            words.add(found)
            changed = True
        pending = left
    return tuple(sorted(words))


class PreparedSampler:
    """Per-hypothesis sampling state: minimized machine, accesses, suffixes.

    minimal is minimize(h) when the caller already has it.
    """

    def __init__(
        self, h: MealyMachine, cfg: SamplerConfig, minimal: Optional[MealyMachine] = None
    ) -> None:
        self.cfg = cfg
        self.n_inputs = len(h.inputs)
        if cfg.method == "randomized_wp":
            m = minimize(h) if minimal is None else minimal
            acc = access_sequences(m)
            self.accesses = tuple(acc[q] for q in range(m.n_states))
            self.suffixes = characterization_set(m)
        else:
            self.accesses = ((),)
            self.suffixes = ((),)

    def _infix(self, rng: random.Random) -> Word:
        stop = 1.0 / (1.0 + self.cfg.mean_infix)
        draw, limit = rng.random, self.cfg.max_len
        k = 0
        while draw() >= stop and k < limit:
            k += 1
        # randbelow(rng, n) inlined, as it runs once per infix symbol
        n = self.n_inputs
        bits, width = rng.getrandbits, n.bit_length()
        out = []
        for _ in range(k):
            r = bits(width)
            while r >= n:
                r = bits(width)
            out.append(r)
        return tuple(out)

    def draw(self, rng: random.Random) -> Word:
        if self.cfg.method == "random_walk":
            return self._infix(rng)[: self.cfg.max_len]
        word = (
            self.accesses[randbelow(rng, len(self.accesses))]
            + self._infix(rng)
            + self.suffixes[randbelow(rng, len(self.suffixes))]
        )
        return word[: self.cfg.max_len]
