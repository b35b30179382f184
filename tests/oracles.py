"""Reference evaluators for the observation trees, the vote path and the learners.

The trace helpers (prefixes, conflicts), a tree's whole selected language
and a one-off sampler draw are spelled-out views that only the tests read.
The tree references rebuild the expected stored language directly from an
observation stream, without any incremental bookkeeping, so the tree
implementations can be checked against them wholesale. The vote-path
references are the straightforward probe, noise and voting code that the
optimized ``ceal.sul`` must match draw for draw. The learner references
recompute every row and sift from scratch; ``ceal.learners`` must make the
same teacher calls in the same order and reach the same tables. The
hypothesis-log reference fingerprints every record it is given and keys by
that string digest, where ``ceal.reviser.HypothesisLog`` keys by the
canonical minimal machine. The characterization-set reference scans all
state pairs on every pass. The minimization reference always rebuilds its
result, even from a machine that is already canonical. The sampler
reference makes every bounded draw with ``randrange``. The MAT session
reference is the classical teacher written out by hand: a voted answer
cache, and an equivalence test that votes each sampled word straight
against the system; ``ceal.harness.run`` must give the same ``RunResult``
for every MAT session.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Iterator, Optional, Union

from ceal.eqtest import PreparedSampler, SamplerConfig
from ceal.harness import ExperimentConfig, RunResult
from ceal.learners import InconsistentTeacher, KVLearner, Learner, LStarLearner, TeacherFn
from ceal.mealy import (
    Alphabet,
    MealyMachine,
    Trace,
    Word,
    canonical_fingerprint,
    find_counterexample,
    minimize,
)
from ceal.obstree import MostFrequentTree, MostRecentTree
from ceal.sul import (
    BudgetExhausted,
    NoiseModel,
    RepeatPolicy,
    SimulatedSystem,
    majority_query,
)


def prefixes(trace: Trace) -> Iterator[Trace]:
    """All prefixes of a trace, from (ε, ε) up to the trace itself."""
    for k in range(len(trace.inputs) + 1):
        yield Trace(trace.inputs[:k], trace.outputs[:k])


def conflicts(t1: Trace, t2: Trace) -> bool:
    """True when some common input prefix of the traces has differing outputs."""
    for i1, o1, i2, o2 in zip(t1.inputs, t1.outputs, t2.inputs, t2.outputs):
        if i1 != i2:
            return False
        if o1 != o2:
            return True
    return False


def language(tree: Union[MostRecentTree, MostFrequentTree]) -> set[Trace]:
    """Every selected trace of the tree, including (ε, ε); prefix-closed and functional."""
    result: set[Trace] = set()
    stack = [(tree.root, (), ())]
    while stack:
        node, ins, outs = stack.pop()
        result.add(Trace(ins, outs))
        for a, edge in node.items():
            stack.append((edge[0], ins + (a,), outs + (edge[1],)))
    return result


def sample_word(h: MealyMachine, cfg: SamplerConfig, rng: random.Random) -> Word:
    """One test word for the hypothesis; see PreparedSampler for the shape."""
    return PreparedSampler(minimize(h), cfg).draw(rng)


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


class ReferenceHypothesisLog:
    """HypothesisLog without its fingerprint memo: one fingerprint per record."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.representatives: dict[str, MealyMachine] = {}
        self.first_seen: dict[str, int] = {}
        self.latest: Optional[MealyMachine] = None
        self.total = 0

    def record(self, h: MealyMachine) -> str:
        fp = canonical_fingerprint(h)
        self.latest = h
        self.total += 1
        if fp not in self.counts:
            self.counts[fp] = 0
            self.representatives[fp] = h
            self.first_seen[fp] = self.total
        self.counts[fp] += 1
        return fp


def reference_characterization_set(h: MealyMachine) -> tuple[Word, ...]:
    """Witness-collecting partition refinement over all n(n-1)/2 state pairs.

    A pair differing on some emission gets that single symbol; otherwise a
    pair inherits (a,) + witness(successor pair) once the successors are
    separated. Passes run in lexicographic pair order and see the witnesses
    assigned earlier in the same pass.
    """
    n = h.n_states
    if n == 1:
        return ((0,),)
    ni = len(h.inputs)
    witness: dict[tuple[int, int], Word] = {}
    for p in range(n):
        for q in range(p + 1, n):
            for a in range(ni):
                if h.emissions[p][a] != h.emissions[q][a]:
                    witness[(p, q)] = (a,)
                    break
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(p + 1, n):
                if (p, q) in witness:
                    continue
                for a in range(ni):
                    sp, sq = h.transitions[p][a], h.transitions[q][a]
                    key = (min(sp, sq), max(sp, sq))
                    if sp != sq and key in witness:
                        witness[(p, q)] = (a,) + witness[key]
                        changed = True
                        break
    return tuple(sorted(set(witness.values())))


def reference_minimize(m: MealyMachine) -> MealyMachine:
    """Reachable, observationally minimal quotient of m, always a new machine.

    Partition refinement seeded by emission rows, iterated to a fixed point,
    then rebuilt with states numbered in BFS order from the initial block.
    """
    order = [m.initial]
    seen = {m.initial}
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for a in range(len(m.inputs)):
            nxt = m.transitions[q][a]
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    ni = len(m.inputs)

    block: dict[int, int] = {}
    rows: dict[tuple, int] = {}
    for q in order:
        row = m.emissions[q]
        if row not in rows:
            rows[row] = len(rows)
        block[q] = rows[row]

    while True:
        sigs: dict[tuple, int] = {}
        nxt_block: dict[int, int] = {}
        for q in order:
            sig = (block[q],) + tuple(block[m.transitions[q][a]] for a in range(ni))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt_block[q] = sigs[sig]
        if len(sigs) == len(rows):
            break
        rows = sigs
        block = nxt_block

    # representative of each block = first member in BFS order
    rep: dict[int, int] = {}
    for q in order:
        rep.setdefault(block[q], q)

    # renumber blocks in BFS order from the initial block
    renum: dict[int, int] = {block[m.initial]: 0}
    bfs = deque([block[m.initial]])
    rows_trans: dict[int, list[int]] = {}
    while bfs:
        b = bfs.popleft()
        q = rep[b]
        succ = []
        for a in range(ni):
            tb = block[m.transitions[q][a]]
            if tb not in renum:
                renum[tb] = len(renum)
                bfs.append(tb)
            succ.append(tb)
        rows_trans[renum[b]] = succ

    inv = {new: b for b, new in renum.items()}
    new_trans: list[tuple[int, ...]] = []
    new_emit: list[tuple[int, ...]] = []
    for new_id, succ in sorted(rows_trans.items()):
        q = rep[inv[new_id]]
        new_trans.append(tuple(renum[b] for b in succ))
        new_emit.append(tuple(m.emissions[q]))
    return MealyMachine(m.inputs, m.outputs, 0, tuple(new_trans), tuple(new_emit))


def reference_perturb(noise: NoiseModel, word: Word, alphabet_size: int) -> Word:
    """Each symbol independently replaced by a uniform draw with prob rate."""
    if noise.kind == "none" or noise.rate == 0.0:
        return word
    rng: random.Random = noise.rng
    return tuple(
        rng.randrange(alphabet_size) if rng.random() < noise.rate else s
        for s in word
    )


def reference_infix(sampler: PreparedSampler, rng: random.Random) -> Word:
    """Geometric-length uniform infix, its symbols drawn with randrange."""
    stop = 1.0 / (1.0 + sampler.cfg.mean_infix)
    k = 0
    while rng.random() >= stop and k < sampler.cfg.max_len:
        k += 1
    return tuple(rng.randrange(sampler.n_inputs) for _ in range(k))


def reference_draw(sampler: PreparedSampler, rng: random.Random) -> Word:
    """PreparedSampler.draw with its access and suffix indices from randrange."""
    word = (
        sampler.accesses[rng.randrange(len(sampler.accesses))]
        + reference_infix(sampler, rng)
        + sampler.suffixes[rng.randrange(len(sampler.suffixes))]
    )
    return word[: sampler.cfg.max_len]


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
        self.tests = 0
        self.symbols = 0
        self.max_tests = max_tests

    def probe(self, word: Word) -> Trace:
        if self.max_tests is not None and self.tests >= self.max_tests:
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
        self.tests += 1
        self.symbols += len(executed)
        return Trace(executed, outputs)


def reference_majority_query(system, word: Word, policy: RepeatPolicy) -> Word:
    """Vote by recounting the whole tally after every probe.

    Spells the four-fifths rule as a float share with slack, where
    ``ceal.sul`` compares integers.
    """
    votes: Counter[Word] = Counter()
    for _ in range(policy.min_repeats):
        votes[system.probe(word).outputs] += 1
    while True:
        total = sum(votes.values())
        best_n = max(votes.values())
        winners = [w for w, n in votes.items() if n == best_n]
        if best_n >= 0.8 * total - 1e-9:
            return winners[0]
        if total >= policy.max_repeats:
            return min(winners)
        votes[system.probe(word).outputs] += 1


class ReferenceLStarLearner(Learner):
    """L* that recomputes every row and rescans S from the start.

    Each closing step rebuilds the whole table from the memo; no row is
    cached and the scan restarts at S[0] after every new access word.
    """

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        super().__init__(inputs, outputs, teacher)
        self.S: list[Word] = [()]
        self.E: list[Word] = [(a,) for a in range(len(inputs))]

    def _row(self, s: Word) -> tuple[Word, ...]:
        return tuple(self._ask(s + e)[len(s):] for e in self.E)

    def build_hypothesis(self) -> MealyMachine:
        while True:  # close: every one-letter extension row must match an S row
            known = {self._row(s) for s in self.S}
            missing = None
            for s in self.S:
                for a in range(len(self.inputs)):
                    if self._row(s + (a,)) not in known:
                        missing = s + (a,)
                        break
                if missing is not None:
                    break
            if missing is None:
                break
            self.S.append(missing)
        row_index = {self._row(s): i for i, s in enumerate(self.S)}
        transitions = []
        emissions = []
        for s in self.S:
            r = self._row(s)
            transitions.append(tuple(
                row_index[self._row(s + (a,))] for a in range(len(self.inputs))
            ))
            emissions.append(tuple(r[a][0] for a in range(len(self.inputs))))
        m = MealyMachine(self.inputs, self.outputs, 0, tuple(transitions), tuple(emissions))
        self._hyp = m
        self._access = list(self.S)
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
            s_k = self._access[state_after[k]]
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
    __slots__ = ("access", "parent")

    def __init__(self, access: Word, parent: Optional["_Inner"]) -> None:
        self.access = access
        self.parent = parent


class _Inner:
    __slots__ = ("label", "children", "parent")

    def __init__(self, label: Word, parent: Optional["_Inner"]) -> None:
        self.label = label
        self.children: dict[Word, Union[_Leaf, "_Inner"]] = {}
        self.parent = parent


class ReferenceKVLearner(Learner):
    """KV that sifts every word from the root on every call."""

    def __init__(self, inputs: Alphabet, outputs: Alphabet, teacher: TeacherFn) -> None:
        super().__init__(inputs, outputs, teacher)
        self.root: Union[_Leaf, _Inner] = _Leaf((), None)
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
                leaf = _Leaf(word, node)
                node.children[t] = leaf
                self._sift_created = True
                return leaf
            node = child
        return node

    def build_hypothesis(self) -> MealyMachine:
        init = self.sift(())
        order: list[_Leaf] = [init]
        index: dict[int, int] = {id(init): 0}
        transitions: list[tuple[int, ...]] = []
        emissions: list[tuple[int, ...]] = []
        i = 0
        while i < len(order):
            leaf = order[i]
            i += 1
            trow = []
            erow = []
            for a in range(len(self.inputs)):
                w = leaf.access + (a,)
                erow.append(self._ask(w)[-1])
                succ = self.sift(w)
                if id(succ) not in index:
                    index[id(succ)] = len(order)
                    order.append(succ)
                trow.append(index[id(succ)])
            transitions.append(tuple(trow))
            emissions.append(tuple(erow))
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


class _MatCollapse(Exception):
    """A voted answer contradicted the MAT cache; the run cannot continue."""


def reference_run_mat(cfg: ExperimentConfig, seed: int, target: MealyMachine) -> RunResult:
    """One classical session: majority-voted queries with an answer cache.

    Membership answers are voted once and cached; equivalence testing
    samples words and votes each one directly against the system, counting
    each vote's symbols as equivalence symbols, also of a vote the budget
    cuts short. Any voted answer that contradicts the cache collapses the
    run, unjudged.
    """
    system = SimulatedSystem(
        target,
        NoiseModel.from_seed(cfg.noise_kind, cfg.noise_rate, seed),
        max_tests=cfg.max_queries,
    )
    cache = MostRecentTree()
    sampler_rng = random.Random(f"{seed}:sampler")
    eq_symbols = 0

    def commit(trace: Trace) -> None:
        if cache.update(trace):
            raise _MatCollapse()

    def teacher(word: Word) -> Word:
        stored = cache.lookup(word)
        if stored is not None:
            return stored
        outputs = majority_query(system, word, cfg.repeats)
        commit(Trace(word, outputs))
        return outputs

    def sampled_eq(h: MealyMachine) -> Optional[Trace]:
        nonlocal eq_symbols
        sampler = PreparedSampler(minimize(h), cfg.sampler)
        for _ in range(cfg.k_survive):
            word = sampler.draw(sampler_rng)
            before = system.symbols
            try:
                outputs = majority_query(system, word, cfg.repeats)
            finally:
                eq_symbols += system.symbols - before
            commit(Trace(word, outputs))
            if h.run(word) != outputs:
                return Trace(word, outputs)
        return None

    learner_cls = {"lstar_rs": LStarLearner, "kv": KVLearner}[cfg.learner]
    learner = learner_cls(target.inputs, target.outputs, teacher)
    last: Optional[MealyMachine] = None
    terminated_by = "stability"
    judged = True
    try:
        while True:
            h = learner.build_hypothesis()
            last = h
            cex = sampled_eq(h)
            if cex is None:
                break
            learner.refine(cex)
    except BudgetExhausted:
        terminated_by = "query_cap"
    except (_MatCollapse, InconsistentTeacher):
        terminated_by = "collapse"
        judged = False
    success = judged and last is not None and find_counterexample(last, target) is None
    fraction = eq_symbols / system.symbols if system.symbols else 0.0
    states = last.n_states if last is not None else 0
    return RunResult(success, system.tests, system.symbols, fraction, states, 0, terminated_by)
