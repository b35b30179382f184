"""Finite Mealy machines: representation, semantics, DOT I/O, and canonicalization.

A machine is a complete deterministic transducer over two finite alphabets.
States are dense integers 0..n-1; input and output symbols are integer indices
into an Alphabet. Words are plain tuples of symbol indices, traces are
input/output word pairs of equal length.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

Word = tuple[int, ...]

EPSILON: Word = ()


class Trace(NamedTuple):
    """An observed behaviour: equal-length input and output words."""

    inputs: Word
    outputs: Word


@dataclass(frozen=True)
class Alphabet:
    """An ordered, duplicate-free set of symbol names; index = position."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols!r}")
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown symbol {name!r}") from None

    def word(self, names: str | list[str]) -> Word:
        """Build a word from space-separated names or a list of names."""
        parts = names.split() if isinstance(names, str) else names
        return tuple(self.index(p) for p in parts)

    def format(self, word: Word) -> str:
        return " ".join(self.symbols[s] for s in word)


@dataclass(frozen=True)
class MealyMachine:
    """Complete deterministic Mealy machine.

    transitions[q][a] is the successor state, emissions[q][a] the output
    symbol produced while reading input a in state q. Immutable after
    construction; all operations that look like mutation build new machines.
    Machines compare and hash by their alphabets, initial state and tables;
    the hash is computed once, at construction, since machines serve as
    dict keys.
    """

    inputs: Alphabet
    outputs: Alphabet
    initial: int
    transitions: tuple[tuple[int, ...], ...]
    emissions: tuple[tuple[int, ...], ...]
    _symbols: frozenset[int] = field(init=False, repr=False, compare=False, hash=False)
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_symbols", frozenset(range(len(self.inputs))))
        n = len(self.transitions)
        if n == 0:
            raise ValueError("machine needs at least one state")
        if len(self.emissions) != n:
            raise ValueError("transition and emission tables disagree on state count")
        if not (0 <= self.initial < n):
            raise ValueError(f"initial state {self.initial} out of range")
        ni, no = len(self.inputs), len(self.outputs)
        for q in range(n):
            if len(self.transitions[q]) != ni or len(self.emissions[q]) != ni:
                raise ValueError(f"state {q}: table row does not cover the input alphabet")
            for a in range(ni):
                if not (0 <= self.transitions[q][a] < n):
                    raise ValueError(f"state {q}, input {a}: successor out of range")
                if not (0 <= self.emissions[q][a] < no):
                    raise ValueError(f"state {q}, input {a}: output symbol out of range")
        key = (self.inputs, self.outputs, self.initial, self.transitions, self.emissions)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def run(self, word: Word, start: Optional[int] = None) -> Word:
        """Length-preserving output word for an input word (from the initial state)."""
        q = self.initial if start is None else self._check_state(start)
        # One set test for the whole word instead of an isinstance per symbol.
        # It rejects negative ints, which would index from the end, as well
        # as out-of-range and unhashable symbols; a float equal to a symbol
        # passes it but cannot index a table row. All reach the handler.
        trans, emit = self.transitions, self.emissions
        out = []
        try:
            if not self._symbols.issuperset(word):
                raise TypeError
            for a in word:
                out.append(emit[q][a])
                q = trans[q][a]
        except TypeError:
            self._check_word(word)
            raise
        return tuple(out)

    def states(self, word: Word) -> list[int]:
        """States visited reading the word from the initial state, both ends included."""
        self._check_word(word)
        visited = [self.initial]
        for a in word:
            visited.append(self.transitions[visited[-1]][a])
        return visited

    def _check_state(self, state: int) -> int:
        # a negative state would index a table row from the end
        if not isinstance(state, int) or not 0 <= state < len(self.transitions):
            raise ValueError(f"state {state!r} outside the machine's states")
        return state

    def _check_word(self, word: Word) -> None:
        for a in word:
            if not isinstance(a, int) or a not in self._symbols:
                raise ValueError(f"input symbol {a!r} outside the machine's alphabet") from None


def _reachable_order(m: MealyMachine) -> list[int]:
    # BFS from the initial state, children in input-symbol order
    seen = {m.initial}
    order = [m.initial]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for a in range(len(m.inputs)):
            nxt = m.transitions[q][a]
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def minimize(m: MealyMachine) -> MealyMachine:
    """Reachable, observationally minimal quotient of m.

    Partition refinement seeded by emission rows, iterated to a fixed point,
    then rebuilt with states numbered in BFS order from the initial block.
    When m is already canonical (every state reachable and in its own
    block, and numbered 0..n-1 in BFS order from initial state 0), the
    rebuild would reproduce m table for table, so m itself is returned.
    """
    order = _reachable_order(m)
    ni = len(m.inputs)

    block: dict[int, int] = {}
    rows: dict[tuple, int] = {}
    for q in order:
        row = m.emissions[q]
        if row not in rows:
            rows[row] = len(rows)
        block[q] = rows[row]

    # blocks only ever split, so all-singleton blocks are a fixed point
    while len(rows) < len(order):
        sigs: dict[tuple, int] = {}
        nxt: dict[int, int] = {}
        for q in order:
            sig = (block[q],) + tuple(block[m.transitions[q][a]] for a in range(ni))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            nxt[q] = sigs[sig]
        if len(sigs) == len(rows):
            break
        rows = sigs
        block = nxt

    if len(rows) == m.n_states and order == list(range(m.n_states)):
        return m

    # representative of each block = first member in BFS order
    rep: dict[int, int] = {}
    for q in order:
        rep.setdefault(block[q], q)

    # renumber blocks in BFS order from the initial block
    renum: dict[int, int] = {block[m.initial]: 0}
    bfs = deque([block[m.initial]])
    new_trans: list[tuple[int, ...]] = []
    new_emit: list[tuple[int, ...]] = []
    # blocks leave the queue in the order they were numbered, so each
    # block's rows are appended at its new id
    while bfs:
        q = rep[bfs.popleft()]
        succ = []
        for a in range(ni):
            tb = block[m.transitions[q][a]]
            if tb not in renum:
                renum[tb] = len(renum)
                bfs.append(tb)
            succ.append(renum[tb])
        new_trans.append(tuple(succ))
        new_emit.append(tuple(m.emissions[q]))
    return MealyMachine(m.inputs, m.outputs, 0, tuple(new_trans), tuple(new_emit))


def canonical_fingerprint(m: MealyMachine) -> str:
    """Text digest that coincides exactly for language-equivalent machines.

    SHA-256 of minimize(m)'s alphabets and tables: minimization plus BFS
    renumbering yields a canonical form. It is stable and serializable, for
    use outside a session; within a session, hypotheses are keyed by the
    canonical minimal machine itself (see ceal.reviser.HypothesisLog).
    """
    mm = minimize(m)
    blob = repr((mm.inputs.symbols, mm.outputs.symbols, mm.transitions, mm.emissions))
    return hashlib.sha256(blob.encode()).hexdigest()


def find_counterexample(m1: MealyMachine, m2: MealyMachine) -> Optional[Trace]:
    """Shortest input word on which the machines disagree, with m1's outputs.

    None when the machines are language-equivalent. Both machines must share
    both alphabets.
    """
    if m1.inputs.symbols != m2.inputs.symbols or m1.outputs.symbols != m2.outputs.symbols:
        raise ValueError("machines must share input and output alphabets")
    ni = len(m1.inputs)
    start = (m1.initial, m2.initial)
    seen = {start}
    queue: deque[tuple[int, int, Word]] = deque([(m1.initial, m2.initial, EPSILON)])
    while queue:
        q1, q2, path = queue.popleft()
        for a in range(ni):
            if m1.emissions[q1][a] != m2.emissions[q2][a]:
                word = path + (a,)
                return Trace(word, m1.run(word))
            pair = (m1.transitions[q1][a], m2.transitions[q2][a])
            if pair not in seen:
                seen.add(pair)
                queue.append((m1.transitions[q1][a], m2.transitions[q2][a], path + (a,)))
    return None


def random_machine(
    n_states: int,
    inputs: Alphabet,
    outputs: Alphabet,
    seed: int,
) -> MealyMachine:
    """Uniformly random complete machine with every state reachable.

    Tables are redrawn until reachability holds, so the result is a
    deterministic function of the seed. Raises ValueError after 1,000
    draws: with few inputs per state almost no table is reachable.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    rng = random.Random(f"{seed}:machine")
    ni, no = len(inputs), len(outputs)
    for _ in range(1000):
        trans = tuple(tuple(rng.randrange(n_states) for _ in range(ni)) for _ in range(n_states))
        emit = tuple(tuple(rng.randrange(no) for _ in range(ni)) for _ in range(n_states))
        m = MealyMachine(inputs, outputs, 0, trans, emit)
        if len(_reachable_order(m)) == n_states:
            return m
    raise ValueError(f"no reachable {n_states}-state machine over {ni} inputs "
                     f"in 1000 draws")


class DotParseError(ValueError):
    """Raised for malformed or non-total DOT machine descriptions."""


_NODE_RE = re.compile(r'^\s*"?([\w.+-]+)"?\s*(\[(.*)\])?\s*;?\s*$')
_EDGE_RE = re.compile(r'^\s*"?([\w.+-]+)"?\s*->\s*"?([\w.+-]+)"?\s*(\[(.*)\])?\s*;?\s*$')
_LABEL_RE = re.compile(r'label\s*=\s*(?:"([^"]*)"|([\w./+-]+))')
_INITIAL_RE = re.compile(r"initial\s*=\s*(?:\"true\"|true)", re.IGNORECASE)


def parse_dot(text: str) -> tuple[MealyMachine, Alphabet, Alphabet]:
    """Parse a DOT digraph with `input/output` edge labels into a machine.

    Conventions accepted, in priority order for the initial state:
    a dummy node whose name starts with `__start` and that has a single
    unlabeled out-edge; a node attribute `initial=true`; otherwise the
    first-declared node. Labels split on the first `/`, surrounding
    whitespace trimmed. Alphabets are the sorted distinct labels. Errors
    (missing labels, duplicate conflicting edges, non-total states) name
    the offending line or state.
    """
    body = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    lines = body.splitlines()

    declared: dict[str, None] = {}  # node declaration order
    initial_attr: Optional[str] = None
    edges: list[tuple[str, str, str, str, int]] = []  # src, dst, in, out, line no
    start_edges: dict[str, str] = {}  # dummy -> target

    in_graph = False
    done = False
    statements: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        if done:
            break
        line = raw.split("//")[0].strip()
        if not line or line.startswith("#"):
            continue
        if not in_graph:
            brace = line.find("{")
            if brace < 0:
                continue
            in_graph = True
            line = line[brace + 1 :]
        close = line.find("}")
        if close >= 0:
            line = line[:close]
            done = True
        for stmt in line.split(";"):
            if stmt.strip():
                statements.append((lineno, stmt.strip()))

    for lineno, line in statements:
        em = _EDGE_RE.match(line)
        if em:
            src, dst, _, attrs = em.groups()
            label_m = _LABEL_RE.search(attrs or "")
            label = label_m.group(1) if label_m and label_m.group(1) is not None else (
                label_m.group(2) if label_m else None
            )
            if src.startswith("__start"):
                if src in start_edges:
                    raise DotParseError(f"line {lineno}: second edge out of start marker {src!r}")
                start_edges[src] = dst
                continue
            if label is None or label.strip() == "":
                raise DotParseError(f"line {lineno}: edge {src!r} -> {dst!r} has no label")
            if "/" not in label:
                raise DotParseError(
                    f"line {lineno}: edge label {label!r} is not of the form input/output"
                )
            i_sym, o_sym = (part.strip() for part in label.split("/", 1))
            if not i_sym or not o_sym:
                raise DotParseError(f"line {lineno}: empty symbol in edge label {label!r}")
            edges.append((src, dst, i_sym, o_sym, lineno))
            continue
        nm = _NODE_RE.match(line)
        if nm:
            name, _, attrs = nm.groups()
            if name in ("node", "edge", "graph", "digraph"):
                continue
            if name.startswith("__start"):
                continue
            declared.setdefault(name)
            if attrs and _INITIAL_RE.search(attrs):
                if initial_attr is not None and initial_attr != name:
                    raise DotParseError(f"line {lineno}: multiple nodes marked initial=true")
                initial_attr = name
            continue
        raise DotParseError(f"line {lineno}: cannot parse statement {line!r}")

    if not in_graph:
        raise DotParseError("no digraph block found")

    # declared nodes first, then edge endpoints in order of first appearance
    state_id = {name: i for i, name in enumerate(declared)}
    for src, dst, _, _, _ in edges:
        state_id.setdefault(src, len(state_id))
        state_id.setdefault(dst, len(state_id))
    if not state_id:
        raise DotParseError("no states found")

    if start_edges:
        target = next(iter(start_edges.values()))
        if target not in state_id:
            raise DotParseError(f"start marker points at unknown node {target!r}")
        initial = state_id[target]
    elif initial_attr is not None:
        initial = state_id[initial_attr]
    else:
        initial = 0

    sigma = Alphabet(tuple(sorted({e[2] for e in edges})))
    gamma = Alphabet(tuple(sorted({e[3] for e in edges})))

    input_id = {sym: a for a, sym in enumerate(sigma.symbols)}
    output_id = {sym: b for b, sym in enumerate(gamma.symbols)}
    n = len(state_id)
    trans: list[list[Optional[int]]] = [[None] * len(sigma) for _ in range(n)]
    emit: list[list[Optional[int]]] = [[None] * len(sigma) for _ in range(n)]
    for src, dst, i_sym, o_sym, lineno in edges:
        q, a = state_id[src], input_id[i_sym]
        pair = (state_id[dst], output_id[o_sym])
        if trans[q][a] is not None and (trans[q][a], emit[q][a]) != pair:
            raise DotParseError(
                f"line {lineno}: duplicate transition for state {src!r} on input {i_sym!r}"
            )
        trans[q][a], emit[q][a] = pair

    for name, q in state_id.items():
        for a, sym in enumerate(sigma.symbols):
            if trans[q][a] is None:
                raise DotParseError(f"state {name!r} has no transition on input {sym!r}")

    machine = MealyMachine(
        sigma,
        gamma,
        initial,
        tuple(tuple(row) for row in trans),  # type: ignore[arg-type]
        tuple(tuple(row) for row in emit),  # type: ignore[arg-type]
    )
    return machine, sigma, gamma


# parse_dot strips names and splits a label at its first "/"; a quote ends
# the label, ";" or "}" the statement, a line break or "//" the line, and
# "/*" opens a comment
_DOT_CUTS = re.compile(r'["};]|//|/\*')


def write_dot(m: MealyMachine, name: str = "g") -> str:
    """Serialize a machine to DOT; parse_dot reads it back by symbol name.

    Raises ValueError naming every symbol that no label can spell, or a
    graph name that would cut the header line.
    """
    # splitlines differs with and without line ends iff the name holds a break
    if "{" in name or "//" in name or name.splitlines() != name.splitlines(keepends=True):
        raise ValueError(f"parse_dot would not read back the graph name {name!r}")
    bad = [s for s in m.inputs.symbols + m.outputs.symbols
           if s != s.strip() or s.splitlines() != [s] or _DOT_CUTS.search(s)]
    bad += [s for s in m.inputs.symbols if "/" in s]
    # after the label's "/", a leading "/" or "*" would open a comment
    bad += [s for s in m.outputs.symbols if s[:1] in ("/", "*")]
    if bad:
        raise ValueError(f"parse_dot would not read back the symbols {sorted(set(bad))!r}")
    out = [f"digraph {name} {{"]
    out.append('  __start0 [label="" shape="none"];')
    for q in range(m.n_states):
        out.append(f'  s{q} [shape="circle" label="s{q}"];')
    out.append(f"  __start0 -> s{m.initial};")
    for q in range(m.n_states):
        for a in range(len(m.inputs)):
            i_sym = m.inputs.symbols[a]
            o_sym = m.outputs.symbols[m.emissions[q][a]]
            out.append(f'  s{q} -> s{m.transitions[q][a]} [label="{i_sym}/{o_sym}"];')
    out.append("}")
    return "\n".join(out) + "\n"
