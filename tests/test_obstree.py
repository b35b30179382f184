"""Observation tree semantics, checked against stream-replay oracles."""

from __future__ import annotations

import random
from typing import Iterator, Optional

import pytest

from ceal.mealy import Alphabet, MealyMachine, Trace, Word, random_machine
from ceal.obstree import MostFrequentTree, MostRecentTree
from oracles import (
    conflicts,
    language,
    naive_disagreement,
    replay_heaviest_wins,
    replay_latest_wins,
)

EPS = Trace((), ())


def tr(ins: str, outs: str) -> Trace:
    return Trace(tuple(int(c) for c in ins), tuple(int(c) for c in outs))


def test_conflicts_detects_first_divergent_output():
    assert conflicts(tr("01", "00"), tr("01", "01"))
    assert conflicts(tr("0", "1"), tr("011", "000"))
    assert not conflicts(tr("0", "0"), tr("01", "01"))
    assert not conflicts(tr("1", "0"), tr("01", "11"))  # inputs diverge first
    assert not conflicts(EPS, tr("0", "0"))


def test_recent_tree_additive_growth():
    t = MostRecentTree()
    assert t.lookup(()) == ()
    assert t.lookup((0,)) is None
    assert t.update(tr("01", "10")) is False
    assert t.update(tr("00", "11")) is False  # shares the first edge
    assert t.lookup((0, 1)) == (1, 0)
    assert t.lookup((0, 0)) == (1, 1)
    assert language(t) == {EPS, tr("0", "1"), tr("01", "10"), tr("00", "11")}


def test_recent_tree_overwrite_prunes_subtree():
    t = MostRecentTree()
    t.update(tr("000", "000"))
    t.update(tr("1", "1"))
    assert t.update(tr("0", "1")) is True  # contradicts the stored root edge
    assert t.lookup((0,)) == (1,)
    assert t.lookup((0, 0)) is None  # old continuation is gone
    assert t.lookup((1,)) == (1,)  # sibling untouched


def test_recent_tree_mid_trace_conflict_keeps_clean_prefix():
    t = MostRecentTree()
    t.update(tr("011", "011"))
    assert t.update(tr("01", "00")) is True
    assert t.lookup((0,)) == (0,)
    assert t.lookup((0, 1)) == (0,) + (0,)
    assert t.lookup((0, 1, 1)) is None


def test_frequent_tree_tie_resolves_to_most_recent():
    t = MostFrequentTree()
    for word in ("0", "1", "1", "0"):
        t.update(tr("0", word))
    # counts are even at 2:2; the last observation was output 0
    assert t.lookup((0,)) == (0,)


def test_frequent_tree_count_beats_recency():
    t = MostFrequentTree()
    t.update(tr("0", "0"))
    t.update(tr("0", "0"))
    t.update(tr("0", "1"))
    assert t.lookup((0,)) == (0,)


def test_frequent_tree_flag_sequence():
    t = MostFrequentTree()
    assert t.update(tr("0", "0")) is False  # nothing stored yet
    assert t.update(tr("0", "1")) is True  # fresh entry ties and is newer
    assert t.update(tr("0", "0")) is True  # count pulls ahead again
    assert t.update(tr("0", "1")) is True  # tie, recency flips once more
    assert t.update(tr("0", "1")) is False  # clear majority, nothing moves


def test_frequent_tree_offbranch_flip_not_flagged():
    t = MostFrequentTree()
    for _ in range(3):
        assert t.update(tr("0", "0")) is False
    # a losing sibling branch; churn below it must stay silent
    assert t.update(tr("01", "10")) is False
    assert t.update(tr("01", "11")) is False
    assert t.lookup((0,)) == (0,)
    assert t.lookup((0, 1)) is None


def test_frequent_tree_overtake_is_flagged():
    t = MostFrequentTree()
    t.update(tr("0", "0"))
    t.update(tr("0", "0"))
    assert t.update(tr("01", "10")) is False  # still strictly behind
    assert t.update(tr("01", "10")) is True  # ties at 2:2 and is newer
    assert t.lookup((0,)) == (1,)
    assert t.lookup((0, 1)) == (1, 0)


def _random_stream(
    rng: random.Random, n: int, n_outputs: int, max_len: int = 4
) -> list[Trace]:
    stream = []
    for _ in range(n):
        k = rng.randint(0, max_len)
        ins = tuple(rng.randrange(2) for _ in range(k))
        outs = tuple(rng.randrange(n_outputs) for _ in range(k))
        stream.append(Trace(ins, outs))
    return stream


def _seeds(n: int) -> list:
    """Seeds 0..n-1 with 2 outputs (ids "0", "1", ...) and with 3 ("0-3out", ...).

    Only with 3 outputs can three entries tie, or the selection move to an
    entry that was not the most recently observed one before the update.
    """
    return [
        pytest.param(seed, n_outputs, id=str(seed) if n_outputs == 2 else f"{seed}-3out")
        for n_outputs in (2, 3)
        for seed in range(n)
    ]


@pytest.mark.parametrize("seed,n_outputs", _seeds(8))
def test_recent_tree_matches_replay_oracle(seed, n_outputs):
    rng = random.Random(seed)
    stream = _random_stream(rng, 40, n_outputs)
    t = MostRecentTree()
    prev = language(t)
    for k, obs in enumerate(stream):
        flagged = t.update(obs)
        lang = language(t)
        assert lang == replay_latest_wins(stream[: k + 1])
        assert flagged == (not prev <= lang)
        prev = lang


@pytest.mark.parametrize("seed,n_outputs", _seeds(8))
def test_frequent_tree_matches_replay_oracle(seed, n_outputs):
    rng = random.Random(100 + seed)
    stream = _random_stream(rng, 40, n_outputs)
    t = MostFrequentTree()
    prev = language(t)
    for k, obs in enumerate(stream):
        flagged = t.update(obs)
        lang = language(t)
        assert lang == replay_heaviest_wins(stream[: k + 1])
        assert flagged == (not prev <= lang)
        prev = lang


def _machine_answering(
    lang: set[Trace], n_outputs: int, override: Optional[tuple[Word, int]] = None
) -> MealyMachine:
    """Tree-shaped machine that answers every trace of lang as stored.

    Words off the language go to a sink that emits 0. override gives one
    input word of lang another last output.
    """
    words = sorted(t.inputs for t in lang)
    state = {w: q for q, w in enumerate(words)}
    last = {t.inputs: t.outputs[-1] for t in lang if t.inputs}
    if override is not None:
        last[override[0]] = override[1]
    sink = len(words)
    trans = [tuple(state.get(w + (a,), sink) for a in (0, 1)) for w in words]
    emit = [tuple(last.get(w + (a,), 0) for a in (0, 1)) for w in words]
    return MealyMachine(
        Alphabet(("a", "b")), Alphabet(("x", "y", "z")[:n_outputs]),
        state[()], tuple(trans) + ((sink, sink),), tuple(emit) + ((0, 0),),
    )


def test_frequent_tree_flip_uncovers_churned_subtree():
    """A subtree that churned among 3 outputs while off the selected path
    must read as the oracle says once its parent flips to it."""
    t = MostFrequentTree()
    stream = [tr("0", "0")] * 12  # the selected branch
    # off-branch churn below 0/1: weights of 01/1y go 0:2 1:2 2:1, then 2
    # ties all three and wins from the back of the recency order; one level
    # deeper churns too
    stream += [tr("01", "1" + y) for y in "01201"]
    stream += [tr("01", "12"), tr("01", "12")]
    stream += [tr("011", "12" + z) for z in "021"]
    for obs in stream:
        assert t.update(obs) is False
    assert language(t) == replay_heaviest_wins(stream)
    assert t.lookup((0, 1)) is None
    old = _machine_answering(language(t), 3)
    assert t.find_disagreement(old) is None

    flip = [tr("0", "1"), tr("0", "1")]  # 0/1 reaches 12:12 and is newer
    assert t.update(flip[0]) is False
    assert t.update(flip[1]) is True
    stream += flip
    expected = replay_heaviest_wins(stream)
    assert language(t) == expected
    assert t.lookup((0, 1)) == (1, 2)
    assert t.lookup((0, 1, 1)) == (1, 2, 1)

    found = t.find_disagreement(old)
    assert found is not None and found in expected
    assert old.run(found.inputs) != found.outputs
    new = _machine_answering(expected, 3)
    assert t.find_disagreement(new) is None
    assert not naive_disagreement(expected, new)
    # a losing output anywhere in the uncovered subtree is caught
    for word, losing in (((0, 1), 0), ((0, 1), 1), ((0, 1, 1), 0), ((0, 1, 1), 2)):
        stale = _machine_answering(expected, 3, (word, losing))
        assert naive_disagreement(expected, stale)
        assert t.find_disagreement(stale) == Trace(word, t.lookup(word))


def test_update_rejects_ragged_trace():
    with pytest.raises(ValueError):
        MostRecentTree().update(Trace((0,), ()))
    with pytest.raises(ValueError):
        MostFrequentTree().update(Trace((0,), (0, 1)))


@pytest.mark.parametrize("tree_cls", [MostRecentTree, MostFrequentTree])
@pytest.mark.parametrize("seed,n_outputs", _seeds(6))
def test_incremental_disagreement_scan_is_exact(tree_cls, seed, n_outputs):
    """A full scan after every update agrees with a from-scratch check."""
    rng = random.Random(1000 + seed)
    outputs = Alphabet(("x", "y", "z")[:n_outputs])
    machine = random_machine(3, Alphabet(("a", "b")), outputs, seed=seed)
    t = tree_cls()
    for step in range(60):
        k = rng.randint(1, 5)
        word = tuple(rng.randrange(2) for _ in range(k))
        outs = list(machine.run(word))
        if rng.random() < 0.25:
            j = rng.randrange(k)
            # corrupt one output symbol; the 2-output flip draws nothing
            if n_outputs == 2:
                outs[j] ^= 1
            else:
                outs[j] = (outs[j] + rng.randrange(1, n_outputs)) % n_outputs
        t.update(Trace(word, tuple(outs)))
        found = t.find_disagreement(machine)
        truth = naive_disagreement(language(t), machine)
        assert (found is not None) == truth
        if found is not None:
            assert machine.run(found.inputs) != found.outputs
            assert found in language(t)


def _conflict_stream(seed: int, n_outputs: int) -> list[Trace]:
    """Traces of a random machine, some with one output corrupted at the
    trace's first, middle or last symbol."""
    rng = random.Random(2000 + seed)
    outputs = Alphabet(("x", "y", "z")[:n_outputs])
    machine = random_machine(3, Alphabet(("a", "b")), outputs, seed=seed)
    stream = []
    for _ in range(80):
        k = rng.randint(1, 6)
        word = tuple(rng.randrange(2) for _ in range(k))
        outs = list(machine.run(word))
        at = rng.choice((None, None, 0, k // 2, k - 1))
        if at is not None:
            outs[at] = (outs[at] + rng.randrange(1, n_outputs)) % n_outputs
        stream.append(Trace(word, tuple(outs)))
    return stream


def _walk(t) -> Iterator[tuple[dict, Optional[dict], Trace]]:
    """(node, parked edges, path) for every node dict of the tree, reached
    through selected and parked edges alike; lazily, so that a caller stops
    a walk round a cycle at the first node it meets twice."""
    stack = [(t.root, getattr(t, "_root_counts", None), (), ())]
    while stack:
        node, counts, ins, outs = stack.pop()
        parked = counts.others if counts is not None else None
        yield node, parked, Trace(ins, outs)
        edges = list(node.items())
        edges += [(a, edge) for (a, _), edge in (parked or {}).items()]
        for a, edge in edges:
            child_counts = edge[2] if len(edge) > 2 else None
            stack.append((edge[0], child_counts, ins + (a,), outs + (edge[1],)))


@pytest.mark.parametrize("tree_cls", [MostRecentTree, MostFrequentTree])
@pytest.mark.parametrize("seed,n_outputs", _seeds(4))
def test_updates_share_no_node(tree_cls, seed, n_outputs):
    """Every node dict hangs on exactly one path, every leaf is an empty dict
    at the end of an observed trace, and no parked edge is also selected."""
    stream = _conflict_stream(seed, n_outputs)
    t = tree_cls()
    conflicts_seen = 0
    for k, obs in enumerate(stream):
        conflicts_seen += t.update(obs)
        paths: dict[int, Trace] = {}
        for node, parked, path in _walk(t):
            assert type(node) is dict
            assert id(node) not in paths, f"{path} and {paths[id(node)]} share a node"
            paths[id(node)] = path
            if not node:
                assert not parked
                assert path in stream[: k + 1]
            for (a, o), edge in (parked or {}).items():
                assert edge[1] == o
                assert node[a] is not edge and node[a][1] != o
    assert conflicts_seen > 0


@pytest.mark.parametrize("tree_cls", [MostRecentTree, MostFrequentTree])
def test_disagreement_scan_returns_the_pinned_trace(tree_cls):
    """The scan checks a node's edges in insertion order before it descends,
    and descends into the last-inserted child first; every seeded run's
    result depends on which mismatching trace it returns."""
    zeros = MealyMachine(
        Alphabet(("a", "b", "c")), Alphabet(("x", "y")), 0, ((0, 0, 0),), ((0, 0, 0),)
    )
    t = tree_cls()
    t.update(tr("01", "01"))  # branch a: a mismatch at depth 2
    t.update(tr("12", "00"))  # branch b: agrees for now, ...
    t.update(tr("10", "01"))  # ... a second edge mismatches, ...
    t.update(tr("12", "01"))  # ... and the first edge, overwritten, keeps its slot
    t.update(tr("200", "000"))  # branch c: agrees
    assert t.find_disagreement(zeros) == tr("12", "01")
    t.update(tr("200", "001"))  # branch c: a mismatch at depth 3
    assert t.find_disagreement(zeros) == tr("200", "001")
