"""Machine semantics, DOT round-trips, equivalence checking, canonical forms."""

import random
from pathlib import Path

import pytest

from ceal.harness import load_target
from ceal.learners import KVLearner, LStarLearner
from ceal.mealy import (
    Alphabet,
    DotParseError,
    MealyMachine,
    Trace,
    canonical_fingerprint,
    find_counterexample,
    minimize,
    parse_dot,
    random_machine,
    write_dot,
)
from oracles import prefixes, reference_minimize

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_run_toggle(toggle):
    a = toggle.inputs.index("a")
    x, y = toggle.outputs.index("x"), toggle.outputs.index("y")
    assert toggle.run((a, a, a)) == (x, y, x)
    assert toggle.run(()) == ()


def test_run_rejects_unknown_symbol():
    # two inputs, so -len(inputs) = -2 would index a table row if let through
    m = MealyMachine(Alphabet(("a", "b")), Alphabet(("x",)), 0, ((0, 0),), ((0, 0),))
    for word in [(2,), (-1,), (-2,), ("a",), (0.0,), (None,), ([0],), (0, 5), (0, -1), (1, "a")]:
        with pytest.raises(ValueError, match="outside the machine's alphabet"):
            m.run(word)


def test_states_and_symbols_are_range_checked_everywhere():
    # two states and two inputs: -1 and n_states would index a table row if let through
    m = MealyMachine(Alphabet(("a", "b")), Alphabet(("x", "y")), 0, ((1, 0), (0, 1)), ((0, 1), (1, 0)))
    for state in (-1, m.n_states, 1.0):
        with pytest.raises(ValueError, match="outside the machine's states"):
            m.run((0,), start=state)
        with pytest.raises(ValueError, match="outside the machine's states"):
            m.state_after((0,), start=state)
        with pytest.raises(ValueError, match="outside the machine's states"):
            m.step(state, 0)
    for word in [(-1,), (2,), (0, -1), (1, 2), (0, "a")]:
        with pytest.raises(ValueError, match="outside the machine's alphabet"):
            m.state_after(word)
        with pytest.raises(ValueError, match="outside the machine's alphabet"):
            m.run(word, start=1)
    for symbol in (-1, 2):
        with pytest.raises(ValueError, match="outside the machine's alphabet"):
            m.step(0, symbol)
    assert m.state_after((0, 1)) == 1 and m.step(1, 0) == (0, 1)
    assert m.run((0, 1), start=1) == (1, 1)


def test_trace_prefixes():
    t = Trace((0, 1), (1, 0))
    assert list(prefixes(t)) == [Trace((), ()), Trace((0,), (1,)), Trace((0, 1), (1, 0))]


def test_alphabet_roundtrip():
    sigma = Alphabet(("syn", "ack", "fin"))
    assert sigma.word("ack fin syn") == (1, 2, 0)
    assert sigma.format((1, 2, 0)) == "ack fin syn"
    with pytest.raises(ValueError):
        sigma.index("nope")
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_machine_validation():
    sigma, gamma = Alphabet(("a",)), Alphabet(("x",))
    with pytest.raises(ValueError):
        MealyMachine(sigma, gamma, 0, ((1,),), ((0,),))  # successor out of range
    with pytest.raises(ValueError):
        MealyMachine(sigma, gamma, 2, ((0,),), ((0,),))  # bad initial
    with pytest.raises(ValueError):
        MealyMachine(sigma, gamma, 0, ((0,),), ((1,),))  # output out of range


TWO_STATE_DOT = """
digraph g {
  __start0 [label="" shape="none"];
  s0 [shape="circle" label="s0"];
  s1 [shape="circle" label="s1"];
  __start0 -> s0;
  s0 -> s1 [label="a/x"];
  s1 -> s0 [label="a/y"];
}
"""


def test_parse_dot_two_state_toggle(toggle):
    m, sigma, gamma = parse_dot(TWO_STATE_DOT)
    assert sigma.symbols == ("a",)
    assert gamma.symbols == ("x", "y")
    assert m.n_states == 2
    assert find_counterexample(m, toggle) is None


def test_parse_dot_initial_attr_and_first_declared():
    by_attr = """
    digraph g {
      s0 [label="s0"];
      s1 [label="s1" initial=true];
      s0 -> s1 [label="a/x"];
      s1 -> s0 [label="a/y"];
    }
    """
    m, _, _ = parse_dot(by_attr)
    assert m.initial == 1

    by_order = """
    digraph g {
      s1 -> s0 [label="a/y"];
      s0 -> s1 [label="a/x"];
    }
    """
    m2, _, _ = parse_dot(by_order)
    # first-declared node (s1, via the first edge) becomes initial
    assert m2.initial == 0 and m2.run((0,)) == (m2.outputs.index("y"),)


def test_parse_dot_numbers_edge_only_nodes_after_declared_ones():
    text = """
    digraph g {
      d [label="d"];
      c -> b [label="a/x"];
      b -> d [label="a/y"];
      d -> a [label="a/x"];
      a -> c [label="a/y"];
    }
    """
    m, _, gamma = parse_dot(text)
    x, y = gamma.index("x"), gamma.index("y")
    # d is declared, then c, b, a in order of first appearance on edges
    assert m.initial == 0
    assert m.transitions == ((3,), (2,), (0,), (1,))
    assert m.emissions == ((x,), (x,), (y,), (y,))


def test_parse_dot_errors_name_lines():
    missing_label = 'digraph g { s0 -> s1 [color="red"]; s1 -> s0 [label="a/x"]; s0 -> s1 [label="a/x"]; }'
    with pytest.raises(DotParseError, match="no label"):
        parse_dot(missing_label)

    bad_label = 'digraph g { s0 -> s0 [label="ax"]; }'
    with pytest.raises(DotParseError, match="input/output"):
        parse_dot(bad_label)

    dup = """
    digraph g {
      s0 -> s0 [label="a/x"];
      s0 -> s0 [label="a/y"];
    }
    """
    with pytest.raises(DotParseError, match="duplicate"):
        parse_dot(dup)

    partial = """
    digraph g {
      s0 -> s1 [label="a/x"];
      s1 -> s0 [label="a/x"];
      s0 -> s0 [label="b/x"];
    }
    """
    with pytest.raises(DotParseError, match="no transition"):
        parse_dot(partial)


def test_parse_dot_tolerates_same_duplicate_edge():
    text = """
    digraph g {
      s0 -> s0 [label="a/x"];
      s0 -> s0 [label="a/x"];
    }
    """
    m, _, _ = parse_dot(text)
    assert m.n_states == 1


def test_write_dot_roundtrip_random():
    sigma = Alphabet(("a", "b", "c"))
    gamma = Alphabet(("0", "1"))
    for seed in range(10):
        m = random_machine(5, sigma, gamma, seed)
        m2, s2, g2 = parse_dot(write_dot(m))
        assert s2.symbols == sigma.symbols and g2.symbols == gamma.symbols
        assert canonical_fingerprint(m2) == canonical_fingerprint(m)
        assert find_counterexample(m, m2) is None
    # large enough that a per-edge scan of the node list would dominate
    big = random_machine(2000, Alphabet(tuple("abcdefghij")), gamma, seed=0)
    assert parse_dot(write_dot(big))[0] == big


def test_find_counterexample_toggle_vs_constant(toggle, constant_x):
    cex = find_counterexample(toggle, constant_x)
    a = toggle.inputs.index("a")
    x, y = toggle.outputs.index("x"), toggle.outputs.index("y")
    assert cex == Trace((a, a), (x, y))  # shortest disagreement, outputs from toggle
    assert find_counterexample(toggle, toggle) is None


def test_find_counterexample_requires_shared_alphabets(toggle):
    other = MealyMachine(Alphabet(("z",)), toggle.outputs, 0, ((0,),), ((0,),))
    with pytest.raises(ValueError):
        find_counterexample(toggle, other)


def test_minimize_toggle_against_all_one_state_machines(toggle):
    mm = minimize(toggle)
    assert mm.n_states == 2
    # oracle: no 1-state machine over the same alphabets is equivalent
    for out_sym in range(len(toggle.outputs)):
        one = MealyMachine(toggle.inputs, toggle.outputs, 0, ((0,),), ((out_sym,),))
        assert find_counterexample(toggle, one) is not None


def test_minimize_merges_twins():
    # states 1 and 2 behave identically; state 3 is unreachable
    sigma, gamma = Alphabet(("a", "b")), Alphabet(("x", "y"))
    m = MealyMachine(
        sigma,
        gamma,
        0,
        transitions=((1, 2), (0, 1), (0, 2), (3, 3)),
        emissions=((0, 1), (1, 0), (1, 0), (0, 0)),
    )
    mm = minimize(m)
    assert mm.n_states == 2
    assert find_counterexample(mm, m) is None


def test_minimize_idempotent_and_preserves_language():
    sigma = Alphabet(("a", "b"))
    gamma = Alphabet(("0", "1", "2"))
    for seed in range(20):
        m = random_machine(6, sigma, gamma, seed)
        mm = minimize(m)
        assert find_counterexample(m, mm) is None
        assert mm.n_states <= m.n_states
        again = minimize(mm)
        assert again.n_states == mm.n_states


def _renumbered(m: MealyMachine, perm: list[int]) -> MealyMachine:
    """The same machine with state perm[i] renamed to i."""
    inv = {old: new for new, old in enumerate(perm)}
    trans = [()] * m.n_states
    emit = [()] * m.n_states
    for q in range(m.n_states):
        trans[inv[q]] = tuple(inv[s] for s in m.transitions[q])
        emit[inv[q]] = m.emissions[q]
    return MealyMachine(m.inputs, m.outputs, inv[m.initial], tuple(trans), tuple(emit))


def _with_extra_state(m: MealyMachine, row_of: int, redirect: bool) -> MealyMachine:
    """m plus a copy of state row_of; redirect=True points the initial state's
    first input at the copy (a reachable twin), otherwise nothing reaches it."""
    trans = [list(r) for r in m.transitions] + [list(m.transitions[row_of])]
    if redirect:
        trans[m.initial][0] = m.n_states
    return MealyMachine(m.inputs, m.outputs, m.initial, tuple(tuple(r) for r in trans),
                        m.emissions + (m.emissions[row_of],))


def _minimize_cases():
    rng = random.Random(11)
    cases = []
    for learner_cls in (KVLearner, LStarLearner):
        for seed in range(6):
            target = random_machine(4 + 5 * seed, Alphabet(("a", "b", "c")),
                                    Alphabet(("0", "1", "2")), seed)
            learner = learner_cls(target.inputs, target.outputs, target.run)
            while True:
                h = learner.build_hypothesis()
                cases.append((learner_cls.__name__, h))
                cex = find_counterexample(target, h)
                if cex is None:
                    break
                learner.refine(cex)
    bases = [random_machine(n, Alphabet(("a", "b")), Alphabet(("0", "1")), seed)
             for seed, n in enumerate((1, 2, 3, 5, 8, 8, 13, 21))]
    bases += [load_target(BENCHMARKS / f"{name}.dot") for name in ("lock", "session", "player")]
    bases += [minimize(m) for m in bases]
    for m in bases:
        perm = list(range(m.n_states))
        rng.shuffle(perm)
        cases.append(("random", m))
        cases.append(("shuffled", _renumbered(m, perm)))
        if m.n_states > 1:
            moved = rng.randrange(1, m.n_states)
            cases.append(("initial", MealyMachine(m.inputs, m.outputs, moved,
                                                  m.transitions, m.emissions)))
        cases.append(("unreachable", _with_extra_state(m, rng.randrange(m.n_states), False)))
        cases.append(("twin", _with_extra_state(m, m.transitions[m.initial][0], True)))
    return cases


def test_minimize_matches_reference_and_returns_canonical_machines_as_they_are():
    kinds_kept: dict[str, int] = {}
    for kind, m in _minimize_cases():
        want = reference_minimize(m)
        got = minimize(m)
        assert got == want, kind
        assert (got is m) == (want == m), kind
        assert minimize(want) is want  # a minimized machine is canonical
        if got is m:
            kinds_kept[kind] = kinds_kept.get(kind, 0) + 1
        if kind == "KVLearner":  # KV under a consistent teacher emits canonical machines
            assert got is m
        if kind in ("unreachable", "twin"):
            assert got is not m and got.n_states < m.n_states
    # both paths are taken, and renumbered copies of canonical machines are
    # rebuilt unless the shuffle happened to keep the BFS numbering
    assert kinds_kept["KVLearner"] and kinds_kept["random"]
    assert kinds_kept.get("shuffled", 0) < kinds_kept["random"]
    assert "initial" not in kinds_kept


def test_fingerprint_invariant_under_renumbering():
    sigma = Alphabet(("a", "b"))
    gamma = Alphabet(("0", "1"))
    rng = random.Random(7)
    for seed in range(15):
        m = random_machine(5, sigma, gamma, seed)
        perm = list(range(m.n_states))
        rng.shuffle(perm)
        inv = {old: new for new, old in enumerate(perm)}
        trans = [None] * m.n_states
        emit = [None] * m.n_states
        for q in range(m.n_states):
            trans[inv[q]] = tuple(inv[m.transitions[q][a]] for a in range(2))
            emit[inv[q]] = tuple(m.emissions[q])
        shuffled = MealyMachine(sigma, gamma, inv[m.initial], tuple(trans), tuple(emit))
        assert canonical_fingerprint(shuffled) == canonical_fingerprint(m)


def test_fingerprint_separates_on_random_pairs():
    sigma = Alphabet(("a", "b"))
    gamma = Alphabet(("0", "1"))
    machines = [random_machine(4, sigma, gamma, seed) for seed in range(12)]
    for i, m1 in enumerate(machines):
        for m2 in machines[i + 1 :]:
            same_fp = canonical_fingerprint(m1) == canonical_fingerprint(m2)
            same_lang = find_counterexample(m1, m2) is None
            assert same_fp == same_lang
            assert (minimize(m1) == minimize(m2)) == same_lang


def test_random_machine_deterministic_and_reachable():
    sigma = Alphabet(("a",))
    gamma = Alphabet(("x", "y"))
    m1 = random_machine(8, sigma, gamma, 42)
    m2 = random_machine(8, sigma, gamma, 42)
    assert m1 == m2
    assert minimize(m1).n_states <= 8

    single = random_machine(1, sigma, gamma, 0)
    assert single.transitions == ((0,),)


def test_random_machine_gives_up_on_a_sparse_alphabet():
    # a 20-state table over one input is reachable with odds of about 2e-8
    with pytest.raises(ValueError, match="20-state machine over 1 inputs"):
        random_machine(20, Alphabet(("a",)), Alphabet(("x", "y")), seed=0)
