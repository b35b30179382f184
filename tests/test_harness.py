"""Harness: config validation, runners, grid aggregation, reports, CLI."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from ceal import harness
from ceal.cli import build_parser, main
from ceal.harness import (
    GRID_KEYS,
    REPORT_FIELDS,
    ExperimentConfig,
    RunResult,
    emit_report,
    expand_grid,
    load_target,
    parse_grid_config,
    parse_seed_list,
    run,
    run_grid,
)
from ceal.learners import InconsistentTeacher, Learner, LStarLearner
from ceal.mealy import DotParseError, MealyMachine, write_dot
from ceal.sul import RepeatPolicy, SimulatedSystem
from oracles import reference_run_mat

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
LOCK = str(BENCH / "lock.dot")
SESSION = str(BENCH / "session.dot")
PLAYER = str(BENCH / "player.dot")


# --- configuration -----------------------------------------------------------


def test_config_defaults_validate():
    cfg = ExperimentConfig(target=LOCK)
    assert cfg.framework == "ceal"
    assert cfg.learner == "lstar_rs"
    assert cfg.repeats == RepeatPolicy(5, 10)
    assert cfg.seeds == tuple(range(20))


def test_config_normalizes_case_and_seed_container():
    cfg = ExperimentConfig(target=LOCK, framework="MAT", learner="KV", seeds=[3, 1])
    assert cfg.framework == "mat"
    assert cfg.learner == "kv"
    assert cfg.seeds == (3, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"framework": "angluin"},
        {"learner": "ttt"},
        {"noise_kind": "gaussian"},
        {"noise_rate": -0.1},
        {"noise_rate": 1.5},
        {"update_strategy": "newest"},
        {"selection": "oldest"},
        {"k_survive": 0},
        {"max_queries": 0},
        {"seeds": ()},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(target=LOCK, **kwargs)


# --- single runs -------------------------------------------------------------


def test_ceal_noise_free_learns_exactly():
    cfg = ExperimentConfig(target=LOCK, seeds=(0,))
    r = run(cfg, 0)
    assert r.success
    assert r.prunes == 0  # nothing to resolve without noise
    assert r.terminated_by == "stability"
    assert r.hypothesis_states == 4
    assert 0.0 <= r.eq_fraction <= 1.0
    assert r.symbols >= r.tests > 0


def test_mat_noise_free_learns_exactly():
    cfg = ExperimentConfig(target=LOCK, framework="mat", seeds=(0,))
    r = run(cfg, 0)
    assert r.success
    assert r.prunes == 0
    assert r.terminated_by == "stability"
    assert r.hypothesis_states == 4


@pytest.mark.parametrize("framework", ["ceal", "mat"])
def test_noise_free_cost_scales_linearly_with_repeats(framework):
    # unanimous votes keep the learning path identical, so total tests are
    # exactly min_repeats times the single-shot run's
    base = ExperimentConfig(
        target=LOCK, framework=framework, repeats=RepeatPolicy(1, 1), seeds=(0,)
    )
    voted = ExperimentConfig(
        target=LOCK, framework=framework, repeats=RepeatPolicy(5, 10), seeds=(0,)
    )
    r1, r5 = run(base, 0), run(voted, 0)
    assert r1.success and r5.success
    assert r5.tests == 5 * r1.tests
    assert r5.symbols == 5 * r1.symbols
    assert r5.eq_fraction == pytest.approx(r1.eq_fraction)


@pytest.mark.parametrize("framework", ["ceal", "mat"])
def test_same_seed_reproduces_result(framework):
    cfg = ExperimentConfig(
        target=SESSION, framework=framework,
        noise_kind="output", noise_rate=0.05, seeds=(7,),
    )
    assert run(cfg, 7) == run(cfg, 7)


def test_query_cap_ends_run_unfinished():
    cfg = ExperimentConfig(target=LOCK, max_queries=40, seeds=(0,))
    r = run(cfg, 0)
    assert r.terminated_by == "query_cap"
    assert r.tests == 40  # the budget is a hard ceiling
    assert not r.success


def test_mat_query_cap():
    cfg = ExperimentConfig(target=LOCK, framework="mat", max_queries=40, seeds=(0,))
    r = run(cfg, 0)
    assert r.terminated_by == "query_cap"
    assert r.tests == 40
    assert not r.success


def test_mat_collapses_under_heavy_noise_and_is_never_judged_successful():
    seen = []
    for seed in range(10):
        cfg = ExperimentConfig(
            target=LOCK, framework="mat",
            noise_kind="output", noise_rate=0.3,
            max_queries=20_000, seeds=(seed,),
        )
        seen.append(run(cfg, seed))
    collapsed = [r for r in seen if r.terminated_by == "collapse"]
    assert collapsed, "0.3 output noise should contradict the cache eventually"
    assert all(not r.success for r in collapsed)
    assert all(r.prunes == 0 for r in seen)


def test_mat_matches_reference_run_for_run():
    # MAT is the Reviser loop without tree check, ended by its first
    # conflict; the hand-written classical teacher must give the same
    # RunResult for every session. The tree and selection options are set
    # to their non-default values, which MAT ignores.
    outcomes = set()
    for path in (LOCK, SESSION, PLAYER):
        target = load_target(path)
        for learner in ("lstar_rs", "kv"):
            for kind, rate in (("none", 0.0), ("input", 0.05), ("input", 0.2),
                               ("output", 0.05), ("output", 0.3)):
                for repeats in (RepeatPolicy(1, 1), RepeatPolicy(3, 5)):
                    cfg = ExperimentConfig(
                        target=path, framework="mat", learner=learner,
                        repeats=repeats, noise_kind=kind, noise_rate=rate,
                        update_strategy="most_frequent", selection="most_frequent",
                        max_queries=3_000,
                    )
                    for seed in range(4):
                        got = run(cfg, seed, target)
                        assert repr(got) == repr(reference_run_mat(cfg, seed, target)), (
                            path, learner, kind, rate, repeats, seed)
                        outcomes.add(got.terminated_by)
    assert {"collapse", "stability"} <= outcomes


def test_ceal_survives_noise_that_collapses_mat():
    wins = 0
    for seed in range(5):
        cfg = ExperimentConfig(
            target=LOCK, noise_kind="output", noise_rate=0.05, seeds=(seed,)
        )
        r = run(cfg, seed)
        assert r.terminated_by == "stability"
        wins += r.success
    assert wins >= 4


def test_ceal_counts_prunes_under_noise():
    total = 0
    for seed in range(5):
        cfg = ExperimentConfig(
            target=SESSION, noise_kind="output", noise_rate=0.05, seeds=(seed,)
        )
        total += run(cfg, seed).prunes
    assert total > 0  # wrong votes happen at this rate; each costs a prune


@pytest.mark.parametrize("framework", ["ceal", "mat"])
def test_every_counted_prune_is_one_restart(framework, monkeypatch):
    restarts = []
    real_restart = Learner.restart

    def counting(self):
        restarts.append(self)
        return real_restart(self)

    monkeypatch.setattr(Learner, "restart", counting)
    cfg = ExperimentConfig(
        target=LOCK, framework=framework, noise_kind="output", noise_rate=0.3,
        repeats=RepeatPolicy(1, 1), max_queries=2_000, seeds=(2,),
    )
    r = run(cfg, 2)
    assert r.prunes == len(restarts)
    if framework == "ceal":
        assert r.prunes > 0 and r.terminated_by == "query_cap"
    else:  # the first conflict ends a MAT run before any restart
        assert r.prunes == 0 and r.terminated_by == "collapse"


def test_mat_lets_a_learners_inconsistent_teacher_propagate(monkeypatch):
    class Contradicted(LStarLearner):
        def build_hypothesis(self):
            raise InconsistentTeacher("answers fit no single machine")

    monkeypatch.setitem(harness._LEARNER_CLASSES, "lstar_rs", Contradicted)
    cfg = ExperimentConfig(target=LOCK, framework="mat", seeds=(0,))
    with pytest.raises(InconsistentTeacher):
        run(cfg, 0)


@pytest.mark.parametrize("framework", ["ceal", "mat"])
@pytest.mark.parametrize("noise_kind", ["output", "input"])
def test_every_charged_test_is_one_probe_call(monkeypatch, framework, noise_kind):
    probe = SimulatedSystem.probe
    returned = [0]

    def counted(self, word, phase="mq"):
        outputs = probe(self, word, phase)
        returned[0] += 1
        return outputs

    monkeypatch.setattr(SimulatedSystem, "probe", counted)
    cfg = ExperimentConfig(
        target=LOCK, framework=framework, repeats=RepeatPolicy(5, 10),
        noise_kind=noise_kind, noise_rate=0.05, max_queries=20_000,
    )
    for seed in range(2):
        returned[0] = 0
        result = run(cfg, seed)
        assert result.tests == returned[0] > 0


# --- grid --------------------------------------------------------------------


def test_grid_single_cell_success_rate_one():
    cfg = ExperimentConfig(target=LOCK, seeds=tuple(range(3)))
    rows = run_grid([cfg])
    assert len(rows) == 1
    row = rows[0]
    assert row["experiment"] == LOCK  # the target as the grid file names it
    assert row["success_rate"] == 1.0
    assert row["runs"] == 3
    assert row["test_count_mean"] > 0
    assert row["prune_count_mean"] == 0.0


def test_grid_skips_unreadable_target_and_continues(tmp_path):
    bad = ExperimentConfig(target=str(tmp_path / "missing.dot"), seeds=(0,))
    good = ExperimentConfig(target=LOCK, seeds=(0,))
    rows = run_grid([bad, good])
    assert len(rows) == 2
    assert rows[0]["success_rate"] == 1.0  # best-first ordering
    assert rows[1]["success_rate"] is None
    assert rows[1]["runs"] == 0


def test_grid_zero_success_cell_reports_absent_means():
    cfg = ExperimentConfig(target=LOCK, max_queries=10, seeds=(0, 1))
    row = run_grid([cfg])[0]
    assert row["success_rate"] == 0.0
    assert row["test_count_mean"] is None
    assert row["eq_fraction_mean"] is None
    assert row["runs"] == 2


def test_grid_orders_rows_best_first():
    full = ExperimentConfig(target=LOCK, seeds=(0, 1))
    starved = ExperimentConfig(target=LOCK, max_queries=10, seeds=(0, 1))
    rows = run_grid([starved, full])
    assert [r["success_rate"] for r in rows] == [1.0, 0.0]


def test_grid_on_result_sees_every_run_in_order():
    cfg = ExperimentConfig(target=LOCK, seeds=(2, 0, 1))
    seen = []
    run_grid([cfg], on_result=lambda c, s, r: seen.append(s))
    assert seen == [2, 0, 1]


def test_grid_rows_name_repeats_as_grid_files_do_and_sort_them_by_value(tmp_path):
    missing = str(tmp_path / "missing.dot")  # errored cells tie on every statistic
    cells = [
        ExperimentConfig(target=missing, repeats=RepeatPolicy(n, n), seeds=(0,))
        for n in (10, 2)
    ]
    rows = run_grid(cells)
    assert [r["repeats"] for r in rows] == ["2:2", "10:10"]
    lines = emit_report(rows).splitlines()
    assert lines[1].split(",")[3] == "2:2"  # one CSV field, no quotes


def test_grid_rows_tell_apart_targets_that_share_a_file_name(tmp_path):
    copy = tmp_path / "other" / "lock.dot"
    copy.parent.mkdir()
    copy.write_text(Path(LOCK).read_text(encoding="utf-8"), encoding="utf-8")
    cells = [
        ExperimentConfig(target=target, repeats=RepeatPolicy(1, 1), seeds=(0,))
        for target in (LOCK, str(copy))
    ]
    rows = run_grid(cells)
    assert sorted(r["experiment"] for r in rows) == sorted([LOCK, str(copy)])


# --- target loading ----------------------------------------------------------


def test_load_target_shares_one_machine_per_text(tmp_path):
    copy = tmp_path / "lock.dot"
    copy.write_text(Path(LOCK).read_text(encoding="utf-8"), encoding="utf-8")
    first = load_target(copy)
    assert load_target(copy) is first
    assert load_target(LOCK) is first  # keyed by the text, not the path


def test_load_target_parses_a_rewritten_file_again(tmp_path, toggle):
    path = tmp_path / "model.dot"
    path.write_text(Path(LOCK).read_text(encoding="utf-8"), encoding="utf-8")
    lock = load_target(path)
    path.write_text(write_dot(toggle), encoding="utf-8")
    assert load_target(path) == toggle != lock


def test_load_target_raises_on_every_load_of_a_malformed_file(tmp_path, toggle):
    path = tmp_path / "bad.dot"
    path.write_text('digraph g { s0 -> s0 [label="ax"]; }', encoding="utf-8")
    for _ in range(2):
        with pytest.raises(DotParseError, match="input/output"):
            load_target(path)
    path.write_text(write_dot(toggle), encoding="utf-8")
    assert load_target(path) == toggle


def test_run_grid_parses_a_shared_target_once(tmp_path, monkeypatch):
    path = tmp_path / "lock.dot"
    # a text no other test loads, so no earlier load has parsed it
    text = Path(LOCK).read_text(encoding="utf-8") + f"// {path}\n"
    path.write_text(text, encoding="utf-8")
    parsed = []
    parse_dot = harness.parse_dot
    monkeypatch.setattr(harness, "parse_dot", lambda t: parsed.append(t) or parse_dot(t))
    cells = expand_grid({
        "targets": str(path), "frameworks": "ceal, mat", "learners": "lstar_rs, kv",
        "repeats": "1:1", "seeds": "0",
    })
    rows = run_grid(cells)
    assert len(rows) == 4 and all(r["success_rate"] == 1.0 for r in rows)
    assert parsed == [text]


# --- reports -----------------------------------------------------------------


def test_report_csv_header_and_rounding():
    cfg = ExperimentConfig(target=LOCK, seeds=(0,))
    text = emit_report(run_grid([cfg]))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_FIELDS)
    cells = lines[1].split(",")
    assert cells[0] == LOCK
    assert cells[-6] == "1.00"  # success_rate, two decimals
    assert cells[-1] == "1"


def test_report_csv_keeps_distinct_noise_levels_distinct(tmp_path):
    missing = str(tmp_path / "missing.dot")  # errored cells: rows without runs
    cells = [
        ExperimentConfig(target=missing, noise_kind="output", noise_rate=rate, seeds=(0,))
        for rate in (0.005, 0.01)
    ] + [ExperimentConfig(target=LOCK, repeats=RepeatPolicy(1, 1), seeds=(0,))]
    rows = list(csv.DictReader(emit_report(run_grid(cells)).splitlines()))
    levels = [row["noise_level"] for row in rows]
    assert levels == ["0.0", "0.005", "0.01"]  # best-first: the lock cell succeeds
    assert [float(level) for level in levels] == [0.0, 0.005, 0.01]
    assert rows[0]["success_rate"] == "1.00"  # statistics keep two decimals


def test_report_csv_empty_rows_is_header_only():
    assert emit_report([]) == ",".join(REPORT_FIELDS) + "\n"


def test_report_csv_absent_values_render_empty(tmp_path):
    cfg = ExperimentConfig(target=str(tmp_path / "missing.dot"), seeds=(0,))
    line = emit_report(run_grid([cfg])).strip().split("\n")[1]
    # success_rate and all four means are empty, runs is 0
    assert line.endswith(",,,,,,0")


def test_report_json_round_trips():
    cfg = ExperimentConfig(target=LOCK, seeds=(0,))
    rows = run_grid([cfg])
    parsed = json.loads(emit_report(rows, "json"))
    assert parsed == [{f: row[f] for f in REPORT_FIELDS} for row in rows]


def test_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


# --- grid config parsing -----------------------------------------------------


def test_parse_grid_config_comments_and_blanks():
    options = parse_grid_config(
        "# sweep\n\ntargets = a.dot, b.dot  # two models\nseeds = 0..1\n"
    )
    assert options == {"targets": "a.dot, b.dot", "seeds": "0..1"}


def test_parse_grid_config_rejects_duplicates_and_junk():
    with pytest.raises(ValueError):
        parse_grid_config("seeds = 0\nseeds = 1\n")
    with pytest.raises(ValueError):
        parse_grid_config("just some words\n")


def test_parse_seed_list_ranges_and_singletons():
    assert parse_seed_list("0..3") == (0, 1, 2, 3)
    assert parse_seed_list("5") == (5,)
    assert parse_seed_list("1, 3..5, 9") == (1, 3, 4, 5, 9)
    with pytest.raises(ValueError):
        parse_seed_list("4..2")
    with pytest.raises(ValueError):
        parse_seed_list(" , ")


def test_expand_grid_crosses_the_axes():
    cells = expand_grid(
        {
            "targets": "a.dot, b.dot",
            "frameworks": "mat, ceal",
            "learners": "lstar_rs, kv",
            "noise": "none:0, output:0.05",
            "repeats": "1:1, 5:10",
            "seeds": "0..4",
        }
    )
    assert len(cells) == 2 * 2 * 2 * 2 * 2
    assert all(c.seeds == (0, 1, 2, 3, 4) for c in cells)
    assert {c.framework for c in cells} == {"mat", "ceal"}
    assert {c.repeats for c in cells} == {RepeatPolicy(1, 1), RepeatPolicy(5, 10)}


def test_expand_grid_defaults_and_base_dir(tmp_path):
    cells = expand_grid({"targets": "m.dot"}, base_dir=tmp_path)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.target == str(tmp_path / "m.dot")
    assert cell.framework == "ceal"
    assert cell.repeats == RepeatPolicy(5, 10)
    assert cell.seeds == tuple(range(20))


def test_expand_grid_keeps_absolute_targets(tmp_path):
    cells = expand_grid({"targets": LOCK, "seeds": "0"}, base_dir=tmp_path)
    assert cells[0].target == LOCK


def test_expand_grid_rejects_unknown_keys_and_missing_targets():
    with pytest.raises(ValueError):
        expand_grid({"targets": "a.dot", "colour": "red"})
    with pytest.raises(ValueError):
        expand_grid({"seeds": "0..1"})


@pytest.mark.parametrize("axis", ["targets", "frameworks", "learners", "noise", "repeats"])
def test_grid_rejects_an_empty_axis(axis, tmp_path, capsys):
    options = {"targets": LOCK, "seeds": "0", axis: " , "}
    with pytest.raises(ValueError, match=axis):
        expand_grid(options)
    config = tmp_path / "empty.grid"
    config.write_text("".join(f"{k} = {v}\n" for k, v in options.items()), encoding="utf-8")
    assert main(["grid", "--config", str(config)]) == 2
    assert "is empty" in capsys.readouterr().err


@pytest.mark.parametrize("axis, entries", [
    ("targets", "lock.dot, lock.dot"),
    ("frameworks", "ceal, CEAL"),
    ("learners", "kv, lstar_rs, KV"),
    ("noise", "output:0.05, output:.05"),
    ("repeats", "1:1, 1: 1"),
    ("seeds", "0..2, 1"),
])
def test_grid_rejects_a_repeated_axis_entry(axis, entries, tmp_path, capsys):
    options = {"targets": LOCK, "seeds": "0", axis: entries}
    with pytest.raises(ValueError, match=f"{axis} repeats an entry"):
        expand_grid(options)
    config = tmp_path / "twice.grid"
    config.write_text("".join(f"{k} = {v}\n" for k, v in options.items()), encoding="utf-8")
    assert main(["grid", "--config", str(config)]) == 2
    assert f"{axis} repeats an entry" in capsys.readouterr().err


# --- CLI ---------------------------------------------------------------------


def test_cli_run_json(capsys):
    code = main([
        "run", "--target", LOCK, "--seed", "0",
        "--repeats", "1:1", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is True
    assert payload["terminated_by"] == "stability"


def test_cli_run_text(capsys):
    assert main(["run", "--target", LOCK, "--repeats", "1:1"]) == 0
    out = capsys.readouterr().out
    assert "success: yes" in out
    assert "prunes: 0" in out


def test_cli_run_bad_noise_flag(capsys):
    assert main(["run", "--target", LOCK, "--noise", "output"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_rejects_nan_mean_infix(capsys):
    assert main(["run", "--target", LOCK, "--mean-infix", "nan", "--json"]) == 2
    assert "mean_infix" in capsys.readouterr().err


def test_cli_grid_writes_report_and_log(tmp_path, capsys):
    config = tmp_path / "sweep.grid"
    config.write_text(
        f"targets = {LOCK}\nrepeats = 1:1\nseeds = 0..1\n", encoding="utf-8"
    )
    out = tmp_path / "report.csv"
    log = tmp_path / "runs.jsonl"
    code = main([
        "grid", "--config", str(config),
        "--out", str(out), "--run-log", str(log),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert len(lines) == 2
    records = [json.loads(l) for l in log.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 2
    assert {r["seed"] for r in records} == {0, 1}
    assert all(r["success"] for r in records)


def test_cli_grid_run_log_names_the_repeats(tmp_path):
    config = tmp_path / "sweep.grid"
    config.write_text(f"targets = {LOCK}\nrepeats = 1:1, 3:5\nseeds = 0\n", encoding="utf-8")
    log = tmp_path / "runs.jsonl"
    assert main(["grid", "--config", str(config), "--run-log", str(log)]) == 0
    records = [json.loads(l) for l in log.read_text(encoding="utf-8").splitlines()]
    assert [r["repeats"] for r in records] == ["1:1", "3:5"]


def test_cli_grid_json_to_stdout(tmp_path, capsys):
    config = tmp_path / "sweep.grid"
    config.write_text(
        f"targets = {LOCK}\nrepeats = 1:1\nseeds = 0\n", encoding="utf-8"
    )
    assert main(["grid", "--config", str(config), "--format", "json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert rows[0]["success_rate"] == 1.0
    # the report ends its last line, once, on stdout and in --out
    assert out.endswith("]\n") and not out.endswith("\n\n")
    report = tmp_path / "report.json"
    assert main(["grid", "--config", str(config), "--format", "json", "--out", str(report)]) == 0
    assert report.read_text(encoding="utf-8") == out


def test_cli_grid_missing_config(tmp_path, capsys):
    assert main(["grid", "--config", str(tmp_path / "nope.grid")]) == 2


def test_cli_check_equivalent(capsys):
    assert main(["check", LOCK, LOCK]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_cli_check_finds_difference(tmp_path, capsys):
    target = load_target(LOCK)
    emissions = [list(row) for row in target.emissions]
    emissions[0][0] = (emissions[0][0] + 1) % len(target.outputs)
    twisted = MealyMachine(
        target.inputs, target.outputs, target.initial,
        target.transitions, tuple(tuple(row) for row in emissions),
    )
    other = tmp_path / "twisted.dot"
    other.write_text(write_dot(twisted), encoding="utf-8")
    assert main(["check", LOCK, str(other)]) == 1
    assert "counterexample:" in capsys.readouterr().out


def test_cli_check_alphabet_mismatch(tmp_path, capsys):
    session = tmp_path / "session.dot"
    session.write_text(Path(SESSION).read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["check", LOCK, str(session)]) == 1
    assert "alphabet" in capsys.readouterr().out


# --- ceal run is the one-cell grid -------------------------------------------

RUN_FLAGS = {
    "targets": "--target",
    "frameworks": "--framework",
    "learners": "--learner",
    "seeds": "--seed",
    "noise": "--noise",
    "repeats": "--repeats",
    "update_strategy": "--update-strategy",
    "selection": "--selection",
    "sampler": "--sampler",
    "mean_infix": "--mean-infix",
    "max_len": "--max-len",
    "k_survive": "--k-survive",
    "max_queries": "--max-queries",
}

# one entry per key, none of them the default
ONE_ENTRY = {
    "targets": SESSION,
    "frameworks": "mat",
    "learners": "kv",
    "seeds": "3",
    "noise": "output:0.05",
    "repeats": "1:3",
    "update_strategy": "most_frequent",
    "selection": "most_recent",
    "sampler": "random_walk",
    "mean_infix": "2.5",
    "max_len": "30",
    "k_survive": "7",
    "max_queries": "1000",
}


@pytest.fixture
def built(monkeypatch):
    """The (config, seed) of every session `ceal run` starts; none runs."""
    calls = []

    def fake_run(cfg, seed):
        calls.append((cfg, seed))
        return RunResult(True, 1, 1, 0.0, 1, 0, "stability")

    monkeypatch.setattr("ceal.cli.run", fake_run)
    return calls


def test_run_flags_are_the_grid_keys():
    args = vars(build_parser().parse_args(["run", "--target", LOCK]))
    assert args.keys() - {"command", "func", "json"} == GRID_KEYS.keys()
    assert RUN_FLAGS.keys() == GRID_KEYS.keys() == ONE_ENTRY.keys()


def test_cli_run_without_options_builds_the_default_cell(built):
    assert main(["run", "--target", LOCK]) == 0
    assert built == [(ExperimentConfig(LOCK, seeds=(0,)), 0)]


@pytest.mark.parametrize("key", list(GRID_KEYS))
def test_cli_run_builds_the_one_cell_grid(key, built):
    flags = {"--target": LOCK, RUN_FLAGS[key]: ONE_ENTRY[key]}
    assert main(["run", *(part for item in flags.items() for part in item), "--json"]) == 0
    (cell,) = expand_grid({"targets": LOCK, "seeds": "0", key: ONE_ENTRY[key]})
    assert cell != ExperimentConfig(LOCK, seeds=(0,))
    assert built == [(cell, cell.seeds[0])]


@pytest.mark.parametrize("flag, value", [("--framework", "ceal,mat"), ("--seed", "0..2")])
def test_cli_run_rejects_more_than_one_cell_or_seed(flag, value, built, capsys):
    assert main(["run", "--target", LOCK, flag, value]) == 2
    assert "ceal grid" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("k_survive", "x"),
        ("max_queries", "x"),
        ("max_len", "x"),
        ("mean_infix", "x"),
        ("seeds", "x"),
        ("noise", "output:x"),
        ("repeats", "1:x"),
    ],
)
def test_parse_errors_name_their_key(key, value, tmp_path, built, capsys):
    options = {"targets": LOCK, key: value}
    with pytest.raises(ValueError, match=f"^{key}: "):
        expand_grid(options)
    config = tmp_path / "bad.grid"
    config.write_text("".join(f"{k} = {v}\n" for k, v in options.items()), encoding="utf-8")
    assert main(["grid", "--config", str(config)]) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert main(["run", "--target", LOCK, RUN_FLAGS[key], value]) == 2
    assert f"error: {key}: " in capsys.readouterr().err
    assert built == []
