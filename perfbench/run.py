#!/usr/bin/env python3
"""Benchmark of ceal: paper cost and session throughput per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload voted-paper --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

    voted-paper   the paper's ceal-vs-MAT grid, output noise 0.05, voting 5:10
    light-vote    conflict-heavy ceal, voting 1:1, both observation trees
    clean-large   noise-free runs on random 120-state targets

One process, no threads. Set-up (interpreter start, import, target
generation, cell construction) is timed in fresh child processes, as
their CPU seconds scaled like session times, and reported as the median.
The sweep then runs every session of the workload once through
``ceal.harness.run`` in run_grid order; that pass gives the
paper metrics and the result digest. Sessions then repeat in the same
order until ``--seconds`` of wall time have passed, each repeat checked
against the first outcome. Session times are process CPU seconds scaled by
a reference loop sampled alongside (perfbench/calibration.py), because on
a shared machine the same work can run twice as slow for tens of seconds;
a session's time is the median over its repeats.

With ``--trace 1`` the sweep runs one untraced pass and one pass under the
tracer (perfbench/tracer.py) and reports the per-layer metrics instead;
the tracing overhead is the traced pass's scaled CPU time over the untraced
one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A session whose
``run()`` raises counts as failed; it is recorded, never retried or
dropped. Files go to ``.bench_out/<workload>-seed<seed>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from calibration import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOAD_NAMES = ("voted-paper", "light-vote", "clean-large")
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # sessions that must lie beyond the reported tail percentile
TERMINATIONS = ("stability", "query_cap", "collapse")
# End-to-end metrics in the final JSON line of an untraced run. The others
# are printed too, and reported per layer as harness.<name> by a traced run.
# No bound of at most a quarter holds them across seeds: the tail rests on
# the ten slowest sessions, success and symbols on the few light-vote
# successes, and the cap and error shares are 0 on some workloads.
BOUNDED = ("setup_s", "runs_per_s", "session_s_p50", "tests_mean", "peak_rss_mb")
UNBOUNDED = ("session_s_tail", "success_rate", "symbols_mean", "cap_share", "error_share")
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.build(sys.argv[2], int(sys.argv[3]), sys.argv[4])"
)


@dataclass(frozen=True)
class SessionError:
    """A session whose run() raised; kept in place of its RunResult."""

    kind: str
    message: str


def outcome_repr(outcome) -> str:
    """Digest line: the RunResult's repr, or the repr of the error type."""
    if isinstance(outcome, SessionError):
        return repr(outcome.kind)
    return repr(outcome)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome_repr(outcome).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_session(run, cfg, seed, target, log: list):
    """One run() call, isolated: an exception becomes a SessionError."""
    try:
        return run(cfg, seed, target)
    except Exception as exc:  # a failing session must not end the sweep
        log.append(traceback.format_exc())
        return SessionError(type(exc).__name__, str(exc))


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(name: str, seed: int, out_dir: Path) -> list[float]:
    """CPU seconds of fresh processes that each start, import ceal and build
    the workload, scaled for the machine's speed like session times."""
    probe = SpeedProbe()
    raw = []  # (CPU s, mid time)
    for _ in range(SETUP_REPEATS):
        probe.sample()
        begun, before = time.monotonic(), children_cpu()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), name, str(seed), str(out_dir)],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        raw.append((children_cpu() - before, (begun + time.monotonic()) / 2))
    probe.sample()
    return [cpu * probe.scale(at) for cpu, at in raw]


@dataclass
class Sweep:
    outcomes: list  # first pass, in session order
    times: list[float]  # per session: median scaled CPU seconds over its repeats
    mismatches: int  # repeats whose outcome differed from the first pass
    tracebacks: list[str]  # of the first pass's failed sessions, in order
    runs: int  # sessions run, repeats included


def sweep(run, sessions, seconds: float) -> Sweep:
    """Run every session once, then repeat in order until `seconds` of wall time."""
    n = len(sessions)
    probe = SpeedProbe()
    raw: list[list[tuple[float, float]]] = [[] for _ in range(n)]  # (CPU s, mid time)
    result = Sweep([], [], 0, [], 0)
    deadline = time.monotonic() + seconds
    while result.runs < n or time.monotonic() < deadline:
        if probe.due():
            probe.sample()
        i = result.runs % n
        cfg, seed, target = sessions[i]
        first = result.runs < n
        begun, start = time.monotonic(), time.process_time()
        outcome = run_session(run, cfg, seed, target, result.tracebacks if first else [])
        cpu = time.process_time() - start
        raw[i].append((cpu, (begun + time.monotonic()) / 2))
        if first:
            result.outcomes.append(outcome)
        elif outcome != result.outcomes[i]:
            result.mismatches += 1
        result.runs += 1
    probe.sample()
    result.times = [statistics.median(cpu * probe.scale(at) for cpu, at in r) for r in raw]
    return result


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it."""
    return max(50, 100 * (n - TAIL_BEYOND) // n)


def violations(sessions, outcomes) -> list[str]:
    """Broken RunResult invariants, one message each."""
    found = []
    for i, ((cfg, seed, _), out) in enumerate(zip(sessions, outcomes)):
        if isinstance(out, SessionError):
            continue
        where = f"session {i} ({Path(cfg.target).stem}, {cfg.framework}, {cfg.learner}, seed {seed})"
        if out.tests > cfg.max_queries:
            found.append(f"{where}: {out.tests} tests over the cap {cfg.max_queries}")
        if not 0.0 <= out.eq_fraction <= 1.0:
            found.append(f"{where}: eq_fraction {out.eq_fraction} outside [0, 1]")
        if out.terminated_by not in TERMINATIONS:
            found.append(f"{where}: unknown termination {out.terminated_by!r}")
    return found


def end_to_end(sessions, outcomes, times, setup_times) -> dict[str, tuple[float, str]]:
    """The ten end-to-end metrics. With no successful session the paper's
    cost per correct model has no value; tests_mean then reads as the query
    cap, the most a success can cost, and symbols_mean as the most symbols
    any session spent, so the loss shows as a cost rise."""
    n = len(outcomes)
    returned = [o for o in outcomes if not isinstance(o, SessionError)]
    wins = [r for r in returned if r.success]
    if wins:
        tests_mean = statistics.fmean(r.tests for r in wins)
        symbols_mean = statistics.fmean(r.symbols for r in wins)
    else:
        tests_mean = max(cfg.max_queries for cfg, _, _ in sessions)
        symbols_mean = max((r.symbols for r in returned), default=0)
    ordered = sorted(times)
    tail = statistics.quantiles(ordered, n=100, method="inclusive")[tail_percentile(n) - 1]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "runs_per_s": (n / sum(times), "1/norm_cpu_s"),
        "session_s_p50": (statistics.median(ordered), "norm_cpu_s"),
        "session_s_tail": (tail, "norm_cpu_s"),
        "success_rate": (len(wins) / n, "share"),
        "tests_mean": (tests_mean, "tests"),
        "symbols_mean": (symbols_mean, "symbols"),
        "cap_share": (sum(r.terminated_by == "query_cap" for r in returned) / n, "share"),
        "error_share": ((n - len(returned)) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_sweep(run, sessions):
    """One traced pass: outcomes, probe-count mismatches, tracer, and the
    pass's CPU seconds scaled like session times."""
    from tracer import Tracer  # imports ceal, so only after the source check

    tracer = Tracer()
    probe = SpeedProbe()
    outcomes = []
    probe_mismatches = []
    raw = []  # (CPU s, mid time) per session
    with tracer.installed():
        traced_run = tracer.session(run)
        for i, (cfg, seed, target) in enumerate(sessions):
            if probe.due():
                probe.sample()
            before = tracer.probes()
            begun, start = time.monotonic(), time.process_time()
            outcome = run_session(traced_run, cfg, seed, target, [])
            raw.append((time.process_time() - start, (begun + time.monotonic()) / 2))
            probes = tracer.probes() - before
            if not isinstance(outcome, SessionError) and probes != outcome.tests:
                probe_mismatches.append(f"session {i}: {probes} probes traced, {outcome.tests} tests")
            outcomes.append(outcome)
    probe.sample()
    return outcomes, probe_mismatches, tracer, sum(cpu * probe.scale(at) for cpu, at in raw)


def write_run_log(path: Path, sessions, result: Sweep) -> None:
    failures = iter(result.tracebacks)
    with path.open("w", encoding="utf-8") as f:
        for i, ((cfg, seed, _), out) in enumerate(zip(sessions, result.outcomes)):
            entry = {
                "session": i,
                "target": Path(cfg.target).stem,
                "framework": cfg.framework,
                "learner": cfg.learner,
                "update_strategy": cfg.update_strategy,
                "seed": seed,
                "norm_cpu_s": result.times[i],
            }
            if isinstance(out, SessionError):
                entry["error"] = asdict(out)
                entry["traceback"] = next(failures, "")
            else:
                entry["result"] = asdict(out)
            f.write(json.dumps(entry) + "\n")


def format_metrics(metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [f"  {name:<36} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the one recorded in digests.json)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="wall seconds to keep repeating sessions for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ceal").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: no ceal sources (src/ceal, benchmarks/) under {ROOT}", file=sys.stderr)
        return 2
    import workloads
    from ceal.harness import run

    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    seed = recorded["default_seed"] if args.seed is None else args.seed
    out_dir = OUT_DIR / f"{args.workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_times = measure_setup(args.workload, seed, out_dir)
    sessions = list(workloads.build(args.workload, seed, out_dir).sessions())
    n = len(sessions)

    result = sweep(run, sessions, 0.0 if args.trace else args.seconds)
    outcomes = result.outcomes
    write_run_log(out_dir / "runlog.jsonl", sessions, result)
    metrics = end_to_end(sessions, outcomes, result.times, setup_times)
    problems = violations(sessions, outcomes)
    if not metrics["success_rate"][0]:
        problems.append("no session learned its target")
    if result.mismatches:
        problems.append(f"{result.mismatches} repeated sessions disagreed with their first outcome")
    found = digest(outcomes)
    expected = recorded["digests"].get(args.workload, {}).get(str(seed))
    status = "unrecorded" if expected is None else ("match" if found == expected else "changed")
    failed = sum(isinstance(o, SessionError) for o in outcomes)

    print(f"workload: {args.workload}  seed: {seed}  sessions: {n}  "
          f"session runs: {result.runs}  tail: p{tail_percentile(n)} of {n}")
    print(f"digest: {status} {found}")
    for line in result.tracebacks:
        print("session error: " + line.strip().splitlines()[-1])
    print("end to end (session times in speed-scaled process CPU seconds):")
    print("\n".join(format_metrics(metrics)))
    reported = {k: metrics[k] for k in BOUNDED}

    if args.trace:
        traced, probe_mismatches, tracer, traced_s = traced_sweep(run, sessions)
        problems += probe_mismatches
        if digest(traced) != found:
            problems.append("traced digest differs from the untraced digest")
        layer = tracer.layer_metrics()
        returned = [o for o in traced if not isinstance(o, SessionError)]
        layer["reviser.prunes"] = (sum(r.prunes for r in returned), "count")
        for name in UNBOUNDED:
            layer[f"harness.{name}"] = metrics[name]
        layer["trace.overhead_share"] = (traced_s / sum(result.times) - 1, "share")
        spans = {name: {k: getattr(st, k) for k in st.__slots__}
                 for name, st in tracer.spans.items()}
        (out_dir / "spans.json").write_text(json.dumps(spans, indent=1), encoding="utf-8")
        print("per layer (traced pass, wall seconds):")
        print("\n".join(format_metrics(layer)))
        reported = layer

    for problem in problems:
        print("check failed: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
