"""Command line front end and the schedulability-ratio experiment harness.

Exit codes: 0 success (and schedulable / no violations), 1 for an
unschedulable set or a trace violation, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

from .gen import GenSpec, Scenario, make_taskset
from .model import InvalidConstraint, InvalidTask, Task, TaskSet, WeaklyHardConstraint
from .priority import assign_priorities
from .rta import InterferencePolicy, analyze
from .sequences import transformation_cost
from .sim import (
    AlwaysWcet,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Synchronous,
    UniformUpToWcet,
    check_trace,
    simulate,
)

_ANALYSIS_POLICY = {
    "rm": InterferencePolicy.FIXED_PRIORITY_RM,
    "edf": InterferencePolicy.GLOBAL_EDF,
    "wh": InterferencePolicy.WEAKLY_HARD_JC0,
}
_SIM_POLICY = {
    "rm": SchedulingPolicy.RM,
    "edf": SchedulingPolicy.EDF,
    "wh": SchedulingPolicy.JOB_CLASS,
}

_TASK_FIELDS = ("id", "C", "D", "T", "m", "K")


def _is_int(v) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def load_taskset(path: str) -> TaskSet:
    """Read a version-1 task set file, reporting a precise field on error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = doc.get("version")
    if not _is_int(version) or version != 1:
        raise ValueError(f"{path}: version: expected 1, got {version!r}")
    items = doc.get("tasks")
    if not isinstance(items, list):
        raise ValueError(f"{path}: tasks: expected a list")
    tasks = []
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: tasks[{i}]: expected an object")
        values = {}
        for name in _TASK_FIELDS:
            v = obj.get(name)
            if not _is_int(v):
                raise ValueError(f"{path}: tasks[{i}].{name}: expected an integer, got {v!r}")
            values[name] = v
        try:
            tasks.append(Task(
                values["id"], values["C"], values["D"], values["T"],
                WeaklyHardConstraint(values["m"], values["K"]),
            ))
        except (InvalidTask, InvalidConstraint) as e:
            raise ValueError(f"{path}: tasks[{i}]: {e}") from None
    try:
        return TaskSet(tuple(tasks))
    except InvalidTask as e:
        raise ValueError(f"{path}: {e}") from None


def save_taskset(ts: TaskSet, path: str) -> None:
    doc = {
        "version": 1,
        "tasks": [
            {"id": t.id, "C": t.wcet, "D": t.deadline, "T": t.period,
             "m": t.constraint.m, "K": t.constraint.K}
            for t in ts
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    policy: str
    scenario: str
    tasks: int
    cores: int
    window: int
    target_u: float
    sets_total: int
    sets_schedulable: int
    ratio: float
    mean_analysis_seconds: float


def run_experiment(
    policies: list[str],
    scenario: Scenario,
    tasks: int,
    cores: int,
    window: int,
    sets: int,
    u_list: list[float],
    seed: int = 0,
    period_range: tuple[int, int] = (10, 1000),
    periods: tuple[int, ...] | None = None,
) -> list[ExperimentResult]:
    """Schedulability ratio sweep over target utilizations.

    For each target utilization, ``sets`` task sets are generated with
    per-set seed = master seed XOR set index, and the same sets are
    analyzed under every requested policy, so the per-policy ratios are
    paired.  Results are sorted by (policy, target utilization).  All
    columns except the timing one are deterministic for a given seed.

    Raises:
        ValueError: if sets < 1 or cores < 1.
    """
    _check_at_least_one("sets", sets)
    _check_at_least_one("cores", cores)
    results = []
    for target in u_list:
        batch = [
            make_taskset(GenSpec(
                tasks, target, window, scenario, period_range, periods, seed ^ i,
            ))
            for i in range(sets)
        ]
        for name in policies:
            policy = _ANALYSIS_POLICY[name]
            schedulable = 0
            elapsed = 0.0
            for ts in batch:
                t0 = time.perf_counter()
                report = analyze(ts, cores, policy)
                elapsed += time.perf_counter() - t0
                schedulable += report.set_schedulable
            results.append(ExperimentResult(
                name, scenario.value, tasks, cores, window, target,
                sets, schedulable, schedulable / sets, elapsed / sets,
            ))
    results.sort(key=lambda r: (r.policy, r.target_u))
    return results


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _check_at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _parse_release(text: str):
    if text == "sync":
        return Synchronous()
    if text.startswith("jitter:"):
        try:
            jitter = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad release spec {text!r}, expected sync or jitter:N") from None
        return SporadicJitter(jitter)
    raise ValueError(f"bad release spec {text!r}, expected sync or jitter:N")


def _parse_u_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"bad utilization list {text!r}") from None
    if not values:
        raise ValueError("empty utilization list")
    for u in values:
        if not u > 0:
            raise ValueError(f"bad utilization list {text!r}: every target must be > 0, got {u}")
    return values


def _parse_period_grid(text: str | None) -> tuple[int, ...] | None:
    if not text:
        return None
    periods = []
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            periods.append(int(item))
        except ValueError:
            raise ValueError(f"bad --period-grid item {item!r}, expected an integer") from None
    return tuple(periods)


def _parse_policies(text: str) -> list[str]:
    names = [x.strip() for x in text.split(",") if x.strip()]
    for name in names:
        if name not in _ANALYSIS_POLICY:
            raise ValueError(f"unknown policy {name!r}, expected rm, edf, or wh")
    if not names:
        raise ValueError("empty policy list")
    return names


def cmd_count(args) -> int:
    cost = transformation_cost(WeaklyHardConstraint(args.m, args.k))
    print(f"{cost.transformed_count}/{cost.original_count} {cost.decimal()}")
    return 0


def cmd_priorities(args) -> int:
    ts = load_taskset(args.infile)
    table = assign_priorities(ts)
    max_q = max(table.class_count(tid) for tid in table.order)
    rows = [["task"] + [f"q={q}" for q in range(max_q)]]
    for tid in table.order:
        rows.append([str(tid)] + [str(table.priority(tid, q))
                                  for q in range(table.class_count(tid))])
    widths = [max(len(row[col]) for row in rows if col < len(row))
              for col in range(max_q + 1)]
    with _out_stream(args.out) as out:
        for row in rows:
            out.write("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip())
            out.write("\n")
    return 0


def cmd_analyze(args) -> int:
    ts = load_taskset(args.infile)
    report = analyze(ts, args.cores, _ANALYSIS_POLICY[args.policy])
    with _out_stream(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["task", "rub", "slack", "schedulable"])
        for entry in report.entries:
            writer.writerow([entry.task_id, entry.rub, entry.slack,
                             "true" if entry.schedulable else "false"])
        out.write(f"# set_schedulable={'true' if report.set_schedulable else 'false'}\n")
    return 0 if report.set_schedulable else 1


def cmd_simulate(args) -> int:
    ts = load_taskset(args.infile)
    table = assign_priorities(ts)
    if args.horizon == "auto":
        horizon = min(3 * ts.hyperperiod, 10 ** 6)
    else:
        try:
            horizon = int(args.horizon)
        except ValueError:
            raise ValueError(f"bad horizon {args.horizon!r}, expected an integer or auto") from None
    # the seed goes to SimConfig alone, which derives the release and
    # execution streams from it at different offsets
    execution = AlwaysWcet() if args.execution == "wcet" else UniformUpToWcet()
    cfg = SimConfig(
        cores=args.cores,
        horizon=horizon,
        policy=_SIM_POLICY[args.policy],
        release=_parse_release(args.release),
        execution=execution,
        seed=args.seed,
    )
    trace = simulate(ts, table, cfg)
    task_ids = sorted(t.id for t in ts)
    with _out_stream(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["task", "release", "deadline", "q", "finish", "outcome"])
        for tid in task_ids:
            for rec in trace.records[tid]:
                finish = "KILLED" if rec.finish is None else rec.finish
                writer.writerow([rec.task_id, rec.release, rec.deadline,
                                 rec.class_index, finish, rec.outcome])
        if args.out is None:
            for tid in task_ids:
                out.write(f"# task={tid} outcomes={trace.outcome_string(tid)}\n")
    if args.out is not None:
        for tid in task_ids:
            print(f"task={tid} outcomes={trace.outcome_string(tid)}")
    violations = check_trace(trace, ts)
    if violations:
        for v in violations[:20]:
            print(f"violation: task={v.task_id} kind={v.kind} index={v.index}", file=sys.stderr)
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    return 0


def cmd_generate(args) -> int:
    _check_at_least_one("sets", args.sets)
    scenario = Scenario(args.scenario)
    periods = _parse_period_grid(args.period_grid)
    for i in range(args.sets):
        spec = GenSpec(
            args.tasks, args.u, args.k, scenario,
            (args.period_min, args.period_max), periods, args.seed ^ i,
        )
        ts = make_taskset(spec)
        if args.sets == 1:
            path = args.out
        else:
            # only the file name's extension moves behind the number
            stem, suffix = os.path.splitext(args.out)
            path = f"{stem}_{i:03d}{suffix}"
        save_taskset(ts, path)
        print(path)
    return 0


def cmd_experiment(args) -> int:
    # input errors here fail before any CSV is written
    _check_at_least_one("sets", args.sets)
    _check_at_least_one("cores", args.cores)
    scenario = Scenario(args.scenario)
    policies = _parse_policies(args.policy)
    u_list = _parse_u_list(args.u_list)
    periods = _parse_period_grid(args.period_grid)
    header = ["policy", "scenario", "tasks", "cores", "window", "target_u",
              "sets_total", "sets_schedulable", "ratio", "mean_analysis_seconds"]
    results: list[ExperimentResult] = []
    failure: str | None = None
    # one target at a time, so the rows of the targets before an input
    # error (Infeasible, EmptyTaskSet: both ValueErrors) still get flushed
    try:
        for target in u_list:
            results.extend(run_experiment(
                policies, scenario, args.tasks, args.cores, args.k,
                args.sets, [target], args.seed,
                (args.period_min, args.period_max), periods,
            ))
    except ValueError as e:
        failure = f"{type(e).__name__}: {e}"
    results.sort(key=lambda r: (r.policy, r.target_u))
    with _out_stream(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        for r in results:
            writer.writerow([
                r.policy, r.scenario, r.tasks, r.cores, r.window,
                f"{r.target_u:g}", r.sets_total, r.sets_schedulable,
                f"{r.ratio:.4f}", f"{r.mean_analysis_seconds:.6f}",
            ])
        if failure is not None:
            writer.writerow(["FAILED", failure] + [""] * (len(header) - 2))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whsched",
        description="Weakly-hard (m,K) task sets on multi-core: analysis, "
                    "job-class scheduling, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="response-time analysis of a task set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--policy", choices=sorted(_ANALYSIS_POLICY), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the global scheduler and check the trace")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--policy", choices=sorted(_SIM_POLICY), required=True)
    p.add_argument("--horizon", required=True,
                   help="ticks, or auto for min(3*hyperperiod, 1e6)")
    p.add_argument("--release", default="sync", help="sync or jitter:N")
    p.add_argument("--exec", dest="execution", choices=["wcet", "uniform"], default="wcet")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="generate task set files")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--u", type=float, required=True, help="target total utilization")
    p.add_argument("--k", type=int, required=True, help="constraint window K")
    p.add_argument("--scenario", choices=["low", "high"], required=True)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period-min", type=int, default=10)
    p.add_argument("--period-max", type=int, default=1000)
    p.add_argument("--period-grid", default=None, help="comma list of allowed periods")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("priorities", help="print the job-class priority table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_priorities)

    p = sub.add_parser("count", help="sequence counts for the (w,h) transformation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("experiment", help="schedulability ratio sweep, CSV output")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scenario", choices=["low", "high"], required=True)
    p.add_argument("--sets", type=int, required=True)
    p.add_argument("--u-list", dest="u_list", required=True, help="comma list, e.g. 2.0,2.4")
    p.add_argument("--policy", default="rm,edf,wh", help="comma list of rm, edf, wh")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period-min", type=int, default=10)
    p.add_argument("--period-max", type=int, default=1000)
    p.add_argument("--period-grid", default=None, help="comma list of allowed periods")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
