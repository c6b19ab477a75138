"""Discrete-event global scheduler simulation on integer ticks.

The platform is n_c identical cores with free migration and preemption:
at every event the n_c highest-priority ready jobs run.  A job that
reaches its absolute deadline unfinished is killed on the spot and
counts as a miss; a finished job counts as a hit at its deadline.  The
job-class policy prices each job at release from the task's current job
level, so one task's jobs move between priorities as hits and misses
accumulate.  Everything is deterministic given the seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .model import Task, TaskSet, derive_wh
from .priority import JobClassTable, JobLevelState, advance_job_level, class_count


class InvalidConfig(ValueError):
    """Simulation configuration is unusable."""


class SchedulingPolicy(Enum):
    JOB_CLASS = "job-class"
    RM = "rm"
    EDF = "edf"


@dataclass(frozen=True, slots=True)
class Synchronous:
    """All tasks release together at 0 and strictly every period."""


@dataclass(frozen=True, slots=True)
class SporadicJitter:
    """Inter-arrival = period + uniform integer in [0, max_jitter]."""

    max_jitter: int
    seed: int | None = None


@dataclass(frozen=True, slots=True)
class AlwaysWcet:
    """Every job executes exactly its WCET."""


@dataclass(frozen=True, slots=True)
class UniformUpToWcet:
    """Execution time drawn uniformly from [1, WCET] per job."""

    seed: int | None = None


# offset so the execution stream never replays the release stream
_EXEC_SEED_OFFSET = 0x517CC1B7


@dataclass(frozen=True, slots=True)
class SimConfig:
    cores: int
    horizon: int
    policy: SchedulingPolicy
    release: Synchronous | SporadicJitter = Synchronous()
    execution: AlwaysWcet | UniformUpToWcet = AlwaysWcet()
    seed: int = 0


@dataclass(frozen=True, slots=True)
class JobRecord:
    task_id: int
    release: int
    deadline: int
    class_index: int
    executed: int
    finish: int | None
    outcome: str  # "hit" | "miss"


@dataclass(frozen=True)
class SimTrace:
    records: dict[int, list[JobRecord]]
    outcomes: dict[int, list[int]]
    events: list[tuple[int, str, int, int]]  # (time, kind, task id, job index)
    horizon: int

    def outcome_string(self, task_id: int) -> str:
        return "".join(str(x) for x in self.outcomes[task_id])


@dataclass(frozen=True, slots=True)
class Violation:
    task_id: int
    kind: str  # "jc0" | "window"
    index: int  # job position for jc0, window start for window


class _Job:
    __slots__ = (
        "task_id", "index", "release", "deadline", "class_index",
        "key", "remaining", "executed", "finish", "recorded",
    )

    def __init__(self, task_id, index, release, deadline, class_index, key, exec_time, recorded):
        self.task_id = task_id
        self.index = index
        self.release = release
        self.deadline = deadline
        self.class_index = class_index
        self.key = key
        self.remaining = exec_time
        self.executed = 0
        self.finish = None
        self.recorded = recorded


def _release_times(task: Task, cfg: SimConfig, rng: random.Random) -> list[int]:
    if isinstance(cfg.release, Synchronous):
        return list(range(0, cfg.horizon, task.period))
    times = []
    t = 0
    while t < cfg.horizon:
        times.append(t)
        t += task.period + rng.randint(0, cfg.release.max_jitter)
    return times


def _exec_times(task: Task, count: int, cfg: SimConfig, rng: random.Random) -> list[int]:
    if isinstance(cfg.execution, AlwaysWcet):
        return [task.wcet] * count
    return [rng.randint(1, task.wcet) for _ in range(count)]


def _validate(ts: TaskSet, table: JobClassTable | None, cfg: SimConfig) -> None:
    if cfg.cores < 1:
        raise InvalidConfig(f"cores must be >= 1, got {cfg.cores}")
    if cfg.horizon < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {cfg.horizon}")
    if isinstance(cfg.release, SporadicJitter) and cfg.release.max_jitter < 0:
        raise InvalidConfig(f"max_jitter must be >= 0, got {cfg.release.max_jitter}")
    if len(ts) == 0:
        raise InvalidConfig("cannot simulate an empty task set")
    if cfg.policy is not SchedulingPolicy.EDF:
        if table is None:
            raise InvalidConfig(f"policy {cfg.policy.value} needs a JobClassTable")
        for task in ts:
            if task.id not in table.priorities:
                raise InvalidConfig(f"table has no entry for task {task.id}")
            if cfg.policy is SchedulingPolicy.JOB_CLASS:
                if table.class_count(task.id) != class_count(task):
                    raise InvalidConfig(f"table classes do not match task {task.id}")


def simulate(ts: TaskSet, table: JobClassTable | None, cfg: SimConfig) -> SimTrace:
    """Run the job-class, fixed-priority, or EDF scheduler over a horizon.

    Args:
        ts: the task set.
        table: job-class priorities; ignored by the EDF policy.
        cfg: platform, horizon, policy, release and execution models.

    Returns:
        SimTrace with one JobRecord and one outcome bit per job whose
        deadline falls inside the horizon, in release order per task,
        plus a global event log.  Jobs released near the end of the
        horizon whose deadline lies beyond it still execute (they
        interfere) but are not recorded.

    Equal-priority EDF ties break toward the lower task id; job-class
    and fixed priorities are unique by construction.
    """
    _validate(ts, table, cfg)

    rel_seed = cfg.release.seed if isinstance(cfg.release, SporadicJitter) and cfg.release.seed is not None else cfg.seed
    exe_seed = cfg.execution.seed if isinstance(cfg.execution, UniformUpToWcet) and cfg.execution.seed is not None else cfg.seed + _EXEC_SEED_OFFSET
    rng_rel = random.Random(rel_seed)
    rng_exe = random.Random(exe_seed)

    tasks = sorted(ts, key=lambda t: t.id)
    releases: list[tuple[int, int, int, int]] = []  # (time, task id, job index, exec time)
    for task in tasks:
        times = _release_times(task, cfg, rng_rel)
        execs = _exec_times(task, len(times), cfg, rng_exe)
        for idx, (t, e) in enumerate(zip(times, execs)):
            releases.append((t, task.id, idx, e))
    releases.sort()

    by_id = {task.id: task for task in tasks}
    transforms = {
        task.id: derive_wh(task.constraint) for task in tasks if task.constraint.m > 0
    }
    level_caps = {task.id: task.constraint.K - task.constraint.m for task in tasks}
    levels = {tid: JobLevelState.initial(tr) for tid, tr in transforms.items()}

    records: dict[int, list[JobRecord]] = {task.id: [] for task in tasks}
    outcomes: dict[int, list[int]] = {task.id: [] for task in tasks}
    events: list[tuple[int, str, int, int]] = []

    def job_key(task_id: int, q: int, deadline: int):
        if cfg.policy is SchedulingPolicy.JOB_CLASS:
            return (-table.priority(task_id, q), task_id)
        if cfg.policy is SchedulingPolicy.RM:
            return (-table.jc0(task_id), task_id)
        return (deadline, task_id)

    INF = float("inf")
    now = 0
    ptr = 0
    live: list[_Job] = []
    running: list[_Job] = []

    while True:
        t_rel = releases[ptr][0] if ptr < len(releases) else INF
        t_fin = min((now + j.remaining for j in running), default=INF)
        t_dl = min((j.deadline for j in live), default=INF)
        t = min(t_rel, t_fin, t_dl)
        if t == INF or t > cfg.horizon:
            break
        dt = int(t) - now
        if dt:
            for j in running:
                j.remaining -= dt
                j.executed += dt
            now = int(t)

        for j in running:
            if j.remaining == 0 and j.finish is None:
                j.finish = now
                events.append((now, "finish", j.task_id, j.index))

        # deadline checks come after completions so a job finishing
        # exactly at its deadline counts as a hit
        expired = [j for j in live if j.deadline == now]
        for j in expired:
            hit = j.finish is not None
            if not hit:
                events.append((now, "kill", j.task_id, j.index))
            if j.recorded:
                outcomes[j.task_id].append(1 if hit else 0)
                records[j.task_id].append(JobRecord(
                    j.task_id, j.release, j.deadline, j.class_index,
                    j.executed, j.finish, "hit" if hit else "miss",
                ))
            if j.task_id in transforms:
                levels[j.task_id] = advance_job_level(
                    levels[j.task_id], transforms[j.task_id], level_caps[j.task_id], hit
                )
            live.remove(j)

        while ptr < len(releases) and releases[ptr][0] == now:
            _, tid, idx, exec_time = releases[ptr]
            ptr += 1
            task = by_id[tid]
            q = levels[tid].class_index if tid in transforms else 0
            deadline = now + task.deadline
            job = _Job(
                tid, idx, now, deadline, q,
                job_key(tid, q, deadline), exec_time, deadline <= cfg.horizon,
            )
            live.append(job)
            events.append((now, "release", tid, idx))

        ready = [j for j in live if j.finish is None]
        ready.sort(key=lambda j: j.key)
        running = ready[:cfg.cores]

    return SimTrace(records=records, outcomes=outcomes, events=events, horizon=cfg.horizon)


def check_trace(trace: SimTrace, ts: TaskSet) -> list[Violation]:
    """Scan a trace for class-0 deadline misses and (m, K) window violations.

    Every job recorded at class index 0 must be a hit.  Every window of
    K consecutive outcomes must hold at most m misses; tasks with fewer
    than K recorded outcomes have no complete window and are skipped.
    Violations are reported per task in ascending id, class-0 misses
    first.
    """
    violations: list[Violation] = []
    for task in sorted(ts, key=lambda t: t.id):
        recs = trace.records.get(task.id, [])
        for pos, rec in enumerate(recs):
            if rec.class_index == 0 and rec.outcome == "miss":
                violations.append(Violation(task.id, "jc0", pos))
        outs = trace.outcomes.get(task.id, [])
        m, k = task.constraint.m, task.constraint.K
        if len(outs) >= k:
            window_misses = sum(1 for x in outs[:k] if x == 0)
            for start in range(len(outs) - k + 1):
                if start:
                    window_misses += (outs[start - 1] == 1) - (outs[start + k - 1] == 1)
                if window_misses > m:
                    violations.append(Violation(task.id, "window", start))
    return violations
