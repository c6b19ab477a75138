"""The scan-everything simulator loop, kept for tests only.

``whsched.sim.simulate`` keeps a sorted ready list, a deadline heap and
a per-task release merge, so each event touches only the state that
changed.  ``reference_simulate`` is the plain loop it replaced: at every
event it scans every running and live job for the next finish and the
next deadline, and re-sorts the whole ready set by a tuple key.  All
releases are built up front as one sorted list of 4-tuples.

It shares no event bookkeeping with the kernel, so
``tests/test_sim_kernel.py`` can check that both produce equal traces.
Inputs are assumed valid: it does not call ``_validate``.
"""

from __future__ import annotations

import random

from whsched import (
    AlwaysWcet,
    JobClassTable,
    JobLevelState,
    JobRecord,
    SchedulingPolicy,
    SimConfig,
    SimTrace,
    SporadicJitter,
    Synchronous,
    Task,
    TaskSet,
    UniformUpToWcet,
    advance_job_level,
    derive_wh,
)

# offset so the execution stream never replays the release stream
_EXEC_SEED_OFFSET = 0x517CC1B7


class _Job:
    __slots__ = (
        "task_id", "release", "deadline", "class_index",
        "key", "remaining", "executed", "finish", "recorded",
    )

    def __init__(self, task_id, release, deadline, class_index, key, exec_time, recorded):
        self.task_id = task_id
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


def reference_simulate(ts: TaskSet, table: JobClassTable | None, cfg: SimConfig) -> SimTrace:
    """Same contract as ``whsched.simulate``, one full scan per event."""
    rel_seed = cfg.release.seed if isinstance(cfg.release, SporadicJitter) and cfg.release.seed is not None else cfg.seed
    exe_seed = cfg.execution.seed if isinstance(cfg.execution, UniformUpToWcet) and cfg.execution.seed is not None else cfg.seed + _EXEC_SEED_OFFSET
    rng_rel = random.Random(rel_seed)
    rng_exe = random.Random(exe_seed)

    tasks = sorted(ts, key=lambda t: t.id)
    releases: list[tuple[int, int, int]] = []  # (time, task id, exec time)
    for task in tasks:
        times = _release_times(task, cfg, rng_rel)
        execs = _exec_times(task, len(times), cfg, rng_exe)
        releases.extend((t, task.id, e) for t, e in zip(times, execs))
    releases.sort()

    by_id = {task.id: task for task in tasks}
    transforms = {
        task.id: derive_wh(task.constraint) for task in tasks if task.constraint.m > 0
    }
    level_caps = {task.id: task.constraint.K - task.constraint.m for task in tasks}
    levels = {tid: JobLevelState.initial(tr) for tid, tr in transforms.items()}

    records: dict[int, list[JobRecord]] = {task.id: [] for task in tasks}
    outcomes: dict[int, list[int]] = {task.id: [] for task in tasks}

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

        # deadline checks come after completions so a job finishing
        # exactly at its deadline counts as a hit
        expired = [j for j in live if j.deadline == now]
        for j in expired:
            hit = j.finish is not None
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
            _, tid, exec_time = releases[ptr]
            ptr += 1
            task = by_id[tid]
            q = levels[tid].class_index if tid in transforms else 0
            deadline = now + task.deadline
            job = _Job(
                tid, now, deadline, q,
                job_key(tid, q, deadline), exec_time, deadline <= cfg.horizon,
            )
            live.append(job)

        ready = [j for j in live if j.finish is None]
        ready.sort(key=lambda j: j.key)
        running = ready[:cfg.cores]

    return SimTrace(records=records, outcomes=outcomes, horizon=cfg.horizon)
