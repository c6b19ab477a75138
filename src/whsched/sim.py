"""Discrete-event global scheduler simulation on integer ticks.

The platform is n_c identical cores with free migration and preemption:
at every event the n_c highest-priority ready jobs run.  A job that
reaches its absolute deadline unfinished is killed on the spot and
counts as a miss; a finished job counts as a hit at its deadline.  The
job-class policy prices each job at release from the task's current job
level, so one task's jobs move between priorities as hits and misses
accumulate.  Everything is deterministic given the seeds.

The event core touches only the state an event changes.  Ready jobs sit
in a list sorted by one unique integer key per job (-priority, or the
absolute deadline under EDF, then the task's position in id order);
a release inserts with bisect and a finish or kill deletes, and the
n_c running jobs are re-picked only when that list changed.  Deadlines
wait in a heap of (deadline, release sequence, job), the next finish is
the minimum over the running jobs alone, and releases are merged from
one heap entry per task.  A task's release and execution times are
drawn up front into a ``range`` (synchronous releases) or an
``array('q')``.

Per job, the simulator avoids three costs without changing a trace.
Each task's job level is a state number in a lazily filled transition
table whose entries come from ``advance_job_level``, so a deadline is
one list lookup and no new ``JobLevelState``.  Records are built
through the ``JobRecord`` slot descriptors, skipping the frozen
dataclass ``__init__``.  Integer draws inline ``randint``'s rejection
loop over ``getrandbits``, so they give the same values and leave the
generator in the same state.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush, heapreplace

from .model import MKTransform, Task, TaskSet, derive_wh
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
        "task_id", "rank", "index", "release", "deadline", "class_index",
        "key", "remaining", "executed", "finish", "recorded",
    )

    def __init__(self, task_id, rank, index, release, deadline, class_index, key, exec_time, recorded):
        self.task_id = task_id
        self.rank = rank
        self.index = index
        self.release = release
        self.deadline = deadline
        self.class_index = class_index
        self.key = key
        self.remaining = exec_time
        self.executed = 0
        self.finish = None
        self.recorded = recorded


# ``randint(lo, lo + width - 1)`` is ``lo`` plus CPython's rejection
# loop: draw ``width.bit_length()`` bits until the value is below
# ``width``.  Both draws inline that loop.
def _release_times(task: Task, cfg: SimConfig, rng: random.Random) -> range | array:
    if isinstance(cfg.release, Synchronous):
        return range(0, cfg.horizon, task.period)
    times = array("q")
    append = times.append
    getrandbits = rng.getrandbits
    width = cfg.release.max_jitter + 1
    bits = width.bit_length()
    horizon = cfg.horizon
    period = task.period
    t = 0
    while t < horizon:
        append(t)
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        t += period + r
    return times


def _exec_times(task: Task, count: int, cfg: SimConfig, rng: random.Random) -> array:
    if isinstance(cfg.execution, AlwaysWcet):
        return array("q", [task.wcet]) * count
    times = array("q")
    append = times.append
    getrandbits = rng.getrandbits
    width = task.wcet
    bits = width.bit_length()
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        append(r + 1)
    return times


def _record_builder():
    """Return a JobRecord constructor that sets the slots directly.

    The frozen ``__init__`` goes through ``object.__setattr__`` per
    field, at about twice the cost.  JobRecord has no ``__post_init__``,
    so no check is skipped.
    """
    new = object.__new__
    fields = JobRecord.__dict__
    set_task_id = fields["task_id"].__set__
    set_release = fields["release"].__set__
    set_deadline = fields["deadline"].__set__
    set_class_index = fields["class_index"].__set__
    set_executed = fields["executed"].__set__
    set_finish = fields["finish"].__set__
    set_outcome = fields["outcome"].__set__

    def record(task_id, release, deadline, class_index, executed, finish, outcome):
        rec = new(JobRecord)
        set_task_id(rec, task_id)
        set_release(rec, release)
        set_deadline(rec, deadline)
        set_class_index(rec, class_index)
        set_executed(rec, executed)
        set_finish(rec, finish)
        set_outcome(rec, outcome)
        return rec

    return record


_record = _record_builder()


class _LevelTable:
    """One task's job-level automaton as a lazily filled transition table.

    States are interned ``JobLevelState``s numbered from 0 (the initial
    state); ``class_index[s]`` is state s's class and ``nxt[2 * s + hit]``
    the number of the state after a miss (hit = 0) or a hit (hit = 1),
    or -1 until ``step`` has asked ``advance_job_level`` once.  Only the
    states a trace reaches are ever built.
    """

    __slots__ = ("transform", "level_cap", "states", "ids", "class_index", "nxt")

    def __init__(self, transform: MKTransform, level_cap: int):
        start = JobLevelState.initial(transform)
        self.transform = transform
        self.level_cap = level_cap
        self.states = [start]
        self.ids = {start: 0}
        self.class_index = [start.class_index]
        self.nxt = [-1, -1]

    def step(self, s: int, hit: bool) -> int:
        state = advance_job_level(self.states[s], self.transform, self.level_cap, hit)
        t = self.ids.get(state)
        if t is None:
            t = self.ids[state] = len(self.states)
            self.states.append(state)
            self.class_index.append(state.class_index)
            self.nxt += (-1, -1)
        self.nxt[2 * s + hit] = t
        return t


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def _validate(ts: TaskSet, table: JobClassTable | None, cfg: SimConfig) -> None:
    _check_int("cores", cfg.cores)
    _check_int("horizon", cfg.horizon)
    if cfg.cores < 1:
        raise InvalidConfig(f"cores must be >= 1, got {cfg.cores}")
    if cfg.horizon < 1:
        raise InvalidConfig(f"horizon must be >= 1, got {cfg.horizon}")
    if isinstance(cfg.release, SporadicJitter):
        _check_int("max_jitter", cfg.release.max_jitter)
        if cfg.release.max_jitter < 0:
            raise InvalidConfig(f"max_jitter must be >= 0, got {cfg.release.max_jitter}")
    if not isinstance(cfg.policy, SchedulingPolicy):
        raise InvalidConfig(f"policy must be a SchedulingPolicy, got {cfg.policy!r}")
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

    Raises:
        InvalidConfig: for a non-integer or out-of-range cores, horizon
            or max_jitter, a policy that is not a SchedulingPolicy, an
            empty set, or a table that does not fit the set and policy.

    Every release and execution time is drawn before the first event:
    first the release stream, task by task in id order up to the
    horizon, then the execution stream in the same order.  Each draw
    equals ``randint(0, max_jitter)`` or ``randint(1, wcet)`` on the
    stream and leaves it in the same state.  A task's job level moves
    through its transition table exactly as through
    ``advance_job_level``, and every record is an ordinary, frozen
    ``JobRecord``, equal to one built by its constructor.  Within one
    tick, finishes come first (in running order), then deadline expiries
    (in release order, each advancing its task's job level), then
    releases (in id order).  Equal-priority EDF ties break toward the
    lower task id; job-class and fixed priorities break ties the same
    way, though a table from ``assign_priorities`` has none.
    """
    _validate(ts, table, cfg)

    rel_seed = cfg.release.seed if isinstance(cfg.release, SporadicJitter) and cfg.release.seed is not None else cfg.seed
    exe_seed = cfg.execution.seed if isinstance(cfg.execution, UniformUpToWcet) and cfg.execution.seed is not None else cfg.seed + _EXEC_SEED_OFFSET
    rng_rel = random.Random(rel_seed)
    rng_exe = random.Random(exe_seed)

    # per task, in id order; a task's rank is its position here
    tasks = sorted(ts, key=lambda t: t.id)
    n = len(tasks)
    release_times = [_release_times(task, cfg, rng_rel) for task in tasks]
    exec_times = [
        _exec_times(task, len(times), cfg, rng_exe)
        for task, times in zip(tasks, release_times)
    ]
    # job levels as state numbers into each task's table; a hard task
    # stays in its one class-0 state, so it needs no table
    tables = [
        _LevelTable(derive_wh(t.constraint), t.constraint.K - t.constraint.m)
        if t.constraint.m > 0 else None
        for t in tasks
    ]
    level_nxt = [tab.nxt if tab else [0, 0] for tab in tables]
    level_class = [tab.class_index if tab else [0] for tab in tables]
    levels = [0] * n

    # integer ready keys, unique because C <= D <= T leaves at most one
    # live job per task: -priority or deadline, then rank
    edf = cfg.policy is SchedulingPolicy.EDF
    class_keys: list[tuple[int, ...]] = []
    if cfg.policy is SchedulingPolicy.JOB_CLASS:
        class_keys = [
            tuple(-p * n + r for p in table.priorities[t.id]) for r, t in enumerate(tasks)
        ]
    elif cfg.policy is SchedulingPolicy.RM:
        class_keys = [
            (-table.jc0(t.id) * n + r,) * class_count(t) for r, t in enumerate(tasks)
        ]

    records: dict[int, list[JobRecord]] = {task.id: [] for task in tasks}
    outcomes: dict[int, list[int]] = {task.id: [] for task in tasks}
    events: list[tuple[int, str, int, int]] = []

    horizon = cfg.horizon
    cores = cfg.cores
    now = 0
    seq = 0
    pending = [(0, r, 0) for r in range(n)]  # (next release, rank, job index); all start at 0
    deadlines: list[tuple[int, int, _Job]] = []  # (deadline, release seq, job)
    ready_keys: list[int] = []
    ready: list[_Job] = []
    running: list[_Job] = []

    while True:
        t = pending[0][0] if pending else horizon + 1
        if deadlines and deadlines[0][0] < t:
            t = deadlines[0][0]
        for j in running:
            if now + j.remaining < t:
                t = now + j.remaining
        if t > horizon:
            break
        dt = t - now
        if dt:
            for j in running:
                j.remaining -= dt
                j.executed += dt
            now = t

        changed = False
        # running is a prefix of ready, so running[i] sits at ready[i - done]
        done = 0
        for i, j in enumerate(running):
            if not j.remaining:
                j.finish = now
                events.append((now, "finish", j.task_id, j.index))
                del ready_keys[i - done], ready[i - done]
                done += 1
                changed = True

        # deadline checks come after completions so a job finishing
        # exactly at its deadline counts as a hit
        while deadlines and deadlines[0][0] == now:
            j = heappop(deadlines)[2]
            hit = j.finish is not None
            if not hit:
                events.append((now, "kill", j.task_id, j.index))
                i = bisect_left(ready_keys, j.key)
                del ready_keys[i], ready[i]
                changed = True
            if j.recorded:
                outcomes[j.task_id].append(1 if hit else 0)
                records[j.task_id].append(_record(
                    j.task_id, j.release, j.deadline, j.class_index,
                    j.executed, j.finish, "hit" if hit else "miss",
                ))
            r = j.rank
            s = level_nxt[r][2 * levels[r] + hit]
            levels[r] = s if s >= 0 else tables[r].step(levels[r], hit)

        while pending and pending[0][0] == now:
            _, r, idx = pending[0]
            times = release_times[r]
            if idx + 1 < len(times):
                heapreplace(pending, (times[idx + 1], r, idx + 1))
            else:
                heappop(pending)
            q = level_class[r][levels[r]]
            deadline = now + tasks[r].deadline
            key = deadline * n + r if edf else class_keys[r][q]
            job = _Job(
                tasks[r].id, r, idx, now, deadline, q,
                key, exec_times[r][idx], deadline <= horizon,
            )
            i = bisect_left(ready_keys, key)
            ready_keys.insert(i, key)
            ready.insert(i, job)
            heappush(deadlines, (deadline, seq, job))
            seq += 1
            events.append((now, "release", job.task_id, idx))
            changed = True

        if changed:
            running = ready[:cores]

    return SimTrace(records=records, outcomes=outcomes, events=events, horizon=horizon)


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
