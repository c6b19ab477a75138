"""Job-class priority assignment and the per-task job-level automaton.

Each task is split into K - m + 1 job classes indexed by q.  Class 0
holds the jobs that must meet their deadline for the (m, K) constraint
to survive, higher classes hold jobs whose misses are still tolerable.
Priorities are unique integers handed out class-major: every class-0
priority beats every class-1 priority, and so on.  Larger value wins.

A task's current class is tracked by a job level jl in
[-(h - 1), K - m] and its run of consecutive misses: the class of the
next job is max(0, jl).  Hits push the level up (saturating), w
consecutive misses restore it to the initial -(h - 1).  The state is two
plain integers, and ``next_job_level`` is the one step the simulator
takes at every deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Task, TaskSet, WeaklyHardConstraint, derive_wh, rank_key


class EmptyTaskSet(ValueError):
    """Priorities were requested for a task set with no tasks."""


def level_shape(constraint: WeaklyHardConstraint) -> tuple[int, int, int]:
    """The job-level automaton's constants for one task: (initial, w, cap).

    ``initial`` is the starting level 1 - h, ``w`` the run of misses that
    restores it and ``cap`` the top level K - m.  A hard task gets
    (0, 1, 0), which keeps it at level 0, class 0, whatever happens.
    """
    if constraint.m == 0:
        return 0, 1, 0
    t = derive_wh(constraint)
    return 1 - t.h, t.w, constraint.K - constraint.m


def next_job_level(
    level: int, streak: int, initial: int, w: int, cap: int, hit: bool
) -> tuple[int, int]:
    """Advance (level, miss streak) after one job outcome.

    A hit raises the level by one, saturating at ``cap``, and clears the
    streak.  A miss leaves the level alone until the streak reaches
    ``w``, which restores (``initial``, 0).  The class of the next job
    is ``max(0, level)``.
    """
    if hit:
        return (level + 1 if level < cap else cap), 0
    if streak + 1 >= w:
        return initial, 0
    return level, streak + 1


@dataclass(frozen=True)
class JobClassTable:
    """Unique scheduling priorities per (task, class index).

    ``order`` lists task ids sorted by (deadline, m, id); it is also the
    descending class-0 priority order.
    """

    priorities: dict[int, tuple[int, ...]]
    order: tuple[int, ...]

    def priority(self, task_id: int, q: int) -> int:
        return self.priorities[task_id][q]

    def jc0(self, task_id: int) -> int:
        return self.priorities[task_id][0]

    def class_count(self, task_id: int) -> int:
        return len(self.priorities[task_id])

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.priorities.values())


def class_count(task: Task) -> int:
    """Number of job classes: K - m + 1, with hard tasks pinned to one."""
    c = task.constraint
    if c.m == 0:
        return 1
    return c.K - c.m + 1


def assign_priorities(ts: TaskSet) -> JobClassTable:
    """Assign unique priorities class-major, ties broken deterministically.

    Tasks are sorted by ascending deadline, then fewer allowed misses,
    then id.  A counter starts at the total class count and decrements
    while walking q = 0, 1, ... and, within each q, the sorted tasks
    that have such a class.  The result is a bijection onto
    [1, total]: class 0 of the first task gets the highest priority and
    every class-0 priority exceeds every priority of higher classes.

    Raises:
        EmptyTaskSet: if the task set has no tasks.
    """
    if len(ts) == 0:
        raise EmptyTaskSet("cannot assign priorities to an empty task set")
    ordered = sorted(ts, key=rank_key)
    counts = {task.id: class_count(task) for task in ordered}
    prio = sum(counts.values())
    columns: dict[int, list[int]] = {task.id: [] for task in ordered}
    for q in range(max(counts.values())):
        for task in ordered:
            if q < counts[task.id]:
                columns[task.id].append(prio)
                prio -= 1
    return JobClassTable(
        priorities={tid: tuple(col) for tid, col in columns.items()},
        order=tuple(task.id for task in ordered),
    )
