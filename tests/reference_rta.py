"""A term-by-term restatement of the response-time analysis, for tests only.

``whsched.rta.analyze`` compiles a set into integer tuples and runs one
inline fixed-point kernel.  This module spells the same analysis out
the long way, on ``Task`` objects:

- ``baseline_workload`` is the busy-window workload of one interferer,
  ``wh_workload`` its weakly-hard thinning, both returned as a
  ``WorkloadTerms`` that names every intermediate term;
- ``equivalent_task`` is the hard task a high tolerance task behaves
  like, with its period stretched to (w + 1) T;
- ``reference_analyze`` runs the fixed point per task on these
  workloads and picks ``wh`` interferers by class-0 priority from the
  job-class table, not by ``rank_key``.

It shares no arithmetic with the kernel, so ``tests/test_rta_kernel.py``
can check that the two agree, and ``tests/test_rta.py`` pins the
workload terms by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from whsched import (
    HARD_CONSTRAINT,
    AnalysisReport,
    InterferencePolicy,
    Task,
    TaskReport,
    ToleranceClass,
    assign_priorities,
    classify,
    derive_wh,
)
from whsched.model import rank_key

EDF = InterferencePolicy.GLOBAL_EDF
WH = InterferencePolicy.WEAKLY_HARD_JC0


class NotHighTolerance(ValueError):
    """An equivalent hard task exists only for high tolerance tasks."""


def equivalent_task(task: Task) -> Task:
    """Hard task whose releases match the jobs a high tolerance task must hit.

    The (w, h) pattern of a high tolerance task has h = 1, so mandatory
    jobs are at least (w + 1) periods apart: the equivalent hard task
    keeps C and D and stretches the period to (w + 1) * T.

    Raises:
        NotHighTolerance: if the task is hard or low tolerance.
    """
    if classify(task.constraint) is not ToleranceClass.HIGH:
        raise NotHighTolerance(
            f"task {task.id} has constraint ({task.constraint.m}, {task.constraint.K})"
        )
    t = derive_wh(task.constraint)
    return Task(task.id, task.wcet, task.deadline, (t.w + 1) * task.period, HARD_CONSTRAINT)


@dataclass(frozen=True, slots=True)
class WorkloadTerms:
    """Decomposed workload of one interfering task over a window.

    jobs: contributing job count N (clamped at 0).
    excluded: jobs dropped by the weakly-hard thinning, O <= N.
    carry_out: 0 or 1, whether the residual job contributes.
    residual: leftover window length r for the carry-out job.
    total: the workload bound W.
    """

    jobs: int
    excluded: int
    carry_out: int
    residual: int
    total: int


def baseline_workload(task: Task, rub: int, slack: int, window: int) -> WorkloadTerms:
    """Workload bound of an interfering task over a window of length L.

    Args:
        task: the interfering task.
        rub: the interfering task's own response-time upper bound.
        slack: the interfering task's slack, max(D - Rub, 0).
        window: the window length L.

    N = max(0, floor(x / T)) jobs contribute fully, with
    x = L + Rub - C - slack, plus one residual contribution
    min(C, x - N T) clamped at 0.
    """
    x = window + rub - task.wcet - slack
    n = x // task.period
    if n < 0:
        n = 0
    r = x - n * task.period
    if r < 0:
        r = 0
    total = n * task.wcet + min(task.wcet, r)
    return WorkloadTerms(jobs=n, excluded=0, carry_out=1, residual=r, total=total)


def wh_workload(task: Task, rub: int, slack: int, window: int) -> WorkloadTerms:
    """Workload restricted to the jobs the task must complete.

    Hard tasks keep the baseline bound.  High tolerance tasks are
    replaced by their equivalent hard task (period (w + 1) T).  Low
    tolerance tasks release with the original period but every
    (h + 1)-th job is tolerable, so O = max(0, floor(x / (T (h + 1))))
    jobs are excluded and the carry-out contribution is dropped whenever
    the job count lands on the tolerable slot
    (a = 1 - floor((N mod (h + 1)) / h)).
    """
    tol = classify(task.constraint)
    if tol is ToleranceClass.HARD:
        return baseline_workload(task, rub, slack, window)
    if tol is ToleranceClass.HIGH:
        return baseline_workload(equivalent_task(task), rub, slack, window)
    t = derive_wh(task.constraint)
    x = window + rub - task.wcet - slack
    n = x // task.period
    if n < 0:
        n = 0
    o = x // (task.period * (t.h + 1))
    if o < 0:
        o = 0
    r = x - n * task.period
    if r < 0:
        r = 0
    a = 1 - (n % (t.h + 1)) // t.h
    total = (n - o) * task.wcet + a * min(task.wcet, r)
    return WorkloadTerms(jobs=n, excluded=o, carry_out=a, residual=r, total=total)


def _reference_response_time(task, ts, cores, policy, table, estimates):
    if policy is EDF:
        interferers = [t for t in ts if t.id != task.id]
    elif policy is WH:
        mine = table.jc0(task.id)
        interferers = [t for t in ts if table.jc0(t.id) > mine]
    else:
        interferers = [t for t in ts if rank_key(t) < rank_key(task)]
    workload = wh_workload if policy is WH else baseline_workload
    rub = task.wcet
    while True:
        cap = rub - task.wcet + 1
        budget = 0
        for other in interferers:
            orub, oslack = estimates[other.id]
            budget += min(workload(other, orub, oslack, rub).total, cap)
        nxt = task.wcet + budget // cores
        if nxt > task.deadline:
            return TaskReport(task.id, task.deadline + 1, 0, False)
        if nxt == rub:
            return TaskReport(task.id, rub, task.deadline - rub, True)
        rub = nxt


def reference_analyze(ts, cores, policy):
    """The report ``analyze(ts, cores, policy)`` must return."""
    if policy is EDF:
        estimates = {t.id: (t.deadline, 0) for t in ts}
        prev_verdicts = None
        for _ in range(2 * len(ts) + 4):
            reports = {
                t.id: _reference_response_time(t, ts, cores, policy, None, estimates)
                for t in ts
            }
            new_estimates = {tid: (r.rub, r.slack) for tid, r in reports.items()}
            verdicts = frozenset(tid for tid, r in reports.items() if r.schedulable)
            if new_estimates == estimates or verdicts == prev_verdicts:
                break
            estimates = new_estimates
            prev_verdicts = verdicts
    else:
        table = assign_priorities(ts) if policy is WH else None
        estimates, reports = {}, {}
        for t in sorted(ts, key=rank_key):
            rep = _reference_response_time(t, ts, cores, policy, table, estimates)
            reports[t.id] = rep
            estimates[t.id] = (rep.rub, rep.slack)
    entries = tuple(reports[t.id] for t in ts)
    return AnalysisReport(entries, all(e.schedulable for e in entries), policy)
