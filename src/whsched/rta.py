"""Global response-time analysis for weakly-hard task sets.

The baseline is the classic busy-window bound for global multiprocessor
scheduling: each interfering task contributes a workload over a window
of length L, capped per task, and the response-time upper bound is the
least fixed point of

    Rub = C_k + floor(sum_i min(W_i(Rub), Rub - C_k + 1) / n_c)

starting at C_k, abandoned once Rub exceeds the deadline.  The
weakly-hard extension thins the workload of interfering tasks to the
jobs that must hit: high tolerance tasks behave like hard tasks with the
period stretched to (w + 1) T, low tolerance tasks drop one job per
h + 1 released plus a carry-out correction.

``analyze`` is the one response-time entry point.  It compiles the set
once per call into integer tuples in rank order and evaluates every
workload inline, so each rule has one home: the (w + 1) T stretch in
``_compile``, the window offset in ``_term``, the h thinning and the
carry-out in ``_bound``.  A term-by-term restatement that the tests
compare the kernel against lives in ``tests/reference_rta.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import Task, TaskSet, ToleranceClass, classify, derive_wh, rank_key
from .priority import EmptyTaskSet


class InterferencePolicy(Enum):
    FIXED_PRIORITY_RM = "rm"
    GLOBAL_EDF = "edf"
    WEAKLY_HARD_JC0 = "wh"


@dataclass(frozen=True, slots=True)
class TaskReport:
    task_id: int
    rub: int
    slack: int
    schedulable: bool


@dataclass(frozen=True, slots=True)
class AnalysisReport:
    entries: tuple[TaskReport, ...]
    set_schedulable: bool
    policy: InterferencePolicy

    def entry(self, task_id: int) -> TaskReport:
        for e in self.entries:
            if e.task_id == task_id:
                return e
        raise KeyError(task_id)


# The kernel works on plain integers.  A task is compiled once per
# analysis into (id, C, D, P, h): P is the period its workload uses and
# h drives the low tolerance thinning (0 means none).  An interferer
# enters the fixed point as a term (C, P, h, Rub - C - slack), the last
# entry being the offset that turns the window L into x.
_Compiled = tuple[int, int, int, int, int]
_Term = tuple[int, int, int, int]


def _compile(task: Task, policy: InterferencePolicy) -> _Compiled:
    # high tolerance tasks behave like hard tasks with period (w + 1) T,
    # low tolerance tasks keep T and are thinned by h in _bound
    period, h = task.period, 0
    if policy is InterferencePolicy.WEAKLY_HARD_JC0:
        tol = classify(task.constraint)
        if tol is ToleranceClass.HIGH:
            period *= derive_wh(task.constraint).w + 1
        elif tol is ToleranceClass.LOW:
            h = derive_wh(task.constraint).h
    return (task.id, task.wcet, task.deadline, period, h)


def _term(wcet: int, period: int, h: int, rub: int, slack: int) -> _Term:
    return (wcet, period, h, rub - wcet - slack)


def _bound(wcet: int, deadline: int, terms: list[_Term], cores: int, rub: int) -> int:
    """Least fixed point of the busy-window recurrence, D + 1 once past D.

    Each term's workload over the window L = Rub is computed inline:
    x = L + offset, N = floor(x / P), r = x - N P.  Without thinning it
    is N C + min(C, r); with thinning by h, floor(N / (h + 1)) whole
    jobs are excluded and min(C, r) is dropped when N mod (h + 1) = h.
    Nothing contributes for x <= 0.

    The iteration starts at ``rub``: C, or a step of the iteration
    from C.
    """
    while True:
        cap = rub - wcet + 1
        budget = 0
        for c, p, h, offset in terms:
            x = rub + offset
            if x <= 0:
                continue
            n = x // p
            r = x - n * p
            if h:
                g = h + 1
                w = (n - n // g) * c
                if n % g != h:
                    w += r if r < c else c
            else:
                w = n * c + (r if r < c else c)
            budget += w if w < cap else cap
        nxt = wcet + budget // cores
        if nxt > deadline:
            return deadline + 1
        if nxt == rub:
            return rub
        rub = nxt


def _slack(deadline: int, rub: int) -> int:
    return deadline - rub if rub <= deadline else 0


def _report(task_id: int, deadline: int, rub: int) -> TaskReport:
    return TaskReport(task_id, rub, _slack(deadline, rub), rub <= deadline)


def _analyze_fixed_priority(compiled: list[_Compiled], cores: int) -> list[int]:
    # single pass in rank order, which is also the jc0 priority order:
    # the interferers of a task are exactly the tasks before it
    terms: list[_Term] = []
    rubs = []
    for _, wcet, deadline, period, h in compiled:
        rub = _bound(wcet, deadline, terms, cores, wcet)
        rubs.append(rub)
        terms.append(_term(wcet, period, h, rub, _slack(deadline, rub)))
    return rubs


def _analyze_edf(compiled: list[_Compiled], cores: int) -> list[int]:
    # every other task interferes, so no analysis order works up front:
    # start from zero slack (Rub = D) and refine the whole set in Jacobi
    # rounds until the bounds or the verdicts stop moving.  An estimate
    # (Rub, slack) is a function of Rub alone, so comparing the bounds
    # compares the estimates.
    #
    # A round needs exact bounds, not fresh ones.  An interferer's offset
    # Rub - C - slack strictly increases with its Rub (2 Rub - C - D up to
    # D, then D + 1 - C) and every workload is nondecreasing in x, so when
    # no interferer of k fell since the last round, k's recurrence rose
    # pointwise and its least fixed point did not fall: a k that failed
    # fails again unevaluated.  Every other bound starts from scratch.
    rubs = [deadline for _, _, deadline, _, _ in compiled]
    fell: list[int] | None = None  # the tasks whose Rub fell last round
    prev_verdicts: list[bool] | None = None
    for _ in range(2 * len(compiled) + 4):
        terms = [
            _term(wcet, period, h, rub, _slack(deadline, rub))
            for (_, wcet, deadline, period, h), rub in zip(compiled, rubs)
        ]
        # others is terms without k, kept so by one store per task
        others = terms[1:]
        new_rubs = []
        for k, (_, wcet, deadline, _, _) in enumerate(compiled):
            if k:
                others[k - 1] = terms[k - 1]
            rub = rubs[k]
            if fell is None or (fell and fell != [k]) or rub <= deadline:
                # the first step from C taken as a count: at Rub = C the
                # cap is 1, and every term with x = C + offset > 0 has a
                # workload of at least 1
                floor = -wcet
                start = wcet + len([term for term in others if term[3] > floor]) // cores
                rub = _bound(wcet, deadline, others, cores, start)
            new_rubs.append(rub)
        verdicts = [rub <= deadline for (_, _, deadline, _, _), rub in zip(compiled, new_rubs)]
        settled = new_rubs == rubs or verdicts == prev_verdicts
        fell = [i for i, (new, old) in enumerate(zip(new_rubs, rubs)) if new < old]
        rubs, prev_verdicts = new_rubs, verdicts
        if settled:
            break
    return rubs


def analyze(ts: TaskSet, cores: int, policy: InterferencePolicy) -> AnalysisReport:
    """Analyze a whole task set under one interference policy.

    The set is compiled once into integer tuples in rank order.
    Fixed-priority policies run a single pass in that order.  Global EDF
    refines the whole set in Jacobi rounds, each bounding every task
    against the bounds of the round before, until the bounds or the
    verdicts stop moving, for at most 2n + 4 rounds.  From the second
    round on, a task that failed is bounded again only when some
    interferer's Rub fell since the last round.  Otherwise its
    recurrence rose pointwise, because an interferer's window offset
    strictly increases with its Rub and every workload is nondecreasing,
    so it fails again without evaluation.  This is exact: the reports
    equal those of bounding every task in every round.  The set is
    schedulable when every task is.

    Raises:
        EmptyTaskSet: if the task set has no tasks.
        ValueError: if cores is not an integer >= 1, or policy is not an
            InterferencePolicy.
    """
    if not isinstance(policy, InterferencePolicy):
        raise ValueError(f"policy must be an InterferencePolicy, got {policy!r}")
    if len(ts) == 0:
        raise EmptyTaskSet("cannot analyze an empty task set")
    if isinstance(cores, bool) or not isinstance(cores, int):
        raise ValueError(f"cores must be an integer, got {cores!r}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    compiled = [_compile(task, policy) for task in sorted(ts, key=rank_key)]
    if policy is InterferencePolicy.GLOBAL_EDF:
        rubs = _analyze_edf(compiled, cores)
    else:
        rubs = _analyze_fixed_priority(compiled, cores)
    reports = {c[0]: _report(c[0], c[2], rub) for c, rub in zip(compiled, rubs)}
    entries = tuple(reports[task.id] for task in ts)
    return AnalysisReport(entries, all(e.schedulable for e in entries), policy)
