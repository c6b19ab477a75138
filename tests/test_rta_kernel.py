"""The compiled analysis kernel against a reference built on the public workload terms.

``reference_analyze`` is the per-term loop of the analysis written
directly on ``baseline_workload`` / ``wh_workload`` and the job-class
table: every workload is a ``WorkloadTerms``, every interferer set is
picked by priority.  ``analyze`` must return equal reports.
"""

import pytest

from whsched import (
    AlwaysWcet,
    AnalysisReport,
    GenSpec,
    InterferencePolicy,
    Scenario,
    SchedulingPolicy,
    SimConfig,
    Synchronous,
    TaskReport,
    analyze,
    assign_priorities,
    baseline_workload,
    check_trace,
    make_taskset,
    simulate,
    wh_workload,
)
from whsched.model import rank_key

from test_rta import EXAMPLE

RM = InterferencePolicy.FIXED_PRIORITY_RM
EDF = InterferencePolicy.GLOBAL_EDF
WH = InterferencePolicy.WEAKLY_HARD_JC0

# accepted under wh, yet a synchronous WCET job-class simulation shows
# task 3's first job as a class-0 miss
REPRODUCER = GenSpec(
    6, 1.4, 8, Scenario.ALL_LOW,
    periods=(10, 20, 25, 40, 50, 100, 125, 200, 250), seed=125439,
)


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


def _generated():
    # U spread from light to past the core count, capped where uunifast
    # stays fast (0.75 of the task count)
    for cores in (2, 4):
        for tasks in (6, 20):
            for k in (5, 8, 50):
                for scenario in (Scenario.ALL_LOW, Scenario.ALL_HIGH):
                    top = min(1.1 * cores, 0.75 * tasks)
                    for i in range(6):
                        u = round(0.3 * cores + i * (top - 0.3 * cores) / 5, 3)
                        seed = 1000 * cores + 100 * tasks + 10 * k + i
                        yield GenSpec(tasks, u, k, scenario, seed=seed), cores


GENERATED = list(_generated())


@pytest.mark.parametrize("policy", [RM, EDF, WH], ids=lambda p: p.value)
def test_kernel_matches_reference_on_generated_sets(policy):
    accepted = 0
    for spec, cores in GENERATED:
        ts = make_taskset(spec)
        report = analyze(ts, cores, policy)
        assert report == reference_analyze(ts, cores, policy), (spec, cores)
        accepted += report.set_schedulable
    # the spread reaches both verdicts
    assert 0 < accepted < len(GENERATED)


@pytest.mark.parametrize("policy", [RM, EDF, WH], ids=lambda p: p.value)
@pytest.mark.parametrize("cores", [1, 2])
def test_kernel_matches_reference_on_example(policy, cores):
    assert analyze(EXAMPLE, cores, policy) == reference_analyze(EXAMPLE, cores, policy)


@pytest.mark.parametrize("policy", [RM, EDF, WH], ids=lambda p: p.value)
def test_kernel_matches_reference_on_reproducer(policy):
    ts = make_taskset(REPRODUCER)
    assert analyze(ts, 2, policy) == reference_analyze(ts, 2, policy)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the workload offset L + Rub - C - slack subtracts the interferer's slack twice; "
           "Bertogna & Cirinei use L + D - C - slack",
)
def test_wh_acceptance_of_reproducer_survives_simulation():
    ts = make_taskset(REPRODUCER)
    report = analyze(ts, 2, WH)
    cfg = SimConfig(
        2, min(3 * ts.hyperperiod, 10 ** 6), SchedulingPolicy.JOB_CLASS,
        release=Synchronous(), execution=AlwaysWcet(),
    )
    violations = check_trace(simulate(ts, assign_priorities(ts), cfg), ts)
    assert not (report.set_schedulable and violations), violations[:3]
