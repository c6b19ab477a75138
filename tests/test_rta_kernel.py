"""The compiled analysis kernel against the term-by-term reference.

``reference_analyze`` (``reference_rta.py``) runs the analysis per task
on ``baseline_workload`` / ``wh_workload`` and picks ``wh`` interferers
from the job-class table, sharing no arithmetic with the kernel in
``whsched.rta``.  ``analyze`` must return equal reports.
"""

import pytest

from whsched import (
    AlwaysWcet,
    GenSpec,
    InterferencePolicy,
    Scenario,
    SchedulingPolicy,
    SimConfig,
    Synchronous,
    analyze,
    assign_priorities,
    check_trace,
    make_taskset,
    simulate,
)
from reference_rta import reference_analyze
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
