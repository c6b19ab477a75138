"""The compiled analysis kernel against the term-by-term reference.

``reference_analyze`` (``reference_rta.py``) runs the analysis per task
on ``baseline_workload`` / ``wh_workload`` and picks ``wh`` interferers
from the job-class table, sharing no arithmetic with the kernel in
``whsched.rta``.  ``analyze`` must return equal reports.
"""

import collections

import pytest

from whsched import rta
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
import reference_rta
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


# the sets of the ratio experiment: 20 tasks on 4 cores, K = 5, all
# high tolerance, from the light end where every bound holds to the
# heavy end where every bound fails in the first round
SWEEP_SHAPED = [
    GenSpec(20, u, 5, Scenario.ALL_HIGH, seed=(round(10 * u) << 8) ^ i)
    for u in (2.0, 2.4, 2.8, 3.2, 3.6, 4.0, 4.4)
    for i in range(3)
]

# its EDF rounds fall into a 2-cycle from round 3 and never settle, so
# both sides run all 2n + 4 = 44 rounds
CYCLE = GenSpec(20, 2.8, 5, Scenario.ALL_HIGH, seed=(99 << 8) ^ 1)


@pytest.fixture
def bound_calls(monkeypatch):
    """Count the kernel's bounds and the reference's bounds, which
    recompute every task in every round."""
    calls = collections.Counter()
    bound = rta._bound
    reference = reference_rta._reference_response_time

    def counted_bound(*args):
        calls["kernel"] += 1
        return bound(*args)

    def counted_reference(*args):
        calls["reference"] += 1
        return reference(*args)

    monkeypatch.setattr(rta, "_bound", counted_bound)
    monkeypatch.setattr(reference_rta, "_reference_response_time", counted_reference)
    return calls


def test_edf_matches_reference_on_sweep_shaped_sets(bound_calls):
    skipped = 0
    for spec in SWEEP_SHAPED:
        ts = make_taskset(spec)
        bound_calls.clear()
        report = analyze(ts, 4, EDF)
        assert report == reference_analyze(ts, 4, EDF), spec
        # both run the same rounds; a bound the kernel did not compute
        # is a failure carried over because no interferer's Rub fell
        assert bound_calls["kernel"] <= bound_calls["reference"], spec
        skipped += bound_calls["reference"] - bound_calls["kernel"]
    assert skipped > 0


def test_edf_matches_reference_up_to_the_round_cap(bound_calls):
    ts = make_taskset(CYCLE)
    report = analyze(ts, 4, EDF)
    assert report == reference_analyze(ts, 4, EDF)
    assert bound_calls["reference"] == len(ts) * (2 * len(ts) + 4)


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
