"""The incremental event core against the scan-everything reference.

``reference_simulate`` (``reference_sim.py``) rescans every live job at
every event and re-sorts the ready set by a tuple key.  ``simulate``
must return an equal ``SimTrace``: the same records, outcome bits, event
log and horizon, on random sets under every policy and model, and on
hand-made sets that pin the order of events within one tick.
"""

import random

import pytest

from whsched import (
    AlwaysWcet,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Synchronous,
    Task,
    TaskSet,
    UniformUpToWcet,
    WeaklyHardConstraint,
    assign_priorities,
    simulate,
)
from reference_sim import reference_simulate

EDF = SchedulingPolicy.EDF

MODELS = {
    "sync-wcet": (Synchronous(), AlwaysWcet()),
    "jitter0-uniform": (SporadicJitter(max_jitter=0), UniformUpToWcet()),
    "jitter3-uniform": (SporadicJitter(max_jitter=3), UniformUpToWcet()),
}
PERIODS = (2, 3, 4, 5, 6, 8, 10, 12)
# primes above every period, so never a multiple of one
ODD_HORIZONS = (37, 53, 71, 97)
SETS = 30


def task(id, c, d, t, m=0, k=1):
    return Task(id, c, d, t, WeaklyHardConstraint(m, k))


def _random_set(rng: random.Random) -> TaskSet:
    n = rng.randint(1, 6)
    # sparse ids in shuffled order, so id order differs from tuple order
    ids = rng.sample(range(3 * n), n)
    tasks = []
    for tid in ids:
        t = rng.choice(PERIODS)
        d = rng.randint(1, t)
        k = rng.randint(1, 6)
        m = rng.randint(1, k - 1) if k > 1 else 0
        tasks.append(task(tid, rng.randint(1, d), d, t, m, k))
    return TaskSet(tuple(tasks))


def _configs():
    for s in range(SETS):
        rng = random.Random(s)
        ts = _random_set(rng)
        horizons = (1, rng.choice(ODD_HORIZONS), 3 * ts.hyperperiod)
        for i, horizon in enumerate(horizons):
            yield s, ts, 1 + (s + i) % 4, horizon


CONFIGS = list(_configs())


def same_trace(ts, table, cfg):
    trace = simulate(ts, table, cfg)
    assert trace == reference_simulate(ts, table, cfg), (ts, cfg)
    return trace


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_kernel_matches_reference_on_random_sets(policy, model):
    release, execution = MODELS[model]
    for seed, ts, cores, horizon in CONFIGS:
        table = None if policy is EDF else assign_priorities(ts)
        same_trace(ts, table, SimConfig(cores, horizon, policy, release, execution, seed))


def test_configuration_coverage():
    assert len(CONFIGS) * len(SchedulingPolicy) * len(MODELS) >= 300
    assert {c for _, _, c, _ in CONFIGS} == {1, 2, 3, 4}
    assert any(
        len(ts) > cores and 3 * ts.hyperperiod == horizon for _, ts, cores, horizon in CONFIGS
    )


@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_finish_at_deadline_is_a_hit(policy):
    # task 0 takes [0, 1); task 1 then ends exactly at its deadline 3
    ts = TaskSet((task(0, 1, 2, 4), task(1, 2, 3, 4)))
    trace = same_trace(ts, assign_priorities(ts), SimConfig(1, 12, policy))
    assert all(r.finish == r.deadline == r.release + 3 for r in trace.records[1])
    assert trace.outcome_string(1) == "111"


@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_finish_and_release_in_one_tick(policy):
    # task 1 finishes at 2 as both next jobs arrive: the finish is logged
    # before the releases
    ts = TaskSet((task(0, 1, 2, 2), task(1, 1, 2, 2)))
    trace = same_trace(ts, assign_priorities(ts), SimConfig(1, 6, policy))
    tick2 = [e for e in trace.events if e[0] == 2]
    assert [e[1] for e in tick2] == ["finish", "release", "release"]
    assert all(trace.outcome_string(t) == "111" for t in (0, 1))


def test_edf_equal_deadlines_prefer_lower_id():
    # listed high id first; every tick both deadlines tie, and id 2 wins
    ts = TaskSet((task(5, 2, 3, 3), task(2, 2, 3, 3)))
    trace = same_trace(ts, None, SimConfig(1, 9, EDF))
    assert trace.outcome_string(2) == "111"
    assert trace.outcome_string(5) == "000"
    assert all(r.executed == 1 for r in trace.records[5])


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_constrained_deadlines_kill_before_next_release(policy, cores):
    ts = TaskSet((
        task(0, 2, 3, 7, 1, 2),
        task(1, 3, 4, 5, 2, 3),
        task(2, 2, 2, 6, 1, 3),
    ))
    table = assign_priorities(ts)
    for execution, seed in ((AlwaysWcet(), 0), (UniformUpToWcet(), 4)):
        trace = same_trace(ts, table, SimConfig(cores, 210, policy, execution=execution, seed=seed))
        kills = [e for e in trace.events if e[1] == "kill"]
        if cores == 1 and execution == AlwaysWcet():
            assert kills
        for time, _, tid, index in kills:
            assert time == index * ts.task(tid).period + ts.task(tid).deadline
