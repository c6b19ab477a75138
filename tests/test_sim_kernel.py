"""The incremental event core against the scan-everything reference.

``reference_simulate`` (``reference_sim.py``) rescans every live job at
every event and re-sorts the ready set by a tuple key.  ``simulate``
must return an equal ``SimTrace``: the same records, outcome bits and
horizon, on random sets under every policy and model, on sets with K up
to 50 that walk deep into each task's job-level table, and on hand-made
sets where finishes, deadlines and releases meet in one tick.  The
inlined integer draws are checked against ``Random.randint`` directly.
"""

import random

import pytest

from whsched import (
    AlwaysWcet,
    JobLevelState,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Synchronous,
    Task,
    TaskSet,
    UniformUpToWcet,
    WeaklyHardConstraint,
    advance_job_level,
    assign_priorities,
    derive_wh,
    simulate,
)
from whsched.sim import _exec_times, _release_times
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


LARGE_K_MODELS = {
    "jitter3-uniform": (SporadicJitter(max_jitter=3), UniformUpToWcet()),
    "jitter1-wcet": (SporadicJitter(max_jitter=1), AlwaysWcet()),
    "sync-uniform": (Synchronous(), UniformUpToWcet()),
}
LARGE_K_SETS = 10
LARGE_K_HORIZON = 997


def _large_k_set(rng: random.Random) -> TaskSet:
    # the first task has K = 50; odd positions are high tolerance
    # (m > K - m, so w > 1 once m >= 2(K - m)), even ones low tolerance
    # (m <= K / 4, so h > 1)
    n = rng.randint(2, 6)
    ids = rng.sample(range(3 * n), n)
    tasks = []
    for i, tid in enumerate(ids):
        t = rng.choice(PERIODS)
        d = rng.randint(1, t)
        k = 50 if i == 0 else rng.randint(2, 50)
        if i % 2:
            m = rng.randint(k // 2 + 1, k - 1) if k > 2 else 1
        else:
            m = rng.randint(1, max(1, k // 4))
        tasks.append(task(tid, rng.randint(1, d), d, t, m, k))
    return TaskSet(tuple(tasks))


LARGE_K_CONFIGS = [
    (s, _large_k_set(random.Random(1000 + s)), 1 + s % 3) for s in range(LARGE_K_SETS)
]


def _level_coverage(ts, trace) -> set[str]:
    """Which corners of the job-level automaton the trace's outcomes reach.

    "cap": a hit lifts the level to K - m; "w-reset": w > 1 misses in a
    row drop a positive level back to the initial state; "h>1": a task
    whose initial level is negative climbs to a class above 0.
    """
    seen = set()
    for tk in ts:
        c = tk.constraint
        transform = derive_wh(c)
        cap = c.K - c.m
        state = JobLevelState.initial(transform)
        for bit in trace.outcomes[tk.id]:
            nxt = advance_job_level(state, transform, cap, bool(bit))
            if nxt.level == cap > state.level:
                seen.add("cap")
            if not bit and transform.w > 1 and state.level > 0 and state.miss_streak + 1 == transform.w:
                seen.add("w-reset")
            if transform.h > 1 and nxt.class_index > 0:
                seen.add("h>1")
            state = nxt
    return seen


@pytest.mark.parametrize("model", LARGE_K_MODELS)
@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_kernel_matches_reference_at_large_k(policy, model):
    release, execution = LARGE_K_MODELS[model]
    seen = set()
    for seed, ts, cores in LARGE_K_CONFIGS:
        table = None if policy is EDF else assign_priorities(ts)
        cfg = SimConfig(cores, LARGE_K_HORIZON, policy, release, execution, seed)
        seen |= _level_coverage(ts, same_trace(ts, table, cfg))
    assert seen == {"cap", "w-reset", "h>1"}


def test_large_k_configuration_coverage():
    assert all(ts.tasks[0].constraint.K == 50 for _, ts, _ in LARGE_K_CONFIGS)
    assert {c for _, _, c in LARGE_K_CONFIGS} == {1, 2, 3}


DRAW_WIDTHS = (1, 2, 3, 4, 5, 8, 9, 26, 64, 65, 1000)
DRAW_SEEDS = (0, 1, 7, 12345, 2**40 + 3)


@pytest.mark.parametrize("width", DRAW_WIDTHS)
def test_release_draws_equal_randint(width):
    # max_jitter = width - 1, so width 1 is max_jitter 0; the horizon
    # leaves room for about 200 draws
    tk = task(0, 1, 3, 3)
    cfg = SimConfig(1, 200 * (3 + width), SchedulingPolicy.RM, SporadicJitter(max_jitter=width - 1))
    for seed in DRAW_SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        expected, t = [], 0
        while t < cfg.horizon:
            expected.append(t)
            t += tk.period + ref.randint(0, width - 1)
        assert list(_release_times(tk, cfg, rng)) == expected
        # the generator is left where randint leaves it
        assert rng.random() == ref.random()


@pytest.mark.parametrize("width", DRAW_WIDTHS)
def test_exec_draws_equal_randint(width):
    # wcet = width, so width 1 is wcet 1
    tk = task(0, width, width, width)
    cfg = SimConfig(1, 500, SchedulingPolicy.RM, execution=UniformUpToWcet())
    for seed in DRAW_SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        expected = [ref.randint(1, width) for _ in range(200)]
        assert list(_exec_times(tk, 200, cfg, rng)) == expected
        assert rng.random() == ref.random()


@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_finish_at_deadline_is_a_hit(policy):
    # task 0 takes [0, 1); task 1 then ends exactly at its deadline 3
    ts = TaskSet((task(0, 1, 2, 4), task(1, 2, 3, 4)))
    trace = same_trace(ts, assign_priorities(ts), SimConfig(1, 12, policy))
    assert all(r.finish == r.deadline == r.release + 3 for r in trace.records[1])
    assert trace.outcome_string(1) == "111"


@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_finish_and_release_in_one_tick(policy):
    # task 1 finishes at 2 as both next jobs arrive
    ts = TaskSet((task(0, 1, 2, 2), task(1, 1, 2, 2)))
    trace = same_trace(ts, assign_priorities(ts), SimConfig(1, 6, policy))
    assert [r.finish for r in trace.records[1]] == [2, 4, 6]
    assert all(trace.records[t][1].release == 2 for t in (0, 1))
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
        kills = 0
        for tk in ts:
            for index, rec in enumerate(trace.records[tk.id]):
                assert rec.release == index * tk.period
                assert rec.deadline == rec.release + tk.deadline
                if rec.finish is None:
                    # killed at its deadline, before the task's next release
                    kills += 1
                    assert rec.outcome == "miss" and rec.executed < tk.wcet
                    assert rec.deadline <= (index + 1) * tk.period
        if cores == 1 and execution == AlwaysWcet():
            assert kills
