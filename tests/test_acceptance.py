"""End-to-end acceptance suite.

Each test here pins one externally meaningful guarantee of the package:
exact counting values, the reference priority table, transform shape
laws over the full parameter grid, exhaustive hardness checking,
analysis soundness against the simulator, schedulability-ratio
dominance of the job-class analysis, schedulability past the core
count, and analysis running time. Tolerances and runtime budgets are
part of the contract and asserted explicitly.
"""

import statistics
import time
from decimal import Decimal
from itertools import count

from whsched import (
    AlwaysWcet,
    GenSpec,
    InterferencePolicy,
    Scenario,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Task,
    TaskSet,
    ToleranceClass,
    WeaklyHardConstraint,
    analyze,
    assign_priorities,
    check_trace,
    classify,
    derive_wh,
    harder_than,
    hardness_bruteforce,
    make_taskset,
    run_experiment,
    simulate,
    transformation_cost,
)

WH = InterferencePolicy.WEAKLY_HARD_JC0


def test_counting_reference_values():
    # exact sequence counts and their 4-significant-digit ratios for
    # eight reference (m, K) pairs, full 2^K enumeration under 5 s
    expected = {
        (1, 5): (6, 6, "1.0"),
        (2, 5): (9, 16, "0.5625"),
        (3, 5): (13, 26, "0.5"),
        (4, 5): (31, 31, "1.0"),
        (4, 10): (60, 386, "0.1554"),
        (8, 10): (912, 1013, "0.9003"),
        (8, 20): (2745, 263950, "0.01040"),
        (16, 20): (786568, 1047225, "0.7511"),
    }
    start = time.perf_counter()
    results = {
        pair: transformation_cost(WeaklyHardConstraint(*pair))
        for pair in expected
    }
    elapsed = time.perf_counter() - start
    for pair, (transformed, original, printed) in expected.items():
        cost = results[pair]
        assert (cost.transformed_count, cost.original_count) == (transformed, original)
        assert cost.decimal() == Decimal(printed)
    assert elapsed < 5.0, f"counting took {elapsed:.2f}s"


def test_priority_table_reference_example():
    ts = TaskSet((
        Task(1, 2, 6, 6, WeaklyHardConstraint(2, 5)),
        Task(2, 3, 7, 7, WeaklyHardConstraint(1, 3)),
        Task(3, 2, 8, 8, WeaklyHardConstraint(2, 3)),
    ))
    table = assign_priorities(ts)
    assert table.priorities == {1: (9, 6, 3, 1), 2: (8, 5, 2), 3: (7, 4)}


def test_transform_shape_and_implication_full_grid():
    # every (m, K) up to K = 1000: low tolerance pins w = 1, high
    # tolerance pins h = 1, and the derived hit pattern implies the
    # original constraint; the whole sweep stays under 1 s
    constraint = WeaklyHardConstraint
    derive = derive_wh
    tolerance = classify
    implies = harder_than
    low = ToleranceClass.LOW
    bad = []
    start = time.perf_counter()
    for k in range(2, 1001):
        for m in range(1, k):
            c = constraint(m, k)
            t = derive(c)
            pinned = t.w == 1 if tolerance(c) is low else t.h == 1
            if not pinned or not implies(t.h, t.w + t.h, k - m, k):
                bad.append((m, k))
    elapsed = time.perf_counter() - start
    assert not bad
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"


def test_transform_hardness_exhaustive_small_windows():
    # enumerate every outcome sequence for every (m, K) with K <= 16:
    # no sequence admitted by the transformed constraint violates the
    # original one; budget 2 min
    start = time.perf_counter()
    for k in range(2, 17):
        for m in range(1, k):
            assert hardness_bruteforce(WeaklyHardConstraint(m, k)), (m, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"enumeration took {elapsed:.2f}s"


def test_analysis_verdicts_confirmed_by_simulation():
    # every set the job-class analysis accepts must survive simulation:
    # no class-0 miss and no (m, K) window violation, under synchronous
    # WCET releases and under 20 seeded jitter scenarios
    grid = (10, 20, 25, 40, 50, 100, 125, 200, 250)
    target_us = (2.0, 2.4, 2.8)
    accepted = 0
    for i in count():
        if accepted >= 200:
            break
        assert i < 1000, f"only {accepted} schedulable sets in {i} candidates"
        scenario = Scenario.ALL_LOW if i % 2 == 0 else Scenario.ALL_HIGH
        spec = GenSpec(
            tasks=8, utilization=target_us[i % 3], window=5,
            scenario=scenario, periods=grid, seed=5000 ^ i,
        )
        ts = make_taskset(spec)
        if not analyze(ts, 4, WH).set_schedulable:
            continue
        accepted += 1
        table = assign_priorities(ts)
        horizon = min(3 * ts.hyperperiod, 10 ** 6)
        runs = [SimConfig(4, horizon, SchedulingPolicy.JOB_CLASS)]
        runs += [
            SimConfig(
                4, horizon, SchedulingPolicy.JOB_CLASS,
                release=SporadicJitter(max_jitter=25, seed=js),
                execution=AlwaysWcet(),
            )
            for js in range(20)
        ]
        for cfg in runs:
            trace = simulate(ts, table, cfg)
            violations = check_trace(trace, ts)
            assert violations == [], (spec, cfg.release, violations[:3])
    assert accepted == 200


def test_schedulability_ratio_dominance_sweep():
    # 200 sets per utilization point, 20 tasks, 4 cores: the job-class
    # analysis accepts at least as many sets as fixed-priority RM
    # everywhere, beats it by 30+ percentage points somewhere, and RM
    # stays above EDF once demand reaches the core count
    u_list = [2.0, 2.4, 2.8, 3.2, 3.6, 4.0, 4.4]
    start = time.perf_counter()
    results = run_experiment(
        ["rm", "edf", "wh"], Scenario.ALL_HIGH,
        tasks=20, cores=4, window=5, sets=200, u_list=u_list, seed=0,
    )
    elapsed = time.perf_counter() - start
    ratio = {(r.policy, r.target_u): r.ratio for r in results}
    assert all(ratio[("wh", u)] >= ratio[("rm", u)] for u in u_list)
    assert max(ratio[("wh", u)] - ratio[("rm", u)] for u in u_list) >= 0.30
    for u in (4.0, 4.4):
        assert ratio[("rm", u)] >= ratio[("edf", u)]
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"


def test_high_tolerance_set_schedulable_beyond_core_count():
    # some generated all-high set with realized utilization above the
    # core count is still accepted by the job-class analysis (4 cores)
    for i in range(40):
        spec = GenSpec(20, 4.6, 5, Scenario.ALL_HIGH, seed=31000 ^ i)
        ts = make_taskset(spec)
        if float(ts.utilization) > 4.0 and analyze(ts, 4, WH).set_schedulable:
            return
    raise AssertionError("no schedulable set with realized U > 4 in 40 draws")


def test_analysis_runtime_flat_in_window_size():
    # 100 tasks on 4 cores: every analysis run finishes under 2 s, and
    # the median runtime is insensitive to K (within 2x across three
    # orders of magnitude).  The K = 50 and K = 500 sets are the K = 5
    # set with every (m, K) scaled by 10 and 100: m/K, and so (w, h),
    # stay the same, so the sets differ in K alone and not in how much
    # fixed-point work they need
    base = make_taskset(GenSpec(100, 3.0, 5, Scenario.ALL_LOW, seed=555))
    medians = {}
    for k in (5, 50, 500):
        scale = k // 5
        ts = TaskSet(tuple(
            Task(t.id, t.wcet, t.deadline, t.period,
                 WeaklyHardConstraint(t.constraint.m * scale, t.constraint.K * scale))
            for t in base
        ))
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            analyze(ts, 4, WH)
            samples.append(time.perf_counter() - start)
        assert max(samples) < 2.0, f"K={k}: slowest run {max(samples):.3f}s"
        medians[k] = statistics.median(samples)
    spread = max(medians.values()) / min(medians.values())
    assert spread < 2.0, f"medians {medians} spread {spread:.2f}x"
