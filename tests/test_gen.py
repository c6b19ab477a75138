import time

import pytest

from whsched import (
    GenSpec,
    Infeasible,
    Scenario,
    Task,
    ToleranceClass,
    WeaklyHardConstraint,
    classify,
    make_taskset,
    uunifast,
)


class TestUunifast:
    @pytest.mark.parametrize("n,total", [(1, 0.4), (4, 2.5), (10, 0.1), (10, 7.0)])
    def test_shares_sum_and_bounds(self, n, total):
        shares = uunifast(n, total, seed=3)
        assert len(shares) == n
        assert sum(shares) == pytest.approx(total)
        assert all(0 < u <= 1 for u in shares)

    def test_full_packing_short_circuits(self):
        assert uunifast(4, 4.0, seed=0) == [1.0, 1.0, 1.0, 1.0]

    def test_overfull_rejected(self):
        with pytest.raises(Infeasible):
            uunifast(4, 4.01)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            uunifast(0, 0.5)
        with pytest.raises(ValueError):
            uunifast(3, 0.0)
        # NaN compares False both ways, so it must fail the > 0 guard
        # here, not reach the discard loop and end in Infeasible
        with pytest.raises(ValueError, match="must be > 0, got nan"):
            uunifast(20, float("nan"))

    def test_deterministic_per_seed(self):
        assert uunifast(5, 2.5, seed=7) == uunifast(5, 2.5, seed=7)
        assert uunifast(5, 2.5, seed=7) != uunifast(5, 2.5, seed=8)

    def test_frozen_stream(self):
        shares = uunifast(5, 2.5, seed=7)
        assert shares[0] == pytest.approx(0.6140932904347003, abs=0)
        assert shares[4] == pytest.approx(0.058671338916774105, abs=0)

    def test_discard_loop_is_bounded(self):
        # valid vectors are a vanishing corner of the simplex here: the
        # draw gives up with Infeasible instead of resampling forever
        start = time.perf_counter()
        with pytest.raises(Infeasible):
            uunifast(20, 19.9)
        assert time.perf_counter() - start < 1.0


class TestGenSpec:
    def test_validation(self):
        good = dict(tasks=3, utilization=1.0, window=5, scenario=Scenario.ALL_LOW)
        GenSpec(**good)
        with pytest.raises(ValueError):
            GenSpec(**{**good, "tasks": 0})
        with pytest.raises(ValueError):
            GenSpec(**{**good, "utilization": 0.0})
        with pytest.raises(ValueError, match="utilization must be > 0, got nan"):
            GenSpec(**{**good, "utilization": float("nan")})
        with pytest.raises(ValueError):
            GenSpec(**{**good, "window": 1})
        with pytest.raises(ValueError):
            GenSpec(**{**good, "period_range": (1, 100)})
        with pytest.raises(ValueError):
            GenSpec(**{**good, "period_range": (100, 10)})
        with pytest.raises(ValueError):
            GenSpec(**{**good, "periods": ()})

    def test_period_grid_normalized_to_tuple(self):
        spec = GenSpec(3, 1.0, 5, Scenario.ALL_LOW, periods=[10, 20])
        assert spec.periods == (10, 20)


class TestMakeTaskset:
    def test_shape_and_timing_constraints(self):
        spec = GenSpec(8, 2.0, 5, Scenario.ALL_LOW, seed=4)
        ts = make_taskset(spec)
        assert [t.id for t in ts] == list(range(8))
        for t in ts:
            assert 1 <= t.wcet <= t.period
            assert t.deadline == t.period
            assert 10 <= t.period <= 1000
            assert t.constraint.K == 5

    @pytest.mark.parametrize("scenario,tol", [
        (Scenario.ALL_LOW, ToleranceClass.LOW),
        (Scenario.ALL_HIGH, ToleranceClass.HIGH),
    ])
    def test_scenario_bands(self, scenario, tol):
        for seed in range(8):
            ts = make_taskset(GenSpec(6, 1.5, 5, scenario, seed=seed))
            assert all(classify(t.constraint) is tol for t in ts)

    def test_low_band_needs_room(self):
        with pytest.raises(ValueError):
            make_taskset(GenSpec(3, 1.0, 2, Scenario.ALL_LOW))
        # K = 2 still works for high tolerance: m = 1
        ts = make_taskset(GenSpec(3, 1.0, 2, Scenario.ALL_HIGH))
        assert all(t.constraint == WeaklyHardConstraint(1, 2) for t in ts)

    def test_explicit_period_grid(self):
        grid = (10, 20, 25)
        ts = make_taskset(GenSpec(12, 3.0, 5, Scenario.ALL_HIGH, periods=grid, seed=2))
        assert all(t.period in grid for t in ts)

    def test_realized_utilization_tracks_target(self):
        for seed in range(6):
            spec = GenSpec(8, 2.5, 5, Scenario.ALL_HIGH, seed=seed)
            ts = make_taskset(spec)
            bound = sum(1.0 / t.period for t in ts)
            assert abs(float(ts.utilization) - 2.5) <= bound + 1e-9

    def test_bit_exact_per_seed(self):
        spec = GenSpec(3, 1.5, 5, Scenario.ALL_LOW, seed=1)
        assert make_taskset(spec) == make_taskset(spec)
        expected = (
            Task(0, 346, 364, 364, WeaklyHardConstraint(2, 5)),
            Task(1, 84, 997, 997, WeaklyHardConstraint(2, 5)),
            Task(2, 7, 14, 14, WeaklyHardConstraint(1, 5)),
        )
        assert make_taskset(spec).tasks == expected

    def test_bit_exact_with_grid(self):
        spec = GenSpec(4, 2.0, 5, Scenario.ALL_HIGH, periods=(10, 20, 25), seed=9)
        expected = (
            Task(0, 5, 10, 10, WeaklyHardConstraint(3, 5)),
            Task(1, 15, 25, 25, WeaklyHardConstraint(4, 5)),
            Task(2, 20, 25, 25, WeaklyHardConstraint(4, 5)),
            Task(3, 3, 20, 20, WeaklyHardConstraint(3, 5)),
        )
        assert make_taskset(spec).tasks == expected
