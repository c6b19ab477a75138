import pytest

from whsched import (
    AnalysisReport,
    EmptyTaskSet,
    GenSpec,
    InterferencePolicy,
    Scenario,
    Task,
    TaskSet,
    WeaklyHardConstraint,
    analyze,
    assign_priorities,
    make_taskset,
)

from reference_rta import baseline_workload, wh_workload

RM = InterferencePolicy.FIXED_PRIORITY_RM
EDF = InterferencePolicy.GLOBAL_EDF
WH = InterferencePolicy.WEAKLY_HARD_JC0


def task(id=0, c=1, d=10, t=10, m=0, k=1):
    return Task(id, c, d, t, WeaklyHardConstraint(m, k))


# three tasks, one per tolerance class, deadlines 6 < 7 < 8
EXAMPLE = TaskSet((
    task(1, 2, 6, 6, 2, 5),
    task(2, 3, 7, 7, 1, 3),
    task(3, 2, 8, 8, 2, 3),
))


class TestBaselineWorkload:
    HARD = task(0, 2, 6, 6)

    def test_zero_window_below_offset(self):
        terms = baseline_workload(self.HARD, rub=2, slack=4, window=0)
        assert (terms.jobs, terms.residual, terms.total) == (0, 0, 0)

    def test_residual_capped_at_wcet(self):
        # x = 14 + 2 - 2 - 4 = 10: one full job plus a residual of 4
        terms = baseline_workload(self.HARD, rub=2, slack=4, window=14)
        assert (terms.jobs, terms.residual, terms.total) == (1, 4, 4)

    def test_exact_multiple(self):
        # x = 12: two full jobs, nothing left over
        terms = baseline_workload(self.HARD, rub=2, slack=4, window=16)
        assert (terms.jobs, terms.residual, terms.total) == (2, 0, 4)

    def test_monotone_in_window(self):
        prev = -1
        for window in range(0, 80):
            cur = baseline_workload(self.HARD, 2, 4, window).total
            assert cur >= prev
            prev = cur


class TestWhWorkload:
    LOW = task(0, 3, 7, 7, 1, 3)    # h = 2: every third job tolerable
    HIGH = task(0, 2, 8, 8, 2, 3)   # w = 2: behaves like a hard task with T = 24

    def test_low_carry_out_dropped_on_tolerable_slot(self):
        # x = 17: N = 2, the carry-out job is the tolerable one
        terms = wh_workload(self.LOW, rub=3, slack=4, window=21)
        assert (terms.jobs, terms.excluded, terms.carry_out, terms.residual) == (2, 0, 0, 3)
        assert terms.total == 6

    def test_low_whole_jobs_excluded(self):
        # x = 21: N = 3, one excluded, carry-out restored
        terms = wh_workload(self.LOW, rub=3, slack=4, window=25)
        assert (terms.jobs, terms.excluded, terms.carry_out) == (3, 1, 1)
        assert terms.total == 6

    def test_zero_window(self):
        assert wh_workload(self.LOW, 3, 4, 0).total == 0

    def test_high_uses_stretched_period(self):
        # x = 24 on the stretched period 24: exactly one full job
        terms = wh_workload(self.HIGH, rub=2, slack=6, window=30)
        assert (terms.jobs, terms.residual, terms.total) == (1, 0, 2)

    def test_hard_falls_back_to_baseline(self):
        hard = task(0, 2, 6, 6)
        for window in (0, 5, 14, 16):
            assert wh_workload(hard, 2, 4, window) == baseline_workload(hard, 2, 4, window)

    @pytest.mark.parametrize("t", [LOW, HIGH, task(0, 2, 9, 9, 3, 7), task(0, 4, 11, 11, 6, 8)])
    def test_never_exceeds_baseline(self, t):
        for rub in (t.wcet, t.deadline):
            for slack in (0, 2, t.deadline - 1):
                for window in range(0, 6 * t.period):
                    wh = wh_workload(t, rub, slack, window).total
                    base = baseline_workload(t, rub, slack, window).total
                    assert wh <= base

    def test_monotone_in_window(self):
        for t in (self.LOW, self.HIGH, task(0, 2, 9, 9, 3, 7)):
            prev = -1
            for window in range(0, 8 * t.period):
                cur = wh_workload(t, t.wcet, 1, window).total
                assert cur >= prev
                prev = cur

    def test_exclusions_follow_job_count(self):
        # whole excluded jobs are exactly the tolerable fraction of N
        for t in (self.LOW, task(0, 2, 9, 9, 3, 7), task(0, 1, 5, 5, 2, 9)):
            h = {7: 2, 9: 2, 5: 4}[t.period]
            for window in range(0, 10 * t.period):
                terms = wh_workload(t, t.wcet, 0, window)
                assert terms.excluded == terms.jobs // (h + 1)


class TestResponseTime:
    def test_lone_task_runs_unhindered(self):
        ts = TaskSet((task(0, 3, 9, 9),))
        rep = analyze(ts, 1, RM).entry(0)
        assert (rep.rub, rep.slack, rep.schedulable) == (3, 6, True)

    def test_example_set_weakly_hard(self):
        report = analyze(EXAMPLE, 2, WH)
        assert report.set_schedulable
        assert [report.entry(i).rub for i in (1, 2, 3)] == [2, 3, 2]
        assert [report.entry(i).slack for i in (1, 2, 3)] == [4, 4, 6]

    def test_example_set_rm(self):
        report = analyze(EXAMPLE, 2, RM)
        assert report.set_schedulable
        assert [report.entry(i).rub for i in (1, 2, 3)] == [2, 3, 2]

    def test_example_set_edf(self):
        report = analyze(EXAMPLE, 2, EDF)
        assert report.set_schedulable
        assert [report.entry(i).rub for i in (1, 2, 3)] == [4, 5, 6]

    def test_edf_never_beats_rm_on_example(self):
        rm = analyze(EXAMPLE, 2, RM)
        edf = analyze(EXAMPLE, 2, EDF)
        for i in (1, 2, 3):
            assert edf.entry(i).rub >= rm.entry(i).rub

    def test_two_heavy_tasks_one_core_unschedulable(self):
        ts = TaskSet((task(0, 5, 6, 6), task(1, 5, 6, 6)))
        report = analyze(ts, 1, RM)
        assert not report.set_schedulable
        first, second = report.entry(0), report.entry(1)
        assert (first.rub, first.schedulable) == (5, True)
        assert (second.rub, second.slack, second.schedulable) == (7, 0, False)

    def test_one_task_per_core(self):
        ts = TaskSet(tuple(task(i, 4, 4, 4) for i in range(3)))
        report = analyze(ts, 3, RM)
        assert report.set_schedulable
        assert all(e.rub == 4 for e in report.entries)

    def test_report_shape(self):
        report = analyze(EXAMPLE, 2, WH)
        assert isinstance(report, AnalysisReport)
        assert report.policy is WH
        assert [e.task_id for e in report.entries] == [1, 2, 3]
        with pytest.raises(KeyError):
            report.entry(99)

    def test_invalid_inputs(self):
        with pytest.raises(EmptyTaskSet):
            analyze(TaskSet(()), 2, RM)
        with pytest.raises(ValueError):
            analyze(EXAMPLE, 0, RM)

    def test_verdict_consistent_with_deadline(self):
        for policy in (RM, EDF, WH):
            report = analyze(EXAMPLE, 1, policy)
            for e in report.entries:
                t = EXAMPLE.task(e.task_id)
                assert e.schedulable == (e.rub <= t.deadline)
                if e.schedulable:
                    assert e.slack == t.deadline - e.rub
                else:
                    assert (e.rub, e.slack) == (t.deadline + 1, 0)


class TestPolicyDominance:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scenario", [Scenario.ALL_LOW, Scenario.ALL_HIGH])
    def test_weakly_hard_bounds_below_rm(self, seed, scenario):
        spec = GenSpec(tasks=8, utilization=2.5, window=5, scenario=scenario, seed=seed)
        ts = make_taskset(spec)
        rm = analyze(ts, 4, RM)
        wh = analyze(ts, 4, WH)
        for t in ts:
            assert wh.entry(t.id).rub <= rm.entry(t.id).rub
        if rm.set_schedulable:
            assert wh.set_schedulable

    def test_priority_order_matches_table(self):
        # jc0 priorities induce the same analysis order as the RM rank
        table = assign_priorities(EXAMPLE)
        jc0 = sorted(EXAMPLE, key=lambda t: -table.jc0(t.id))
        assert [t.id for t in jc0] == list(table.order)
