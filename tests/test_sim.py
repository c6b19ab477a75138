import dataclasses
import pickle

import pytest

from whsched import (
    AlwaysWcet,
    InvalidConfig,
    JobLevelState,
    JobRecord,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Synchronous,
    Task,
    TaskSet,
    UniformUpToWcet,
    Violation,
    WeaklyHardConstraint,
    advance_job_level,
    assign_priorities,
    check_trace,
    derive_wh,
    simulate,
)


def task(id=0, c=1, d=10, t=10, m=0, k=1):
    return Task(id, c, d, t, WeaklyHardConstraint(m, k))


def cfg(**kw):
    base = dict(cores=1, horizon=8, policy=SchedulingPolicy.JOB_CLASS)
    base.update(kw)
    return SimConfig(**base)


# two identical tasks competing for one core; each tolerates every
# other miss, so the job-class policy alternates the winner
PAIR = TaskSet((task(0, 2, 2, 2, 1, 2), task(1, 2, 2, 2, 1, 2)))
PAIR_TABLE = assign_priorities(PAIR)


class TestSingleTask:
    def test_uncontended_hits(self):
        ts = TaskSet((task(0, 2, 4, 4),))
        trace = simulate(ts, assign_priorities(ts), cfg(horizon=8))
        assert trace.outcome_string(0) == "11"
        assert [r.finish for r in trace.records[0]] == [2, 6]
        assert [r.executed for r in trace.records[0]] == [2, 2]
        assert all(r.class_index == 0 for r in trace.records[0])
        assert check_trace(trace, ts) == []

    def test_deadline_beyond_horizon_not_recorded(self):
        ts = TaskSet((task(0, 1, 2, 2),))
        trace = simulate(ts, assign_priorities(ts), cfg(horizon=3))
        assert [(r.release, r.finish) for r in trace.records[0]] == [(0, 1)]
        # an unrecorded job still runs: task 0's job released at 3 has
        # deadline 6 past the horizon, yet it preempts task 1, which misses
        ts = TaskSet((task(0, 1, 3, 3), task(1, 3, 4, 4)))
        trace = simulate(ts, assign_priorities(ts), cfg(horizon=4, policy=SchedulingPolicy.RM))
        assert [r.release for r in trace.records[0]] == [0]
        (rec,) = trace.records[1]
        assert (rec.outcome, rec.executed, rec.finish) == ("miss", 2, None)


class TestJobClassAlternation:
    def test_alternating_outcomes(self):
        trace = simulate(PAIR, PAIR_TABLE, cfg())
        assert trace.outcome_string(0) == "1010"
        assert trace.outcome_string(1) == "0101"

    def test_class_indices_track_outcomes(self):
        trace = simulate(PAIR, PAIR_TABLE, cfg())
        assert [r.class_index for r in trace.records[0]] == [0, 1, 0, 1]
        assert [r.class_index for r in trace.records[1]] == [0, 0, 1, 0]

    def test_loser_of_round_one_is_flagged(self):
        trace = simulate(PAIR, PAIR_TABLE, cfg())
        assert check_trace(trace, PAIR) == [Violation(1, "jc0", 0)]

    def test_rm_starves_lower_task(self):
        trace = simulate(PAIR, PAIR_TABLE, cfg(policy=SchedulingPolicy.RM))
        assert trace.outcome_string(0) == "1111"
        assert trace.outcome_string(1) == "0000"
        violations = check_trace(trace, PAIR)
        assert [v for v in violations if v.kind == "jc0"] == [
            Violation(1, "jc0", i) for i in range(4)
        ]
        assert [v for v in violations if v.kind == "window"] == [
            Violation(1, "window", i) for i in range(3)
        ]

    def test_kill_leaves_partial_record(self):
        trace = simulate(PAIR, PAIR_TABLE, cfg(policy=SchedulingPolicy.RM))
        starved = trace.records[1][0]
        assert starved.outcome == "miss"
        assert starved.finish is None
        assert starved.executed < PAIR.task(1).wcet


class TestRecords:
    # records are built without the dataclass __init__; they must still
    # be ordinary JobRecords, a hit with a finish and a kill with None
    @pytest.mark.parametrize("pos", [0, 1])
    def test_simulated_records_are_job_records(self, pos):
        trace = simulate(PAIR, PAIR_TABLE, cfg(policy=SchedulingPolicy.RM))
        rec = trace.records[pos][0]
        fields = tuple(getattr(rec, f.name) for f in dataclasses.fields(JobRecord))
        built = JobRecord(*fields)
        assert type(rec) is JobRecord
        assert rec == built and hash(rec) == hash(built)
        assert repr(rec) == repr(built)
        assert repr(rec).startswith(f"JobRecord(task_id={rec.task_id}, release=")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.outcome = "hit"
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert not hasattr(rec, "__dict__")


class TestEdfPolicy:
    def test_ties_break_by_id_and_cores_stay_busy(self):
        ts = TaskSet(tuple(task(i, 3, 3, 3) for i in range(3)))
        trace = simulate(ts, None, cfg(cores=2, horizon=6, policy=SchedulingPolicy.EDF))
        assert trace.outcome_string(0) == "11"
        assert trace.outcome_string(1) == "11"
        assert trace.outcome_string(2) == "00"
        # two cores fully busy for six ticks
        total = sum(r.executed for recs in trace.records.values() for r in recs)
        assert total == 12

    def test_table_ignored(self):
        ts = TaskSet((task(0, 2, 4, 4),))
        a = simulate(ts, None, cfg(policy=SchedulingPolicy.EDF))
        b = simulate(ts, assign_priorities(ts), cfg(policy=SchedulingPolicy.EDF))
        assert a.records == b.records


class TestAutomatonReplay:
    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_recorded_classes_match_replay(self, policy):
        ts = TaskSet((
            task(0, 2, 5, 5, 2, 5),
            task(1, 3, 7, 7, 1, 3),
            task(2, 2, 6, 6, 2, 3),
        ))
        table = assign_priorities(ts)
        trace = simulate(
            ts, table,
            cfg(cores=1, horizon=200, policy=policy, execution=UniformUpToWcet(), seed=5),
        )
        for t in ts:
            tr = derive_wh(t.constraint)
            cap = t.constraint.K - t.constraint.m
            state = JobLevelState.initial(tr)
            for rec in trace.records[t.id]:
                assert rec.class_index == state.class_index
                state = advance_job_level(state, tr, cap, rec.outcome == "hit")


class TestStochasticModels:
    def test_jitter_bounds_inter_arrival(self):
        ts = TaskSet((task(0, 1, 5, 5), task(1, 1, 7, 7)))
        trace = simulate(
            ts, assign_priorities(ts),
            cfg(horizon=600, release=SporadicJitter(max_jitter=3), seed=9),
        )
        for tid, period in ((0, 5), (1, 7)):
            times = [r.release for r in trace.records[tid]]
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert gaps and all(period <= g <= period + 3 for g in gaps)
            assert times[0] == 0

    def test_jitter_actually_jitters(self):
        ts = TaskSet((task(0, 1, 5, 5),))
        trace = simulate(
            ts, assign_priorities(ts),
            cfg(horizon=600, release=SporadicJitter(max_jitter=3), seed=9),
        )
        times = [r.release for r in trace.records[0]]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 1

    def test_uniform_execution_bounded(self):
        ts = TaskSet((task(0, 4, 9, 9),))
        trace = simulate(
            ts, assign_priorities(ts),
            cfg(horizon=900, execution=UniformUpToWcet(), seed=3),
        )
        execs = {r.executed for r in trace.records[0]}
        assert all(1 <= e <= 4 for e in execs)
        assert len(execs) > 1

    def test_model_seed_overrides_config_seed(self):
        ts = TaskSet((task(0, 1, 5, 5),))
        table = assign_priorities(ts)
        jitter = SporadicJitter(max_jitter=4, seed=77)
        a = simulate(ts, table, cfg(horizon=400, release=jitter, seed=1))
        b = simulate(ts, table, cfg(horizon=400, release=jitter, seed=2))
        times = lambda tr: [r.release for r in tr.records[0]]
        assert times(a) == times(b)

    def test_determinism(self):
        ts = TaskSet((task(0, 2, 5, 5, 1, 2), task(1, 2, 6, 6, 1, 3)))
        table = assign_priorities(ts)
        c = cfg(
            horizon=300, release=SporadicJitter(max_jitter=2),
            execution=UniformUpToWcet(), seed=42,
        )
        a, b = simulate(ts, table, c), simulate(ts, table, c)
        assert a.records == b.records
        assert a.outcomes == b.outcomes
        assert a == b


class TestValidation:
    def test_bad_platform(self):
        ts = TaskSet((task(0),))
        table = assign_priorities(ts)
        with pytest.raises(InvalidConfig):
            simulate(ts, table, cfg(cores=0))
        with pytest.raises(InvalidConfig):
            simulate(ts, table, cfg(horizon=0))
        with pytest.raises(InvalidConfig):
            simulate(ts, table, cfg(release=SporadicJitter(max_jitter=-1)))

    @pytest.mark.parametrize("kw", [
        dict(cores=True),
        dict(cores=1.5),
        dict(horizon=100.0),
        dict(horizon=100.5, release=SporadicJitter(max_jitter=2)),
        dict(horizon=True),
        dict(release=SporadicJitter(max_jitter=2.5)),
        dict(release=SporadicJitter(max_jitter=True)),
    ], ids=[
        "cores-bool", "cores-float", "horizon-float", "horizon-fraction-jitter",
        "horizon-bool", "jitter-float", "jitter-bool",
    ])
    def test_parameters_must_be_integers(self, kw):
        ts = TaskSet((task(0),))
        with pytest.raises(InvalidConfig, match="must be an integer"):
            simulate(ts, assign_priorities(ts), cfg(**kw))

    @pytest.mark.parametrize("policy", ["rm", "job-class", "edf", None])
    def test_policy_must_be_a_member(self, policy):
        # "rm" used to fall through to the deadline key and run EDF
        ts = TaskSet((task(0, 2, 5, 5), task(1, 2, 6, 6), task(2, 3, 7, 7)))
        with pytest.raises(InvalidConfig, match=repr(policy)):
            simulate(ts, assign_priorities(ts), cfg(horizon=300, policy=policy))

    def test_empty_set(self):
        with pytest.raises(InvalidConfig):
            simulate(TaskSet(()), None, cfg(policy=SchedulingPolicy.EDF))

    def test_priority_policies_need_table(self):
        ts = TaskSet((task(0),))
        for policy in (SchedulingPolicy.JOB_CLASS, SchedulingPolicy.RM):
            with pytest.raises(InvalidConfig):
                simulate(ts, None, cfg(policy=policy))

    def test_table_must_cover_tasks(self):
        ts = TaskSet((task(0), task(1)))
        partial = assign_priorities(TaskSet((task(0),)))
        with pytest.raises(InvalidConfig):
            simulate(ts, partial, cfg())

    def test_table_classes_must_match(self):
        ts = TaskSet((task(0, m=1, k=3),))
        stale = assign_priorities(TaskSet((task(0, m=1, k=5),)))
        with pytest.raises(InvalidConfig):
            simulate(ts, stale, cfg(policy=SchedulingPolicy.JOB_CLASS))
