import random

import pytest

from whsched import (
    EmptyTaskSet,
    JobLevelState,
    MKTransform,
    Task,
    TaskSet,
    WeaklyHardConstraint,
    advance_job_level,
    assign_priorities,
    class_count,
    critical_sequence,
    derive_wh,
)
from whsched.model import rank_key


def task(id=0, c=1, d=10, t=10, m=0, k=1):
    return Task(id, c, d, t, WeaklyHardConstraint(m, k))


THREE = TaskSet((
    task(1, 2, 6, 6, 2, 5),
    task(2, 3, 7, 7, 1, 3),
    task(3, 2, 8, 8, 2, 3),
))


class TestClassCount:
    def test_weakly_hard(self):
        assert class_count(task(m=2, k=5)) == 4
        assert class_count(task(m=1, k=3)) == 3
        assert class_count(task(m=2, k=3)) == 2

    def test_hard_pinned_to_one(self):
        assert class_count(task(m=0, k=1)) == 1


class TestAssignPriorities:
    def test_three_task_example(self):
        table = assign_priorities(THREE)
        assert table.order == (1, 2, 3)
        assert table.priorities == {1: (9, 6, 3, 1), 2: (8, 5, 2), 3: (7, 4)}
        assert table.total == 9
        assert table.jc0(1) == 9
        assert table.priority(1, 3) == 1
        assert table.class_count(2) == 3

    def test_single_task(self):
        table = assign_priorities(TaskSet((task(7, m=1, k=2),)))
        assert table.priorities == {7: (2, 1)}

    def test_deadline_then_misses_then_id(self):
        ts = TaskSet((
            task(5, d=6, t=6, m=2, k=3),
            task(2, d=6, t=6, m=1, k=3),
            task(1, d=6, t=6, m=2, k=3),
        ))
        assert assign_priorities(ts).order == (2, 1, 5)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyTaskSet):
            assign_priorities(TaskSet(()))

    # seeds 5, 6, 9, 10, 11, 17 and 19 draw equal deadlines, where the
    # order falls to m and then id
    @pytest.mark.parametrize("seed", range(20))
    def test_bijection_and_class_major_order(self, seed):
        rng = random.Random(seed)
        tasks = []
        for i in range(rng.randint(2, 12)):
            k = rng.randint(1, 8)
            m = rng.randint(0, k - 1)
            if m == 0:
                k = 1
            d = rng.randint(2, 40)
            tasks.append(task(i, 1, d, d, m, k))
        ts = TaskSet(tuple(tasks))
        table = assign_priorities(ts)

        flat = [p for col in table.priorities.values() for p in col]
        assert sorted(flat) == list(range(1, table.total + 1))
        for t in ts:
            col = table.priorities[t.id]
            assert len(col) == class_count(t)
            assert list(col) == sorted(col, reverse=True)
        # class-major: any class-q priority beats any class-(q+1) priority
        by_q = {}
        for col in table.priorities.values():
            for q, p in enumerate(col):
                by_q.setdefault(q, []).append(p)
        for q in range(len(by_q) - 1):
            assert min(by_q[q]) > max(by_q[q + 1])
        # analyze orders interferers by rank_key alone; that order must be
        # the descending class-0 priority order the scheduler uses
        by_jc0 = sorted(ts, key=lambda t: -table.jc0(t.id))
        assert by_jc0 == sorted(ts, key=rank_key)


class TestJobLevelAutomaton:
    def test_initial_state(self):
        t = MKTransform(1, 3)
        s = JobLevelState.initial(t)
        assert (s.level, s.miss_streak) == (-2, 0)
        assert s.class_index == 0

    def test_hits_saturate_at_cap(self):
        t = MKTransform(1, 2)  # from (1, 3): cap = K - m = 2
        s = JobLevelState.initial(t)
        levels = []
        for _ in range(5):
            s = advance_job_level(s, t, 2, hit=True)
            levels.append(s.level)
        assert levels == [0, 1, 2, 2, 2]

    def test_w_misses_restore_initial(self):
        t = MKTransform(2, 1)  # from (2, 3): cap = 1
        s = JobLevelState(1, 0)
        s = advance_job_level(s, t, 1, hit=False)
        assert (s.level, s.miss_streak) == (1, 1)
        s = advance_job_level(s, t, 1, hit=False)
        assert s == JobLevelState.initial(t)

    def test_hit_clears_miss_streak(self):
        t = MKTransform(2, 1)
        s = JobLevelState(1, 1)
        s = advance_job_level(s, t, 1, hit=True)
        assert (s.level, s.miss_streak) == (1, 0)

    def test_critical_pattern_keeps_class_zero_on_hits(self):
        # replaying the worst tolerated pattern, the automaton demands
        # class 0 exactly while the pattern hits
        for k in range(2, 13):
            for m in range(1, k):
                t = derive_wh(WeaklyHardConstraint(m, k))
                cap = k - m
                s = JobLevelState.initial(t)
                pattern = critical_sequence(t).outcomes * 4
                for outcome in pattern:
                    if outcome == 1:
                        assert s.class_index == 0
                    s = advance_job_level(s, t, cap, hit=outcome == 1)

    @pytest.mark.parametrize("m,k", [(2, 5), (1, 3), (2, 3), (3, 8), (5, 8)])
    def test_random_stream_stays_in_bounds(self, m, k):
        t = derive_wh(WeaklyHardConstraint(m, k))
        cap = k - m
        rng = random.Random(k * 31 + m)
        s = JobLevelState.initial(t)
        for _ in range(500):
            assert -(t.h - 1) <= s.level <= cap
            assert 0 <= s.miss_streak < t.w
            assert 0 <= s.class_index <= cap
            s = advance_job_level(s, t, cap, hit=rng.random() < 0.7)
