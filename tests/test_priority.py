import random

import pytest

from whsched import (
    EmptyTaskSet,
    Task,
    TaskSet,
    WeaklyHardConstraint,
    assign_priorities,
    class_count,
    derive_wh,
)
from whsched.model import rank_key
from whsched.priority import level_shape, next_job_level
from reference_sim import paper_initial_level, paper_job_level


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


def walk(m, k, start, outcomes):
    """The (level, streak) states the package step passes through."""
    shape = level_shape(WeaklyHardConstraint(m, k))
    states = [start]
    for bit in outcomes:
        states.append(next_job_level(*states[-1], *shape, hit=bit == "1"))
    return states


class TestJobLevelAutomaton:
    def test_initial_state(self):
        # (1, 4) derives (w, h) = (1, 3): the level starts at 1 - h
        assert level_shape(WeaklyHardConstraint(1, 4)) == (-2, 1, 3)
        assert paper_initial_level(WeaklyHardConstraint(1, 4)) == (-2, 0)

    def test_hits_saturate_at_cap(self):
        # (1, 3) derives (1, 2) and caps the level at K - m = 2
        levels = [lv for lv, _ in walk(1, 3, (-1, 0), "11111")]
        assert levels == [-1, 0, 1, 2, 2, 2]

    def test_w_misses_restore_initial(self):
        # (2, 3) derives (2, 1): the second miss in a row resets
        assert walk(2, 3, (1, 0), "00") == [(1, 0), (1, 1), (0, 0)]

    def test_hit_clears_miss_streak(self):
        assert walk(2, 3, (1, 1), "1") == [(1, 1), (1, 0)]

    def test_step_matches_reference_on_every_reachable_state(self):
        # every (m, K) up to K = 60 and the hard shape: walk all states
        # reachable from the initial one, compare each step with the
        # reference rule and keep each state inside [1 - h, K - m] x [0, w)
        constraints = [WeaklyHardConstraint(0, 1)] + [
            WeaklyHardConstraint(m, k) for k in range(2, 61) for m in range(1, k)
        ]
        most = 0
        for c in constraints:
            shape = initial, w, cap = level_shape(c)
            start = paper_initial_level(c)
            assert start == (initial, 0)
            seen = {start}
            todo = [start]
            while todo:
                state = todo.pop()
                assert initial <= state[0] <= cap and 0 <= state[1] < w, (c, state)
                for hit in (False, True):
                    nxt = next_job_level(*state, *shape, hit)
                    assert nxt == paper_job_level(*state, c, hit), (c, state, hit)
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            most = max(most, len(seen))
        # (1, 60): levels -58..59, all at streak 0
        assert most == 118

    def test_critical_pattern_keeps_class_zero_on_hits(self):
        # replaying the worst tolerated pattern, h hits then w misses,
        # the automaton demands class 0 exactly while the pattern hits
        for k in range(2, 13):
            for m in range(1, k):
                c = WeaklyHardConstraint(m, k)
                t, shape = derive_wh(c), level_shape(c)
                level, streak = shape[0], 0
                pattern = ((1,) * t.h + (0,) * t.w) * 4
                for outcome in pattern:
                    if outcome == 1:
                        assert max(0, level) == 0
                    level, streak = next_job_level(level, streak, *shape, outcome == 1)

    @pytest.mark.parametrize("m,k", [(2, 5), (1, 3), (2, 3), (3, 8), (5, 8)])
    def test_random_stream_stays_in_bounds(self, m, k):
        c = WeaklyHardConstraint(m, k)
        t, shape = derive_wh(c), level_shape(c)
        rng = random.Random(k * 31 + m)
        level, streak = shape[0], 0
        for _ in range(500):
            assert -(t.h - 1) <= level <= k - m
            assert 0 <= streak < t.w
            level, streak = next_job_level(level, streak, *shape, rng.random() < 0.7)
