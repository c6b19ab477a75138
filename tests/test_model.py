import dataclasses
import pickle
from fractions import Fraction

import pytest

from whsched import (
    HARD_CONSTRAINT,
    HardTaskHasNoTransform,
    InvalidConstraint,
    InvalidTask,
    MKTransform,
    Task,
    TaskSet,
    ToleranceClass,
    WeaklyHardConstraint,
    classify,
    derive_wh,
    harder_than,
)

from reference_rta import NotHighTolerance, equivalent_task


def mk(m, k):
    return WeaklyHardConstraint(m, k)


def task(id=0, c=1, d=10, t=10, m=0, k=1):
    return Task(id, c, d, t, mk(m, k))


class TestWeaklyHardConstraint:
    def test_hard_is_zero_one(self):
        c = mk(0, 1)
        assert c == HARD_CONSTRAINT
        assert c.miss_ratio == 0

    @pytest.mark.parametrize("m,k", [(0, 5), (0, 2), (3, 3), (5, 4), (-1, 3), (1, 0), (0, 0)])
    def test_rejects_bad_pairs(self, m, k):
        with pytest.raises(InvalidConstraint):
            mk(m, k)

    def test_miss_ratio_exact(self):
        assert mk(2, 5).miss_ratio == Fraction(2, 5)


class TestValueSemantics:
    # both types build their slots by hand; they must still behave as
    # the frozen dataclasses they are declared as
    @pytest.mark.parametrize("value,fields,text", [
        (mk(2, 5), (2, 5), "WeaklyHardConstraint(m=2, K=5)"),
        (MKTransform(3, 1), (3, 1), "MKTransform(w=3, h=1)"),
        (derive_wh(mk(8, 10)), (4, 1), "MKTransform(w=4, h=1)"),
    ])
    def test_dataclass_behaviour(self, value, fields, text):
        cls = type(value)
        assert dataclasses.astuple(value) == fields
        assert value == cls(*fields) and hash(value) == hash(cls(*fields))
        assert repr(value) == text
        assert pickle.loads(pickle.dumps(value)) == value
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, fields[0])
        assert dataclasses.replace(value) == value

    def test_keywords_and_replace_validate(self):
        assert WeaklyHardConstraint(K=5, m=2) == mk(2, 5)
        assert MKTransform(h=2, w=1) == MKTransform(1, 2)
        with pytest.raises(InvalidConstraint, match="need 0 <= m < K"):
            dataclasses.replace(mk(2, 5), m=5)
        with pytest.raises(InvalidConstraint, match="need w >= 1"):
            dataclasses.replace(MKTransform(1, 2), w=0)

    def test_messages(self):
        with pytest.raises(InvalidConstraint, match=r"K must be >= 1, got K=0"):
            mk(0, 0)
        with pytest.raises(InvalidConstraint, match=r"got m=3, K=3"):
            mk(3, 3)
        with pytest.raises(InvalidConstraint, match=r"encoded as \(0, 1\), got \(0, 5\)"):
            mk(0, 5)


class TestClassify:
    def test_examples(self):
        assert classify(mk(0, 1)) is ToleranceClass.HARD
        assert classify(mk(2, 5)) is ToleranceClass.LOW
        assert classify(mk(3, 5)) is ToleranceClass.HIGH
        assert classify(mk(1, 2)) is ToleranceClass.HIGH

    def test_boundary_is_exact_rational(self):
        # 2m vs K in integers, no float comparison artifacts
        assert classify(mk(499, 1000)) is ToleranceClass.LOW
        assert classify(mk(500, 1000)) is ToleranceClass.HIGH
        assert classify(mk(499, 999)) is ToleranceClass.LOW
        assert classify(mk(500, 999)) is ToleranceClass.HIGH


class TestDeriveWh:
    @pytest.mark.parametrize("m,k,w,h", [
        (2, 5, 1, 2),
        (3, 5, 1, 1),
        (1, 5, 1, 4),
        (4, 5, 4, 1),
        (4, 10, 1, 2),
        (8, 10, 4, 1),
        (1, 2, 1, 1),
    ])
    def test_examples(self, m, k, w, h):
        assert derive_wh(mk(m, k)) == MKTransform(w, h)

    def test_hard_has_no_transform(self):
        with pytest.raises(HardTaskHasNoTransform):
            derive_wh(mk(0, 1))

    def test_transform_validation(self):
        with pytest.raises(InvalidConstraint):
            MKTransform(0, 2)
        with pytest.raises(InvalidConstraint):
            MKTransform(1, 0)

    def test_tolerance_pins_one_side(self):
        # low tolerance always w = 1, high tolerance always h = 1
        for k in range(2, 130):
            for m in range(1, k):
                t = derive_wh(mk(m, k))
                assert t.w >= 1 and t.h >= 1
                assert t.w + t.h <= k
                if classify(mk(m, k)) is ToleranceClass.LOW:
                    assert t.w == 1
                else:
                    assert t.h == 1


class TestHarderThan:
    def test_self_implication(self):
        for b in range(1, 12):
            for a in range(b + 1):
                assert harder_than(a, b, a, b)

    def test_examples(self):
        # needing 2 hits of every 3 forces 3 hits in every 5
        assert harder_than(2, 3, 3, 5)
        # 1 hit of every 3 does not give 2 hits of every 5
        assert not harder_than(1, 3, 2, 5)
        # anything implies the empty requirement
        assert harder_than(0, 3, 0, 7)

    @pytest.mark.parametrize("args", [(3, 2, 1, 2), (1, 2, 3, 2), (1, 0, 1, 1), (1, 1, 1, 0), (-1, 2, 0, 2)])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(InvalidConstraint):
            harder_than(*args)

    def test_transform_is_harder_verified_by_enumeration(self):
        # independent oracle: enumerate every outcome sequence of length
        # K and check the implication directly
        def window_misses_ok(bits, allowed, width):
            for s in range(len(bits) - width + 1):
                if width - sum(bits[s:s + width]) > allowed:
                    return False
            return True

        for k in range(2, 13):
            for m in range(1, k):
                t = derive_wh(mk(m, k))
                assert harder_than(t.h, t.w + t.h, k - m, k)
                for x in range(1 << k):
                    bits = [(x >> i) & 1 for i in range(k)]
                    if window_misses_ok(bits, t.w, t.w + t.h):
                        assert window_misses_ok(bits, m, k)


class TestTask:
    def test_fields_and_utilization(self):
        t = task(id=3, c=2, d=6, t=8, m=2, k=5)
        assert (t.wcet, t.deadline, t.period) == (2, 6, 8)
        assert t.utilization == Fraction(1, 4)

    @pytest.mark.parametrize("c,d,t", [(0, 5, 5), (6, 5, 5), (3, 6, 5), (1, 0, 5)])
    def test_rejects_bad_timing(self, c, d, t):
        with pytest.raises(InvalidTask):
            task(c=c, d=d, t=t)

    def test_rejects_negative_id(self):
        with pytest.raises(InvalidTask):
            task(id=-1)


class TestEquivalentTask:
    def test_high_tolerance_stretches_period(self):
        t = task(id=3, c=2, d=8, t=8, m=2, k=3)  # w = 2
        eq = equivalent_task(t)
        assert (eq.wcet, eq.deadline, eq.period) == (2, 8, 24)
        assert eq.constraint == HARD_CONSTRAINT
        assert eq.id == t.id

    def test_w_plus_one_periods(self):
        t = task(c=1, d=10, t=10, m=8, k=10)  # w = 4
        assert equivalent_task(t).period == 50

    @pytest.mark.parametrize("m,k", [(0, 1), (2, 5)])
    def test_rejects_non_high(self, m, k):
        with pytest.raises(NotHighTolerance):
            equivalent_task(task(m=m, k=k))


class TestTaskSet:
    def test_lookup_and_sizes(self):
        ts = TaskSet((task(id=0, t=10, d=10), task(id=1, c=2, d=20, t=20)))
        assert len(ts) == 2
        assert ts.task(1).wcet == 2
        with pytest.raises(KeyError):
            ts.task(9)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidTask):
            TaskSet((task(id=1), task(id=1)))

    def test_utilization_and_hyperperiod(self):
        ts = TaskSet((task(id=0, c=2, d=4, t=4), task(id=1, c=3, d=6, t=6)))
        assert ts.utilization == Fraction(1)
        assert ts.hyperperiod == 12
