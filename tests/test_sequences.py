import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest

import whsched
from whsched import (
    ConstraintKind,
    DeadlineSequence,
    MKTransform,
    SequenceTooShort,
    WeaklyHardConstraint,
    critical_sequence,
    derive_wh,
    hardness_bruteforce,
    satisfies,
    sequences,
    transformation_cost,
)


def seq(s):
    return DeadlineSequence.from_string(s)


def _longest_run(window, value):
    best = run = 0
    for x in window:
        run = run + 1 if x == value else 0
        best = max(best, run)
    return best


def _windows_ok(bits, width, pred):
    return all(pred(bits[s:s + width]) for s in range(len(bits) - width + 1))


def _weakened(constraint):
    # the derived shape loosened by one, still with w = 1 or h = 1
    t = derive_wh(constraint)
    return MKTransform(1, t.h - 1) if t.w == 1 and t.h > 1 else MKTransform(t.w + 1, 1)


def _naive(m, k, t):
    # (transformed count, original count, hardness) by enumerating all
    # 2^k sequences and checking every window
    trans = orig = 0
    hard = True
    for bits in product((0, 1), repeat=k):
        kept = _windows_ok(bits, t.length, lambda win: win.count(0) <= t.w)
        within = bits.count(0) <= m
        trans += kept
        orig += within
        hard = hard and (within or not kept)
    return trans, orig, hard


def test_import_needs_no_third_party_package():
    code = (
        "import sys; before = set(sys.modules); import whsched; "
        "print('numpy' in sys.modules); "
        "print(sorted({n.split('.')[0] for n in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'whsched'}))"
    )
    # the child imports the whsched this test imported, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(whsched.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]


class TestDeadlineSequence:
    def test_round_trip(self):
        s = seq("11010")
        assert str(s) == "11010"
        assert s.outcomes == (1, 1, 0, 1, 0)
        assert len(s) == 5

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            seq("110x0")
        with pytest.raises(ValueError):
            DeadlineSequence((1, 2, 0))


class TestSatisfies:
    def test_any_misses_window_scan(self):
        assert satisfies(seq("11011"), ConstraintKind.ANY_MISSES, 1, 3)
        assert not satisfies(seq("10010"), ConstraintKind.ANY_MISSES, 1, 3)

    def test_row_examples(self):
        # no more than 2 consecutive misses in any window of 4
        assert satisfies(seq("1001011"), ConstraintKind.ROW_MISSES, 2, 4)
        assert not satisfies(seq("1000101"), ConstraintKind.ROW_MISSES, 2, 4)
        # a run of at least 2 hits inside every window of 4
        assert satisfies(seq("1101101"), ConstraintKind.ROW_HITS, 2, 4)
        assert not satisfies(seq("1011010"), ConstraintKind.ROW_HITS, 2, 4)

    def test_any_hits_complements_any_misses(self):
        for bits in product((0, 1), repeat=8):
            s = DeadlineSequence(bits)
            for w in (2, 3, 5):
                for a in range(w + 1):
                    assert satisfies(s, ConstraintKind.ANY_HITS, a, w) == satisfies(
                        s, ConstraintKind.ANY_MISSES, w - a, w
                    )

    def test_all_kinds_against_oracle(self):
        preds = {
            ConstraintKind.ANY_HITS: lambda win, a: sum(win) >= a,
            ConstraintKind.ANY_MISSES: lambda win, a: win.count(0) <= a,
            ConstraintKind.ROW_HITS: lambda win, a: _longest_run(win, 1) >= a,
            ConstraintKind.ROW_MISSES: lambda win, a: _longest_run(win, 0) <= a,
        }
        for bits in product((0, 1), repeat=7):
            s = DeadlineSequence(bits)
            for w in (3, 5):
                for a in range(w + 1):
                    for kind, pred in preds.items():
                        expect = _windows_ok(bits, w, lambda win: pred(win, a))
                        assert satisfies(s, kind, a, w) == expect

    def test_short_sequence_rejected(self):
        with pytest.raises(SequenceTooShort):
            satisfies(seq("101"), ConstraintKind.ANY_MISSES, 1, 4)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            satisfies(seq("10101"), ConstraintKind.ANY_MISSES, 4, 3)
        with pytest.raises(ValueError):
            satisfies(seq("10101"), ConstraintKind.ANY_MISSES, -1, 3)
        with pytest.raises(ValueError):
            satisfies(seq("10101"), ConstraintKind.ANY_MISSES, 0, 0)


class TestCriticalSequence:
    def test_examples(self):
        assert str(critical_sequence(MKTransform(2, 3))) == "11100"
        assert str(critical_sequence(MKTransform(1, 1))) == "10"
        assert str(critical_sequence(MKTransform(1, 4))) == "11110"

    def test_cyclic_repetition_meets_original_constraint(self):
        # repeating the worst tolerated pattern forever never violates
        # the (m, K) bound it was derived from
        for k in range(2, 17):
            for m in range(1, k):
                t = derive_wh(WeaklyHardConstraint(m, k))
                pat = critical_sequence(t).outcomes
                reps = -(-3 * k // len(pat))
                long = (pat * reps)[: 3 * k]
                assert satisfies(DeadlineSequence(long), ConstraintKind.ANY_MISSES, m, k)


class TestTransformationCost:
    # exact counts frozen from an independent per-window enumeration
    FROZEN = {
        (1, 5): (6, 6, "1"),
        (2, 5): (9, 16, "0.5625"),
        (3, 5): (13, 26, "0.5"),
        (4, 5): (31, 31, "1"),
        (4, 10): (60, 386, "0.1554"),
        (8, 10): (912, 1013, "0.9003"),
        (8, 20): (2745, 263950, "0.01040"),
        (16, 20): (786568, 1047225, "0.7511"),
    }

    @pytest.mark.parametrize("mk,expect", sorted(FROZEN.items()))
    def test_frozen_counts(self, mk, expect):
        m, k = mk
        cost = transformation_cost(WeaklyHardConstraint(m, k))
        assert (cost.transformed_count, cost.original_count) == expect[:2]
        assert cost.decimal() == Decimal(expect[2])

    def test_ratio_is_exact_fraction(self):
        cost = transformation_cost(WeaklyHardConstraint(3, 5))
        assert cost.ratio == Fraction(1, 2)

    def test_matches_naive_oracle_small(self, monkeypatch):
        # counts and hardness against plain enumeration, under the derived
        # shapes (hardness holds) and under shapes weakened by one (it
        # fails), so both verdicts are checked
        verdicts = set()
        for shape in (derive_wh, _weakened):
            monkeypatch.setattr(sequences, "derive_wh", shape)
            for k in range(2, 13):
                for m in range(1, k):
                    c = WeaklyHardConstraint(m, k)
                    trans, orig, hard = _naive(m, k, shape(c))
                    cost = transformation_cost(c)
                    assert (cost.transformed_count, cost.original_count) == (trans, orig), (m, k)
                    assert hardness_bruteforce(c) is hard, (m, k)
                    verdicts.add(hard)
        assert verdicts == {True, False}

    def test_transformed_never_exceeds_original(self):
        for k in range(2, 13):
            for m in range(1, k):
                cost = transformation_cost(WeaklyHardConstraint(m, k))
                assert 0 < cost.transformed_count <= cost.original_count

    def test_large_window(self):
        cost = transformation_cost(WeaklyHardConstraint(300, 1000))
        assert cost.original_count == sum(comb(1000, i) for i in range(301))
        assert 0 < cost.transformed_count <= cost.original_count

    def test_decimal_digits(self):
        cost = transformation_cost(WeaklyHardConstraint(2, 5))
        assert cost.decimal(digits=2) == Decimal("0.56")


class TestHardnessBruteforce:
    def test_transform_always_hard_enough(self):
        for k in range(2, 11):
            for m in range(1, k):
                assert hardness_bruteforce(WeaklyHardConstraint(m, k))

    def test_large_window(self):
        for m in (1, 300, 500, 999):
            assert hardness_bruteforce(WeaklyHardConstraint(m, 1000)), m
