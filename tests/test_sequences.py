import os
import re
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
    MKTransform,
    WeaklyHardConstraint,
    derive_wh,
    hardness_bruteforce,
    sequences,
    transformation_cost,
)
from reference_sequences import reference_count, reference_most_misses


def _windows_ok(bits, width, pred):
    return all(pred(bits[s:s + width]) for s in range(len(bits) - width + 1))


def _weakened(constraint):
    # the derived shape loosened by one, still with w = 1 or h = 1
    t = derive_wh(constraint)
    return MKTransform(1, t.h - 1) if t.w == 1 and t.h > 1 else MKTransform(t.w + 1, 1)


_MK_SMALL = [WeaklyHardConstraint(m, k) for k in range(2, 65) for m in range(1, k)]
_MK_1000 = [WeaklyHardConstraint(m, 1000) for m in (1, 300, 500, 667, 900, 999)]


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


def test_exports_resolve_sorted_and_unique():
    # a name left behind by a deletion would break ``from whsched import *``
    names = whsched.__all__
    assert [n for n in names if not hasattr(whsched, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


class TestCriticalSequence:
    def test_cyclic_repetition_meets_original_constraint(self):
        # repeating the worst tolerated pattern, h hits then w misses,
        # forever never violates the (m, K) bound it was derived from
        for k in range(2, 17):
            for m in range(1, k):
                t = derive_wh(WeaklyHardConstraint(m, k))
                pat = (1,) * t.h + (0,) * t.w
                reps = -(-3 * k // len(pat))
                long = (pat * reps)[: 3 * k]
                assert _windows_ok(long, k, lambda win: win.count(0) <= m), (m, k)


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

    @pytest.mark.parametrize("shape", [derive_wh, _weakened], ids=["derived", "weakened"])
    def test_matches_fold_referee(self, shape, monkeypatch):
        # the per-prefix DPs against the register-list fold, on every
        # pair up to K = 64 and on K = 1000 spots that reach both the
        # w = 1 and the h = 1 branch
        monkeypatch.setattr(sequences, "derive_wh", shape)
        verdicts = set()
        for c in _MK_SMALL + _MK_1000:
            t = shape(c)
            most = reference_most_misses(c.K, t)
            assert transformation_cost(c).transformed_count == reference_count(c.K, t), (c, t)
            assert sequences._most_misses(c.K, t) == most, (c, t)
            assert hardness_bruteforce(c) is (most <= c.m), (c, t)
            verdicts.add(most <= c.m)
        # the derived shapes are tight: loosened by one, every one of them
        # admits a sequence with more than m misses
        assert verdicts == {shape is derive_wh}

    def test_original_count_matches_binomial_sum(self):
        # the walk runs from the lower end when 2m < K, else from the upper
        for c in _MK_SMALL + _MK_1000:
            expect = sum(comb(c.K, i) for i in range(c.m + 1))
            assert transformation_cost(c).original_count == expect, c
        assert {2 * c.m < c.K for c in _MK_1000} == {True, False}

    def test_transformed_never_exceeds_original(self):
        for k in range(2, 13):
            for m in range(1, k):
                cost = transformation_cost(WeaklyHardConstraint(m, k))
                assert 0 < cost.transformed_count <= cost.original_count

    def test_large_window(self):
        cost = transformation_cost(WeaklyHardConstraint(300, 1000))
        assert cost.original_count == sum(comb(1000, i) for i in range(301))
        for m in range(1, 1000):
            cost = transformation_cost(WeaklyHardConstraint(m, 1000))
            assert 0 < cost.transformed_count <= cost.original_count, m

    def test_decimal_digits(self):
        cost = transformation_cost(WeaklyHardConstraint(2, 5))
        assert cost.decimal(digits=2) == Decimal("0.56")

    @pytest.mark.parametrize("digits", [None, True, 0, -1, 2.5])
    def test_decimal_digits_must_be_a_positive_int(self, digits):
        cost = transformation_cost(WeaklyHardConstraint(2, 5))
        message = f"digits must be an integer >= 1, got {digits!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cost.decimal(digits)


class TestHardnessBruteforce:
    def test_transform_always_hard_enough(self):
        for k in range(2, 11):
            for m in range(1, k):
                assert hardness_bruteforce(WeaklyHardConstraint(m, k))

    def test_large_window(self):
        for m in range(1, 1000):
            assert hardness_bruteforce(WeaklyHardConstraint(m, 1000)), m
