"""Exact counts over deadline outcome sequences.

A sequence records one bit per job: 1 for a met deadline, 0 for a miss.
Counts over all sequences of a given length are exact integers: the
(w, h) pattern's sequences by a run-length automaton, the (m, K)
sequences in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import comb, inf

from .model import MKTransform, WeaklyHardConstraint, derive_wh


def _fold_admitted(k: int, t: MKTransform, start, unreached, join, miss):
    """Fold a value over every length-k sequence the (w, h) pattern admits.

    The pattern allows at most w misses in every (w + h)-window.  When
    w = 1 or h = 1, the only shapes ``derive_wh`` gives, that holds
    exactly when misses come in runs of at most w and runs are at least
    h hits apart.  So the state is one run counter: the hits since the
    last run (capped at h), or the length of the current run.

    Each state holds the value of the sequences that end in it:
    ``start`` for the empty sequence, ``unreached`` while none does.
    ``miss`` carries a value across a miss, ``join`` merges the values
    that meet in one state.  Returns the join over all states.
    """
    # gaps[g - 1]: g hits since the last run, the last entry meaning h or
    # more; runs[r - 1]: r misses into the current run.  The empty
    # sequence is h hits clear of any run.
    gaps = [unreached] * (t.h - 1) + [start]
    runs = [unreached] * t.w
    for _ in range(k):
        # a hit ends the run or widens the gap; a miss opens a run once
        # the gap is h wide, or lengthens a run shorter than w
        hit = [join(runs)] + gaps[:-1]
        hit[-1] = join((hit[-1], gaps[-1]))
        runs = [miss(v) for v in [gaps[-1]] + runs[:-1]]
        gaps = hit
    return join(gaps + runs)


@dataclass(frozen=True, slots=True)
class TransformationCost:
    """Sequence counts under the transformed and the original constraint."""

    transformed_count: int
    original_count: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.transformed_count, self.original_count)

    def decimal(self, digits: int = 4) -> Decimal:
        """Ratio rounded half to even at ``digits`` significant digits."""
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
        return ctx.divide(Decimal(self.transformed_count), Decimal(self.original_count))


def transformation_cost(constraint: WeaklyHardConstraint) -> TransformationCost:
    """Count how much of the (m, K) sequence space the (w, h) pattern keeps.

    Counts, exactly, the length-K outcome sequences that meet
    at-most-w-misses in every (w + h)-window (the pattern, applied as a
    sliding constraint), by summing the ways into each state of the
    pattern's run-length automaton, and those with at most m misses in
    all, sum(C(K, i) for i <= m).  The quotient is the fraction of
    tolerated behaviors that survive the transformation.

    Raises:
        HardTaskHasNoTransform: for hard constraints.
    """
    t = derive_wh(constraint)
    transformed = _fold_admitted(constraint.K, t, 1, 0, sum, lambda n: n)
    original = sum(comb(constraint.K, i) for i in range(constraint.m + 1))
    return TransformationCost(transformed, original)


def hardness_bruteforce(constraint: WeaklyHardConstraint) -> bool:
    """Verify exhaustively that the (w, h) pattern implies (m, K).

    Covers every length-K sequence: any sequence meeting
    at-most-w-misses in every (w + h)-window must also hold at most m
    misses in all.  The pattern's run-length automaton carries the most
    misses of any sequence into each state; returns True when no state
    holds more than m.

    Raises:
        HardTaskHasNoTransform: for hard constraints.
    """
    t = derive_wh(constraint)
    return _fold_admitted(constraint.K, t, 0, -inf, max, lambda n: n + 1) <= constraint.m
