"""Exact counts over deadline outcome sequences.

A sequence records one bit per job: 1 for a met deadline, 0 for a miss.
Counts over all sequences of a given length are exact integers: the
(w, h) pattern's sequences by a DP over the pattern's run-length
automaton, O(1) integer operations per bit, and the (m, K) sequences by
one multiplicative walk over the binomial coefficients.

The pattern allows at most w misses in every (w + h)-window.  When
w = 1 or h = 1, the only shapes ``derive_wh`` gives, that holds exactly
when misses come in runs of at most w and runs are at least h hits
apart.  One of the automaton's two registers is then a single cell, and
the other a delay line, so each DP keeps one value per prefix length:

- h = 1: ``g[j]`` for the length-j prefixes that are empty or end in a
  hit.  Such a prefix is one of length j - 1 - r followed by a run of
  r <= w misses and a hit, so ``g[j]`` joins the w + 1 values before it.
- w = 1: ``a[j]`` for the length-j prefixes that are empty or at least
  h hits clear of their last miss.  Such a prefix either extends one of
  length j - 1 by a hit, or is one of length j - h - 1 followed by a
  miss and h hits.

A length-K sequence is then, for h = 1, a length-(K + 1) prefix less its
final hit; for w = 1, a length-K prefix, or a shorter one followed by a
miss and fewer than h hits.  Each DP is the whole automaton's with the
delay line unrolled, so counts and verdicts are those of the fold over
every register cell, which ``tests/reference_sequences.py`` keeps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from .model import MKTransform, WeaklyHardConstraint, derive_wh


def _count_admitted(k: int, t: MKTransform) -> int:
    """Number of length-k sequences the (w, h) pattern admits."""
    if t.h == 1:
        # window: the sum of g[j - 1 - w .. j - 1]; the sequences are the
        # length-(k + 1) prefixes that end in a hit, less that hit
        w = t.w
        g = [1]
        window = 1
        for j in range(1, k + 2):
            g.append(window)
            window += window - (g[j - w - 1] if j > w else 0)
        return g[k + 1]
    h = t.h
    a = [1]
    for j in range(1, k + 1):
        a.append(a[j - 1] + (a[j - h - 1] if j > h else 0))
    # a sequence is a[k] itself, or a[j] with a miss and k - j - 1 < h hits
    return a[k] + sum(a[max(k - h, 0):k])


def _most_misses(k: int, t: MKTransform) -> int:
    """Most misses in any length-k sequence the (w, h) pattern admits."""
    if t.h == 1:
        # g[j] = j - 1 + max(g[i] - i for i in [j - 1 - w, j - 1]): a
        # monotone deque holds the window's (i, g[i] - i) in falling order
        w = t.w
        best = deque([(0, 0)])
        g = 0
        for j in range(1, k + 2):
            if best[0][0] < j - 1 - w:  # the window slides by one
                best.popleft()
            g = j - 1 + best[0][1]
            while best and best[-1][1] <= g - j:
                best.pop()
            best.append((j, g - j))
        return g
    h = t.h
    a = [0]
    for j in range(1, k + 1):
        a.append(max(a[j - 1], a[j - h - 1] + 1) if j > h else a[j - 1])
    # a never falls, so of the prefixes before a trailing miss the last
    # one holds the most
    return max(a[k], a[k - 1] + 1)


def _lower_tail(k: int, m: int) -> int:
    """sum(C(k, i) for i <= m), by the walk C(k, i) = C(k, i - 1) (k - i + 1) / i."""
    term = total = 1
    for i in range(1, m + 1):
        term = term * (k - i + 1) // i
        total += term
    return total


@dataclass(frozen=True, slots=True)
class TransformationCost:
    """Sequence counts under the transformed and the original constraint."""

    transformed_count: int
    original_count: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.transformed_count, self.original_count)

    def decimal(self, digits: int = 4) -> Decimal:
        """Ratio rounded half to even at ``digits`` significant digits.

        Raises:
            ValueError: unless ``digits`` is an int >= 1 (bool excluded).
        """
        if type(digits) is not int or digits < 1:
            raise ValueError(f"digits must be an integer >= 1, got {digits!r}")
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
        return ctx.divide(Decimal(self.transformed_count), Decimal(self.original_count))


def transformation_cost(constraint: WeaklyHardConstraint) -> TransformationCost:
    """Count how much of the (m, K) sequence space the (w, h) pattern keeps.

    Counts, exactly, the length-K outcome sequences that meet
    at-most-w-misses in every (w + h)-window (the pattern, applied as a
    sliding constraint), by a DP over the pattern's run-length automaton
    in O(K) integer additions, and those with at most m misses in all,
    sum(C(K, i) for i <= m), by a multiplicative walk from the nearer
    end: directly when 2m < K, else as 2^K less the upper tail.  The
    quotient is the fraction of tolerated behaviors that survive the
    transformation.

    Raises:
        HardTaskHasNoTransform: for hard constraints.
    """
    t = derive_wh(constraint)
    k, m = constraint.K, constraint.m
    transformed = _count_admitted(k, t)
    if 2 * m < k:
        original = _lower_tail(k, m)
    else:
        original = (1 << k) - _lower_tail(k, k - m - 1)
    return TransformationCost(transformed, original)


def hardness_bruteforce(constraint: WeaklyHardConstraint) -> bool:
    """Verify exhaustively that the (w, h) pattern implies (m, K).

    Covers every length-K sequence: any sequence meeting
    at-most-w-misses in every (w + h)-window must also hold at most m
    misses in all.  A DP over the pattern's run-length automaton carries
    the most misses of any admitted prefix, in O(K) steps; returns True
    when no admitted length-K sequence holds more than m.

    Raises:
        HardTaskHasNoTransform: for hard constraints.
    """
    t = derive_wh(constraint)
    return _most_misses(constraint.K, t) <= constraint.m
