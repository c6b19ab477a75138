"""The register-list fold over the (w, h) automaton, kept for tests only.

``whsched.sequences`` counts the pattern's sequences with one value per
prefix length, using that one of the automaton's two registers is a
single cell when w = 1 or h = 1.  ``fold_admitted`` is the fold it
replaced: it keeps both registers as lists of cells and rebuilds them at
every bit, O(w + h) work per bit.  It shares no recurrence with the
package, so ``tests/test_sequences.py`` can check that both give equal
counts, most-misses values and hardness verdicts.
"""

from __future__ import annotations

from math import inf

from whsched import MKTransform


def fold_admitted(k: int, t: MKTransform, start, unreached, join, miss):
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


def reference_count(k: int, t: MKTransform) -> int:
    """Number of length-k sequences the pattern admits."""
    return fold_admitted(k, t, 1, 0, sum, lambda n: n)


def reference_most_misses(k: int, t: MKTransform) -> int:
    """Most misses in any length-k sequence the pattern admits."""
    return fold_admitted(k, t, 0, -inf, max, lambda n: n + 1)
