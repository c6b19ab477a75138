"""Task model for weakly-hard real-time scheduling.

A weakly-hard constraint (m, K) allows at most m deadline misses in any
window of K consecutive jobs of a task.  A hard task is encoded exactly
as (0, 1).  Constraints with m >= 1 split into two tolerance classes by
exact rational comparison of m/K against 1/2, and each weakly-hard
constraint derives an execution pattern (w, h): h jobs that must hit,
followed by up to w jobs that may miss.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class InvalidConstraint(ValueError):
    """(m, K) or hit-form parameters out of range."""


class InvalidTask(ValueError):
    """Task attributes violate 1 <= C <= D <= T, or ids collide."""


class HardTaskHasNoTransform(ValueError):
    """A (w, h) pattern was requested for a hard task."""


class ToleranceClass(Enum):
    HARD = "hard"
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True, slots=True, init=False)
class WeaklyHardConstraint:
    """At most ``m`` deadline misses in any ``K`` consecutive jobs."""

    m: int
    K: int

    def __init__(self, m: int, K: int):
        if K < 1:
            raise InvalidConstraint(f"K must be >= 1, got K={K}")
        if not 0 <= m < K:
            raise InvalidConstraint(f"need 0 <= m < K, got m={m}, K={K}")
        if m == 0 and K != 1:
            raise InvalidConstraint(f"hard tasks are encoded as (0, 1), got (0, {K})")
        _set_m(self, m)
        _set_K(self, K)

    @property
    def miss_ratio(self) -> Fraction:
        return Fraction(self.m, self.K)


# The value types set their slots through the slot descriptors: the
# generated frozen __init__ and __post_init__ go through
# object.__setattr__ per field, at about twice the cost, and the (m, K)
# grid builds these by the hundred thousand.  Equality, hashing, repr,
# frozen-ness and pickling are still the dataclass's own.
_set_m = WeaklyHardConstraint.__dict__["m"].__set__
_set_K = WeaklyHardConstraint.__dict__["K"].__set__

HARD_CONSTRAINT = WeaklyHardConstraint(0, 1)


def classify(constraint: WeaklyHardConstraint) -> ToleranceClass:
    """Sort a constraint into hard, low tolerance, or high tolerance.

    Low tolerance allows misses for less than half of each window
    (m/K < 1/2), high tolerance for at least half (m/K >= 1/2).  The
    boundary is decided in integer arithmetic (2m vs K), never floats.
    """
    m = constraint.m
    if m == 0:
        return _HARD
    if 2 * m < constraint.K:
        return _LOW
    return _HIGH


# module constants: an Enum member read through its class costs about
# ten times a global read
_HARD, _LOW, _HIGH = ToleranceClass.HARD, ToleranceClass.LOW, ToleranceClass.HIGH


@dataclass(frozen=True, slots=True, init=False)
class MKTransform:
    """Execution pattern: ``h`` hits, then up to ``w`` tolerated misses."""

    w: int
    h: int

    def __init__(self, w: int, h: int):
        if w < 1 or h < 1:
            raise InvalidConstraint(f"need w >= 1 and h >= 1, got w={w}, h={h}")
        _set_w(self, w)
        _set_h(self, h)

    @property
    def length(self) -> int:
        return self.w + self.h


_set_w = MKTransform.__dict__["w"].__set__
_set_h = MKTransform.__dict__["h"].__set__


def derive_wh(constraint: WeaklyHardConstraint) -> MKTransform:
    """Derive the (w, h) pattern for a weakly-hard constraint.

    w = max(floor(m / (K - m)), 1) and h = ceil((K - m) / m).  Low
    tolerance always yields w = 1 and high tolerance always yields h = 1.

    Raises:
        HardTaskHasNoTransform: if the constraint is hard (m = 0).
    """
    m = constraint.m
    if m == 0:
        raise HardTaskHasNoTransform("(0, 1) admits no miss pattern")
    hits = constraint.K - m
    w = m // hits
    if w < 1:
        w = 1
    return _transform(w, -(-hits // m))  # h = ceil(hits / m)


@functools.lru_cache(maxsize=4096)
def _transform(w: int, h: int) -> MKTransform:
    # few distinct (w, h) occur, and a cache hit costs about half a new
    # frozen object; transforms are immutable, so sharing one is safe
    return MKTransform(w, h)


def harder_than(a: int, b: int, p: int, q: int) -> bool:
    """Decide whether hit constraint (a, b) implies hit constraint (p, q).

    Hit form: a sequence meets (a, b) when every b consecutive jobs
    contain at least a hits.  Returns True when any sequence meeting
    (a, b) also meets (p, q), i.e. (a, b) is the harder requirement.

    Raises:
        InvalidConstraint: unless 0 <= a <= b, 0 <= p <= q, b >= 1, q >= 1.
    """
    if b < 1 or q < 1 or not 0 <= a <= b or not 0 <= p <= q:
        raise InvalidConstraint(f"bad hit constraints ({a}, {b}) vs ({p}, {q})")
    return p <= (q // b) * a or p <= q + (-(-q // b)) * (a - b)


@dataclass(frozen=True, slots=True)
class Task:
    """Sporadic task: WCET, relative deadline, minimum inter-arrival time."""

    id: int
    wcet: int
    deadline: int
    period: int
    constraint: WeaklyHardConstraint

    def __post_init__(self):
        if self.id < 0:
            raise InvalidTask(f"task id must be >= 0, got {self.id}")
        if not 1 <= self.wcet <= self.deadline <= self.period:
            raise InvalidTask(
                f"task {self.id}: need 1 <= C <= D <= T, got "
                f"C={self.wcet}, D={self.deadline}, T={self.period}"
            )

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.wcet, self.period)


def rank_key(task: Task) -> tuple[int, int, int]:
    """Deterministic analysis order: deadline, then allowed misses, then id."""
    return (task.deadline, task.constraint.m, task.id)


@dataclass(frozen=True, slots=True)
class TaskSet:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen = set()
        for task in self.tasks:
            if task.id in seen:
                raise InvalidTask(f"duplicate task id {task.id}")
            seen.add(task.id)

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self):
        return len(self.tasks)

    def task(self, task_id: int) -> Task:
        for task in self.tasks:
            if task.id == task_id:
                return task
        raise KeyError(task_id)

    @property
    def utilization(self) -> Fraction:
        return sum((t.utilization for t in self.tasks), Fraction(0))

    @property
    def hyperperiod(self) -> int:
        if not self.tasks:
            return 1
        return math.lcm(*(t.period for t in self.tasks))
