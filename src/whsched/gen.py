"""Random task-set generation for schedulability experiments."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .model import Task, TaskSet, WeaklyHardConstraint


class Infeasible(ValueError):
    """The requested total utilization cannot be met."""


class Scenario(Enum):
    ALL_LOW = "low"    # every task low tolerance: m in [1, ceil(K/2) - 1]
    ALL_HIGH = "high"  # every task high tolerance: m in [ceil(K/2), K - 1]


# keeps parameter draws out of the utilization stream
_PARAM_SEED_OFFSET = 0x27220A95

# resampling budget of uunifast: about half a second at n = 20; the worst
# of 200 seeds at n = 10, total = 7 (0.7 n) needed 13,169 draws
UUNIFAST_MAX_ATTEMPTS = 50_000


@dataclass(frozen=True, slots=True)
class GenSpec:
    tasks: int
    utilization: float
    window: int
    scenario: Scenario
    period_range: tuple[int, int] = (10, 1000)
    periods: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tasks < 1:
            raise ValueError(f"tasks must be >= 1, got {self.tasks}")
        if self.utilization <= 0:
            raise ValueError(f"utilization must be > 0, got {self.utilization}")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        lo, hi = self.period_range
        if lo < 2 or hi < lo:
            raise ValueError(f"bad period range {self.period_range}")
        if self.periods is not None:
            object.__setattr__(self, "periods", tuple(self.periods))
            if not self.periods or any(p < 2 for p in self.periods):
                raise ValueError(f"bad period choices {self.periods}")


def uunifast(n: int, total: float, seed: int = 0) -> list[float]:
    """Draw n task utilizations summing to ``total``, each at most 1.

    Classic staircase sampling; whenever any share exceeds 1 the whole
    vector is discarded and resampled, which keeps the distribution
    uniform over the valid simplex.  Discards get frequent as total
    approaches n (valid vectors occupy a vanishing corner of the
    simplex), so keep total below roughly 0.75 * n for practical
    running times.  total == n short-circuits to the unique all-ones
    split (the discard loop cannot sample it).

    Raises:
        Infeasible: if total > n, or if UUNIFAST_MAX_ATTEMPTS draws in a
            row were discarded.
        ValueError: if n < 1 or total <= 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if total <= 0:
        raise ValueError(f"total utilization must be > 0, got {total}")
    if total > n:
        raise Infeasible(f"cannot pack utilization {total} into {n} tasks")
    if total == n:
        return [1.0] * n
    rng = random.Random(seed)
    for _ in range(UUNIFAST_MAX_ATTEMPTS):
        shares = []
        remaining = total
        for i in range(1, n):
            nxt = remaining * rng.random() ** (1.0 / (n - i))
            shares.append(remaining - nxt)
            remaining = nxt
        shares.append(remaining)
        if max(shares) <= 1.0:
            return shares
    raise Infeasible(
        f"no split of utilization {total} into {n} tasks with every share <= 1 "
        f"in {UUNIFAST_MAX_ATTEMPTS} draws"
    )


def _miss_bounds(spec: GenSpec) -> tuple[int, int]:
    half = -(-spec.window // 2)  # ceil(K / 2)
    if spec.scenario is Scenario.ALL_LOW:
        lo, hi = 1, half - 1
    else:
        lo, hi = half, spec.window - 1
    if lo > hi:
        raise ValueError(
            f"no {spec.scenario.value}-tolerance m exists for K={spec.window}"
        )
    return lo, hi


def make_taskset(spec: GenSpec) -> TaskSet:
    """Generate one task set from a GenSpec, bit-exact per seed.

    Utilizations come from uunifast(seed); periods are drawn log-uniform
    over the integer range (or uniformly from the explicit ``periods``
    grid when given); C = clamp(round(u * T), 1, T); deadlines are
    implicit (D = T); m is uniform over the scenario's tolerance band.
    """
    shares = uunifast(spec.tasks, spec.utilization, spec.seed)
    rng = random.Random(spec.seed + _PARAM_SEED_OFFSET)
    m_lo, m_hi = _miss_bounds(spec)
    lo, hi = spec.period_range
    tasks = []
    for i, u in enumerate(shares):
        if spec.periods is not None:
            period = rng.choice(spec.periods)
        else:
            period = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
            period = min(max(period, lo), hi)
        wcet = min(max(round(u * period), 1), period)
        m = rng.randint(m_lo, m_hi)
        tasks.append(Task(i, wcet, period, period, WeaklyHardConstraint(m, spec.window)))
    return TaskSet(tuple(tasks))
