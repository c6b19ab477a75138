"""Call timing and span recording around the public calls the benchmark makes.

Every call into whsched goes through ``Recorder.call``.  Untraced, that
is one pair of clock reads and a list append per call, which the
end-to-end numbers need anyway (per-call times, time spent in the
simulator).  Traced, each call also becomes a span with a parent, so
the self time of each layer can be taken apart after the run.  Spans
stay in memory until the run ends.

The speed of a shared host drifts by tens of percent within minutes.
While a run measures, a timer interrupts it every ``SAMPLE_EVERY``
seconds to time a fixed piece of pure-Python work, the yardstick.  The
mean yardstick speed over an interval tells how fast the host was then;
the benchmark scales its rates by it.  The recorder's clock stops while the
yardstick runs, so no measured duration includes it.
"""

from __future__ import annotations

import json
import signal
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SAMPLE_EVERY = 0.2
YARDSTICK_LOOPS = 40000


def yardstick() -> float:
    """Seconds taken by a fixed loop of integer, modulo and dict work."""
    t0 = perf_counter()
    acc = 0
    slots = {}
    for i in range(YARDSTICK_LOOPS):
        acc = (acc * 31 + i) % 1000003
        slots[i & 255] = acc
    return perf_counter() - t0


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self.last = 0.0
        # [name, start, end, parent index]; parent -1 is the top level
        self.spans: list[list] = []
        self._stack = [-1]
        # (clock time, yardstick runs per second)
        self.speed_samples: list[tuple[float, float]] = []
        self._paused = 0.0

    def clock(self) -> float:
        """Seconds, not counting the time spent in the yardstick."""
        return perf_counter() - self._paused

    def _sample(self, signum=None, frame=None) -> None:
        at = self.clock()
        dt = yardstick()
        self._paused += dt
        self.speed_samples.append((at, 1.0 / dt))

    @contextmanager
    def sampling(self):
        """Sample the host speed with the yardstick while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    @property
    def speed(self) -> float:
        """Mean yardstick speed over the sampled time, in runs per second."""
        return statistics.fmean(v for _, v in self.speed_samples)

    def speed_between(self, start: float, end: float) -> float:
        """Mean yardstick speed sampled between two clock times, else overall."""
        inside = [v for t, v in self.speed_samples if start <= t <= end]
        return statistics.fmean(inside) if inside else self.speed

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, timing it under ``name``."""
        if not self.traced:
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.last = self.clock() - t0
                self.durations[name].append(self.last)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(idx)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self._stack.pop()
            span[1], span[2] = t0, t1
            self.last = t1 - t0
            self.durations[name].append(self.last)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def busy(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def _span_self(self) -> list[tuple[str, float]]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(name, end - start - c) for (name, start, end, _), c in zip(self.spans, covered)]

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans.

        The layer is the first dotted part of the span name.
        """
        out: dict[str, float] = defaultdict(float)
        for name, own in self._span_self():
            out[name.split(".", 1)[0]] += own
        return dict(out)

    def span_self(self, name: str) -> float:
        return sum(own for n, own in self._span_self() if n == name)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of ``values``, inclusive method; 0.0 if empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]
