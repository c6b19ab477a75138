"""Layer benchmark for ``whsched.sequences``: microseconds per call.

    python3 tools/bench_sequences.py [--out BENCH_sequences.json]

Runs from the root of a source checkout and imports whsched from its
``src`` directory.  Times ``transformation_cost`` and
``hardness_bruteforce`` on every m at K = 20 (the range whbench
``counting`` stops at) and on a spread of m at K = 1000 up to the worst
case m = 999, then one pass over the whole K = 1000 row for each.  A
point's time is the median over ``REPEATS`` batches, each batch running
the call until at least ``BATCH_S`` seconds have passed.  Every result
is checked (hardness holds, 0 < transformed <= original) and folded into
a digest, so two trees can be compared for equal outputs.  Prints one
line per point and writes the numbers to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from whsched import WeaklyHardConstraint, hardness_bruteforce, transformation_cost  # noqa: E402

REPEATS = 5
BATCH_S = 0.05
K_SMALL = 20
K_LARGE = 1000
M_LARGE = (1, 10, 100, 300, 500, 667, 900, 990, 999)
FUNCTIONS = (transformation_cost, hardness_bruteforce)


def _check(fn, c, result, digest):
    if fn is hardness_bruteforce:
        if result is not True:
            raise SystemExit(f"hardness_bruteforce{(c.m, c.K)} is {result}")
        digest.update(f"{c.m},{c.K},hard;".encode())
    else:
        if not 0 < result.transformed_count <= result.original_count:
            raise SystemExit(f"transformation_cost{(c.m, c.K)} = {result}")
        digest.update(f"{c.m},{c.K},{result.transformed_count},{result.original_count};".encode())


def _us_per_call(fn, c) -> float:
    batches = []
    for _ in range(REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            fn(c)
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= BATCH_S:
                break
        batches.append(elapsed / calls * 1e6)
    return statistics.median(batches)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=Path("BENCH_sequences.json"))
    args = ap.parse_args(argv)

    digest = hashlib.sha256()
    points = {fn.__name__: {} for fn in FUNCTIONS}
    row_s = {}
    for k, ms in ((K_SMALL, range(1, K_SMALL)), (K_LARGE, M_LARGE)):
        for m in ms:
            c = WeaklyHardConstraint(m, k)
            for fn in FUNCTIONS:
                _check(fn, c, fn(c), digest)
                us = _us_per_call(fn, c)
                points[fn.__name__][f"{m},{k}"] = us
                print(f"{fn.__name__}({m}, {k}) us_per_call {us:.2f}")
    for fn in FUNCTIONS:
        row = [WeaklyHardConstraint(m, K_LARGE) for m in range(1, K_LARGE)]
        start = time.perf_counter()
        results = [fn(c) for c in row]
        row_s[fn.__name__] = time.perf_counter() - start
        for c, result in zip(row, results):
            _check(fn, c, result, digest)
        print(f"{fn.__name__} row K={K_LARGE} s {row_s[fn.__name__]:.3f}")

    summary = {}
    for name, by_point in points.items():
        small = [us for key, us in by_point.items() if key.endswith(f",{K_SMALL}")]
        summary[name] = {
            f"k{K_SMALL}_us_min": min(small),
            f"k{K_SMALL}_us_median": statistics.median(small),
            f"k{K_SMALL}_us_max": max(small),
            f"worst_us_{K_LARGE - 1}_{K_LARGE}": by_point[f"{K_LARGE - 1},{K_LARGE}"],
            f"row_k{K_LARGE}_s": row_s[name],
        }
        print(name, " ".join(f"{key} {value:.3f}" for key, value in summary[name].items()))
    print(f"digest {digest.hexdigest()[:16]}")
    report = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
        },
        "unit": "us per call (median of batches); row times in s",
        "digest": digest.hexdigest()[:16],
        "summary": summary,
        "points": points,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
