"""whsched benchmark: one workload, closed loop, one process, one thread.

    python3 whbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports whsched from its
``src`` directory.  Passes of the workload run back to back until
``--seconds`` have passed (at least one pass runs).  The report goes to
standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
of a traced run, which then repeats the same passes untraced to measure
what the tracing cost.  The full result, with the output digest and
sample counts, is also written to ``whbench/out``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from tracing import Recorder, quantile, yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
# yardstick runs per second of the 2-core host the baseline was taken on;
# rates are reported as if the host had run at this speed throughout
REFERENCE_SPEED = 170.0
LAYERS = ("cli", "rta", "gen", "priority", "sim", "sequences", "model", "harness")

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("inner_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer_spec():
    out = [
        ("cli.run_experiment.calls", "count", "higher"),
        ("cli.run_experiment.busy_s", "s", "lower"),
        ("cli.run_experiment.self_s", "s", "lower"),
    ]
    for pol in ("rm", "edf", "wh"):
        key = f"rta.analyze.{pol}"
        out += [
            (f"{key}.calls", "count", "higher"),
            (f"{key}.busy_s", "s", "lower"),
            (f"{key}.ms_p50", "ms", "lower"),
            (f"{key}.ms_p99", "ms", "lower"),
            (f"{key}.accepted", "count", "higher"),
            (f"{key}.refuted", "count", "lower"),
        ]
    out += [
        ("gen.make_taskset.calls", "count", "higher"),
        ("gen.make_taskset.busy_s", "s", "lower"),
        ("gen.make_taskset.us_p50", "us", "lower"),
        ("priority.assign_priorities.calls", "count", "higher"),
        ("priority.assign_priorities.busy_s", "s", "lower"),
    ]
    for sched in ("job-class", "rm", "edf"):
        key = f"sim.simulate.{sched}"
        out += [
            (f"{key}.calls", "count", "higher"),
            (f"{key}.busy_s", "s", "lower"),
            (f"{key}.ms_p50", "ms", "lower"),
            (f"{key}.ms_p99", "ms", "lower"),
            (f"{key}.jobs", "count", "higher"),
            (f"{key}.misses", "count", "lower"),
        ]
    out += [
        ("sim.check_trace.calls", "count", "higher"),
        ("sim.check_trace.busy_s", "s", "lower"),
        ("sim.check_trace.violations", "count", "lower"),
    ]
    for fn in ("transformation_cost", "hardness_bruteforce"):
        key = f"sequences.{fn}"
        out += [
            (f"{key}.calls", "count", "higher"),
            (f"{key}.busy_s", "s", "lower"),
            (f"{key}.ms_p50", "ms", "lower"),
        ]
    out += [
        ("model.grid.constraints", "count", "higher"),
        ("model.grid.busy_s", "s", "lower"),
    ]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_spec()


def _import_workloads():
    """Import the workloads, and with them whsched from this checkout's src."""
    src = ROOT / "src"
    if not (src / "whsched" / "__init__.py").is_file():
        sys.exit(f"whbench: no whsched sources under {src}")
    sys.path.insert(0, str(src))
    import whsched
    import workloads

    if Path(whsched.__file__).resolve().parent != src / "whsched":
        sys.exit(f"whbench: imported whsched from {whsched.__file__}, not from {src}")
    return workloads


def measure_setup(workload: str, seed: int, size: str) -> list[tuple[float, float]]:
    """Seconds from process start until the workload's inputs are built.

    Each sample is a fresh interpreter that imports whsched, builds the
    workload's fixed inputs and reports ready.  It comes with the
    yardstick speed measured just before it.
    """
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    for _ in range(SETUP_SAMPLES):
        speed = statistics.fmean(1.0 / yardstick() for _ in range(3))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                samples.append((time.perf_counter() - t0, speed))
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"whbench: set-up probe failed (exit {proc.returncode})")
    return samples


class Pass(NamedTuple):
    wall: float
    work: int
    work_s: float
    inner: int
    inner_s: float
    speed: float  # mean yardstick speed during the pass


def run_passes(workload, seconds: float, limit: int | None = None):
    """Run passes until ``seconds`` have passed, or exactly ``limit`` passes.

    Returns one ``Pass`` per pass and the duration of the whole loop, all
    on the recorder's clock.
    """
    passes = []
    rec = workload.rec

    def loop():
        start = time.perf_counter()
        p = 0
        while p < limit if limit is not None else p == 0 or time.perf_counter() - start < seconds:
            t0 = rec.clock()
            work, work_s, inner, inner_s = workload.run_pass(p)
            t1 = rec.clock()
            passes.append(Pass(t1 - t0, work, t1 - t0 if work_s is None else work_s,
                               inner, inner_s, rec.speed_between(t0, t1)))
            p += 1

    with rec.sampling():
        t0 = rec.clock()
        if rec.traced:
            rec.call("harness", loop)
        else:
            loop()
        return passes, rec.clock() - t0


def _rates(passes, inner: bool, scaled: bool) -> list[float]:
    """Work or inner units per second of each pass.

    Scaled, each pass's rate reads as if the host had run at the
    reference speed during that pass.
    """
    out = []
    for p in passes:
        count, secs = (p.inner, p.inner_s) if inner else (p.work, p.work_s)
        if secs > 0:
            out.append(count / secs * (REFERENCE_SPEED / p.speed if scaled else 1.0))
    return out


def _rate(passes, inner: bool, scaled: bool = True) -> float:
    """Median of the per-pass rates over the measured passes.

    Pass 0 warms up (and feeds the digest); it counts only when it is the
    only pass that fit into the measured time.
    """
    rates = _rates(passes[1:] or passes, inner, scaled)
    return statistics.median(rates) if rates else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup, passes) -> dict:
    """The end-to-end metrics, scaled to the reference host speed."""
    return {
        "setup_s": _metric(statistics.median(t * s / REFERENCE_SPEED for t, s in setup), "s"),
        "work_per_s": _metric(_rate(passes, inner=False), "1/s"),
        "inner_per_s": _metric(_rate(passes, inner=True), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec, wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of a traced run.

    ``wall`` is the traced loop's duration on ``rec``'s clock and
    ``untraced_wall`` that of the same passes untraced, already scaled.
    Times are scaled to the reference host speed like the end-to-end
    rates, so the tracing overhead is not just the host's drift between
    the two loops.
    """
    d, c = rec.durations, rec.counts
    selfs = rec.self_times()
    to_reference = rec.speed / REFERENCE_SPEED
    per_second = {"s": to_reference, "ms": 1e3 * to_reference, "us": 1e6 * to_reference}
    out = {}
    for name, unit, _ in PER_LAYER:
        key, _, stat = name.rpartition(".")
        if name.startswith("layer."):
            value = selfs.get(key.split(".")[1], 0.0)
        elif name == "trace.wall_s":
            value = wall
        elif name in ("trace.untraced_wall_s", "trace.overhead_s"):
            continue
        elif stat == "calls":
            value = len(d.get(key, ()))
        elif stat == "busy_s":
            value = rec.busy(key)
        elif stat == "self_s":
            value = rec.span_self(key)
        elif stat.endswith(("_p50", "_p99")):
            value = quantile(d.get(key, ()), int(stat[-2:]) / 100)
        else:
            value = c[name]
        out[name] = _metric(value * per_second.get(unit, 1), unit)
    out["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    out["trace.overhead_s"] = _metric(out["trace.wall_s"]["value"] - untraced_wall, "s")
    return {name: out[name] for name, _, _ in PER_LAYER}


def run_benchmark(workload_name: str, seed: int, seconds: float, traced: bool,
                  size: str, out_dir: Path) -> dict:
    workloads = _import_workloads()
    out_dir.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[workload_name]
    setup = measure_setup(workload_name, seed, size)
    workload = cls(seed, size, Recorder(traced))
    passes, wall = run_passes(workload, seconds)
    workload.finish()

    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "size": size, "passes": len(passes), "wall_s": wall, "digest": workload.digest,
        "setup_samples_s": setup, "host_speed": workload.rec.speed, "failures": workload.failures,
        "counts": dict(workload.rec.counts),
    }
    if traced:
        again = cls(seed, size, Recorder(False))
        _, untraced_wall = run_passes(again, seconds, limit=len(passes))
        metrics = per_layer(workload.rec, wall, untraced_wall * again.rec.speed / REFERENCE_SPEED)
        workload.rec.write_spans(out_dir / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(setup, passes)
        result["pass_rates_unscaled"] = {
            "work": _rates(passes, inner=False, scaled=False),
            "inner": _rates(passes, inner=True, scaled=False),
        }
        result["pass_speeds"] = [p.speed for p in passes]
        # the two rates under their own names: (value, unit, unscaled value)
        result["named"] = {
            name: (metrics[key]["value"], unit, _rate(passes, inner=key == "inner_per_s", scaled=False))
            for key, (name, unit) in (("work_per_s", workload.work_metric),
                                      ("inner_per_s", workload.inner_metric))
        }
    result["summary"] = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    path = out_dir / f"result-{workload_name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> str:
    """Human-readable lines; the JSON summary is printed after them."""
    s = result["summary"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} size {result['size']} "
        f"trace {result['trace']}: {result['passes']} passes in {result['wall_s']:.3f} s",
        f"digest {result['digest']}",
        f"failed_ratio = {s['failed'] / s['attempted']:.6g} ({s['failed']} failed of {s['attempted']} attempted)",
    ]
    counts = result["counts"]
    for pol in ("rm", "edf", "wh"):
        accepted = counts.get(f"rta.analyze.{pol}.accepted", 0)
        if accepted:
            refuted = counts.get(f"rta.analyze.{pol}.refuted", 0)
            lines.append(f"refuted {pol} = {refuted} of {accepted} accepted verdicts")
    lines += [f"failure: {f}" for f in result["failures"]]
    lines.append(f"host speed = {result['host_speed']:.6g} yardstick runs/s "
                 f"(reference {REFERENCE_SPEED:g}; rates below are scaled to it)")
    for name, (value, unit, raw) in result.get("named", {}).items():
        lines.append(f"{name} = {value:.6g} {unit} "
                     f"(median of {max(result['passes'] - 1, 1)} passes; unscaled {raw:.6g})")
    n_setup = len(result["setup_samples_s"])
    for name, m in s["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f" (median of {n_setup} processes)"
        elif name.endswith(("_p50", "_p99")):
            note = f" (n={s['metrics'][name.rpartition('.')[0] + '.calls']['value']})"
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    if result["trace"]:
        m = {name: v["value"] for name, v in s["metrics"].items()}
        accounted = sum(m[f"layer.{layer}.self_s"] for layer in LAYERS)
        untraced, overhead = m["trace.untraced_wall_s"], m["trace.overhead_s"]
        lines.append(
            f"layer self times + harness = {accounted:.6g} s = untraced wall {untraced:.6g} s "
            f"+ tracing overhead {overhead:.6g} s + {accounted - untraced - overhead:.3g} s unaccounted"
        )
        lines.append("times are scaled to the reference host speed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "crosscheck", "horizon", "counting"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy size, for the tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        workloads = _import_workloads()
        workloads.WORKLOADS[args.workload](args.seed, args.size, Recorder(False))
        print("ready", flush=True)
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size, OUT)
    print(report(result))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
