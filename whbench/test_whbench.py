"""Tests of the benchmark itself, at toy size.

    PYTHONPATH=src python -m pytest -q whbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracing import Recorder

WORKLOADS = ("sweep", "crosscheck", "horizon", "counting")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def tiny(workload, tmp_path, trace=False, seed=3):
    return run.run_benchmark(workload, seed, 0, trace, "tiny", tmp_path)


def test_benchmark_json_matches_the_metrics_the_code_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(int(trace)), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    text = "\n".join(lines[:-1])
    for m in expected:
        assert f"{m['name']} = " in text and f" {m['unit']}" in text
    assert "failed_ratio = 0 (0 failed of " in text
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.jsonl").stat().st_size > 0
    else:
        for m in expected:
            assert summary["metrics"][m["name"]]["value"] > 0
        assert "(median of " in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat_for_a_seed(workload, tmp_path):
    first = tiny(workload, tmp_path)
    again = tiny(workload, tmp_path)
    other = tiny(workload, tmp_path, seed=4)
    assert first["digest"] == again["digest"]
    # counting covers every (m, K) in its range whatever the seed
    assert (first["digest"] == other["digest"]) == (workload == "counting")


def test_a_corrupted_pinned_value_counts_as_failure(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.PINNED_COSTS, (2, 5), (9, 17))
    result = tiny("counting", tmp_path)
    assert result["summary"]["failed"] == 1
    assert result["summary"]["correct"] is False
    assert "transformation_cost(2, 5) = (9, 16), pinned (9, 17)" in result["failures"]


def test_crosscheck_reports_the_reproducer_refutation(tmp_path):
    counts = tiny("crosscheck", tmp_path)["counts"]
    assert counts["rta.analyze.wh.refuted"] >= 1


def test_self_times_add_up_to_the_root_span():
    rec = Recorder(traced=True)

    def leaf():
        time.sleep(0.002)

    def middle():
        rec.call("rta.analyze.wh", leaf)
        time.sleep(0.002)

    rec.call("harness", lambda: [rec.call("cli.run_experiment", middle) for _ in range(2)])
    selfs = rec.self_times()
    assert set(selfs) == {"harness", "cli", "rta"}
    assert sum(selfs.values()) == pytest.approx(rec.busy("harness"))
    assert selfs["rta"] == pytest.approx(rec.busy("rta.analyze.wh"))
    assert rec.span_self("cli.run_experiment") == pytest.approx(selfs["cli"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "whbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "whbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
