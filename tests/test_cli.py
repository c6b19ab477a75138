import csv
import json
import subprocess
import sys

import pytest

from whsched import cli
from whsched import (
    TaskSet, Task, WeaklyHardConstraint, load_taskset, main, run_experiment, save_taskset,
    transformation_cost,
)
from whsched.gen import Scenario


def write_taskset(path, tasks):
    doc = {"version": 1, "tasks": tasks}
    path.write_text(json.dumps(doc))
    return str(path)


def trio(path):
    return write_taskset(path, [
        {"id": 1, "C": 2, "D": 6, "T": 6, "m": 2, "K": 5},
        {"id": 2, "C": 3, "D": 7, "T": 7, "m": 1, "K": 3},
        {"id": 3, "C": 2, "D": 8, "T": 8, "m": 2, "K": 3},
    ])


class TestTasksetFiles:
    def test_round_trip(self, tmp_path):
        ts = TaskSet((
            Task(0, 2, 6, 6, WeaklyHardConstraint(2, 5)),
            Task(1, 3, 7, 7, WeaklyHardConstraint(0, 1)),
        ))
        path = tmp_path / "ts.json"
        save_taskset(ts, str(path))
        assert load_taskset(str(path)) == ts

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n "tasks": [}')
        with pytest.raises(ValueError, match="line 2"):
            load_taskset(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"version": 2, "tasks": []}')
        with pytest.raises(ValueError, match="version"):
            load_taskset(str(path))

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_must_be_an_integer(self, tmp_path, version):
        path = tmp_path / "v.json"
        path.write_text(
            f'{{"version": {version}, "tasks": [{{"id": 0, "C": 1, "D": 5, "T": 5, "m": 0, "K": 1}}]}}'
        )
        with pytest.raises(ValueError, match="version: expected 1"):
            load_taskset(str(path))

    def test_missing_field_is_named(self, tmp_path):
        path = write_taskset(tmp_path / "m.json", [{"id": 0, "C": 1, "D": 5, "T": 5, "m": 1}])
        with pytest.raises(ValueError, match=r"tasks\[0\].K"):
            load_taskset(path)

    def test_bool_is_not_an_integer(self, tmp_path):
        path = write_taskset(
            tmp_path / "b.json",
            [{"id": 0, "C": True, "D": 5, "T": 5, "m": 1, "K": 3}],
        )
        with pytest.raises(ValueError, match=r"tasks\[0\].C"):
            load_taskset(path)

    def test_bad_timing_is_located(self, tmp_path):
        path = write_taskset(
            tmp_path / "t.json",
            [{"id": 0, "C": 9, "D": 5, "T": 5, "m": 1, "K": 3}],
        )
        with pytest.raises(ValueError, match=r"tasks\[0\]"):
            load_taskset(path)


class TestCount:
    def test_spec_example(self, capsys):
        assert main(["count", "--m", "2", "--k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "9/16 0.5625"

    def test_large_window(self, capsys):
        assert main(["count", "--m", "300", "--k", "1000"]) == 0
        cost = transformation_cost(WeaklyHardConstraint(300, 1000))
        expect = f"{cost.transformed_count}/{cost.original_count} {cost.decimal()}"
        assert capsys.readouterr().out.strip() == expect

    def test_hard_constraint_is_an_input_error(self, capsys):
        assert main(["count", "--m", "0", "--k", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_pair(self, capsys):
        assert main(["count", "--m", "5", "--k", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "whsched", "count", "--m", "2", "--k", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "9/16 0.5625"


class TestPriorities:
    def test_table_text(self, tmp_path, capsys):
        assert main(["priorities", "--in", trio(tmp_path / "ts.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "task  q=0  q=1  q=2  q=3",
            "1     9    6    3    1",
            "2     8    5    2",
            "3     7    4",
        ]

    def test_missing_file(self, capsys):
        assert main(["priorities", "--in", "/nonexistent/ts.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_schedulable_csv(self, tmp_path, capsys):
        code = main(["analyze", "--in", trio(tmp_path / "ts.json"),
                     "--cores", "2", "--policy", "wh"])
        assert code == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(out.splitlines()[:4]))
        assert rows[0] == ["task", "rub", "slack", "schedulable"]
        assert rows[1:] == [
            ["1", "2", "4", "true"],
            ["2", "3", "4", "true"],
            ["3", "2", "6", "true"],
        ]
        assert "# set_schedulable=true" in out

    def test_unschedulable_exit_code(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "heavy.json", [
            {"id": 0, "C": 5, "D": 6, "T": 6, "m": 0, "K": 1},
            {"id": 1, "C": 5, "D": 6, "T": 6, "m": 0, "K": 1},
        ])
        assert main(["analyze", "--in", path, "--cores", "1", "--policy", "rm"]) == 1
        out = capsys.readouterr().out
        assert "# set_schedulable=false" in out

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "rta.csv"
        code = main(["analyze", "--in", trio(tmp_path / "ts.json"),
                     "--cores", "2", "--policy", "rm", "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "# set_schedulable=true" in out_path.read_text()

    def test_unknown_policy_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analyze", "--in", trio(tmp_path / "ts.json"),
                  "--cores", "2", "--policy", "lifo"])


class TestSimulate:
    def test_csv_and_outcomes(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "one.json",
                             [{"id": 0, "C": 2, "D": 4, "T": 4, "m": 0, "K": 1}])
        code = main(["simulate", "--in", path, "--cores", "1",
                     "--policy", "wh", "--horizon", "8"])
        assert code == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(out.splitlines()[:3]))
        assert rows[0] == ["task", "release", "deadline", "q", "finish", "outcome"]
        assert rows[1] == ["0", "0", "4", "0", "2", "hit"]
        assert rows[2] == ["0", "4", "8", "0", "6", "hit"]
        assert "# task=0 outcomes=11" in out

    def test_auto_horizon(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "one.json",
                             [{"id": 0, "C": 2, "D": 4, "T": 4, "m": 0, "K": 1}])
        code = main(["simulate", "--in", path, "--cores", "1",
                     "--policy", "wh", "--horizon", "auto"])
        assert code == 0
        assert "outcomes=111" in capsys.readouterr().out

    def test_violations_reported(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "pair.json", [
            {"id": 0, "C": 2, "D": 2, "T": 2, "m": 1, "K": 2},
            {"id": 1, "C": 2, "D": 2, "T": 2, "m": 1, "K": 2},
        ])
        code = main(["simulate", "--in", path, "--cores", "1",
                     "--policy", "wh", "--horizon", "8"])
        assert code == 1
        captured = capsys.readouterr()
        assert "# task=0 outcomes=1010" in captured.out
        assert "# task=1 outcomes=0101" in captured.out
        assert "violation: task=1 kind=jc0 index=0" in captured.err

    def test_kill_marker_and_out_file(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "pair.json", [
            {"id": 0, "C": 2, "D": 2, "T": 2, "m": 1, "K": 2},
            {"id": 1, "C": 2, "D": 2, "T": 2, "m": 1, "K": 2},
        ])
        out_path = tmp_path / "trace.csv"
        code = main(["simulate", "--in", path, "--cores", "1", "--policy", "rm",
                     "--horizon", "4", "--out", str(out_path)])
        assert code == 1
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert ["1", "0", "2", "0", "KILLED", "miss"] in rows
        captured = capsys.readouterr()
        assert "task=1 outcomes=00" in captured.out
        assert "violation" in captured.err

    def test_bad_horizon(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "one.json",
                             [{"id": 0, "C": 1, "D": 2, "T": 2, "m": 0, "K": 1}])
        assert main(["simulate", "--in", path, "--cores", "1",
                     "--policy", "wh", "--horizon", "soon"]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_uniform_exec_is_not_tied_to_jitter(self, tmp_path, capsys):
        # one task on one core runs unhindered, so each job executes
        # finish - release; the release stream and the execution stream
        # must not replay each other
        path = write_taskset(tmp_path / "one.json",
                             [{"id": 0, "C": 6, "D": 10, "T": 10, "m": 0, "K": 1}])
        assert main(["simulate", "--in", path, "--cores", "1", "--policy", "wh",
                     "--horizon", "2000", "--release", "jitter:5",
                     "--exec", "uniform", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(line for line in out.splitlines()
                                   if not line.startswith("#")))
        releases = [int(r["release"]) for r in rows]
        execs = [int(r["finish"]) - int(r["release"]) for r in rows]
        jitters = [b - a - 10 for a, b in zip(releases, releases[1:])]
        assert len(jitters) > 100
        assert any(e != j + 1 for e, j in zip(execs, jitters))

    def test_jitter_with_wcet_is_pinned(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "pair.json", [
            {"id": 0, "C": 3, "D": 8, "T": 10, "m": 1, "K": 3},
            {"id": 1, "C": 4, "D": 9, "T": 12, "m": 2, "K": 3},
        ])
        assert main(["simulate", "--in", path, "--cores", "1", "--policy", "wh",
                     "--horizon", "60", "--release", "jitter:4", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "task,release,deadline,q,finish,outcome",
            "0,0,8,0,3,hit",
            "0,11,19,0,14,hit",
            "0,25,33,1,28,hit",
            "0,39,47,2,42,hit",
            "0,50,58,2,54,hit",
            "1,0,9,0,7,hit",
            "1,16,25,1,20,hit",
            "1,31,40,1,35,hit",
            "1,47,56,1,51,hit",
            "# task=0 outcomes=11111",
            "# task=1 outcomes=1111",
        ]

    def test_bad_release_spec(self, tmp_path, capsys):
        path = write_taskset(tmp_path / "one.json",
                             [{"id": 0, "C": 1, "D": 2, "T": 2, "m": 0, "K": 1}])
        assert main(["simulate", "--in", path, "--cores", "1", "--policy", "wh",
                     "--horizon", "8", "--release", "burst"]) == 2
        assert "release" in capsys.readouterr().err


class TestGenerate:
    def test_single_file(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        code = main(["generate", "--tasks", "4", "--u", "1.5", "--k", "5",
                     "--scenario", "low", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(out)
        ts = load_taskset(str(out))
        assert len(ts) == 4
        assert all(t.constraint.K == 5 for t in ts)

    def test_multiple_files(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        code = main(["generate", "--tasks", "3", "--u", "1.0", "--k", "5",
                     "--scenario", "high", "--sets", "3", "--seed", "1",
                     "--period-grid", "10,20,25", "--out", str(out)])
        assert code == 0
        paths = capsys.readouterr().out.split()
        assert [p.rsplit("/", 1)[-1] for p in paths] == [
            "batch_000.json", "batch_001.json", "batch_002.json",
        ]
        sets = [load_taskset(p) for p in paths]
        assert len({ts.tasks for ts in sets}) == 3
        for ts in sets:
            assert all(t.period in (10, 20, 25) for t in ts)

    @pytest.mark.parametrize("out", ["./sets", "v1.0/sets"])
    def test_multiple_files_dot_in_directory(self, tmp_path, monkeypatch, capsys, out):
        # a dot before the last path component is not an extension
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v1.0").mkdir()
        code = main(["generate", "--tasks", "3", "--u", "1.0", "--k", "5",
                     "--scenario", "high", "--sets", "2", "--seed", "1",
                     "--out", out])
        assert code == 0
        assert capsys.readouterr().out.split() == [f"{out}_000", f"{out}_001"]
        for path in (f"{out}_000", f"{out}_001"):
            assert len(load_taskset(path)) == 3

    def test_infeasible_target(self, tmp_path, capsys):
        assert main(["generate", "--tasks", "2", "--u", "3.0", "--k", "5",
                     "--scenario", "low", "--out", str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("sets", ["0", "-2"])
    def test_sets_must_be_positive(self, tmp_path, capsys, sets):
        out = tmp_path / "x.json"
        assert main(["generate", "--tasks", "3", "--u", "1.0", "--k", "5",
                     "--scenario", "high", "--sets", sets, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: sets must be >= 1, got {sets}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_nan_utilization(self, tmp_path, capsys):
        assert main(["generate", "--tasks", "20", "--u", "nan", "--k", "5",
                     "--scenario", "high", "--out", str(tmp_path / "x.json")]) == 2
        assert "error: utilization must be > 0, got nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_period_grid_item(self, tmp_path, capsys):
        assert main(["generate", "--tasks", "3", "--u", "1.0", "--k", "5",
                     "--scenario", "high", "--period-grid", "10,x,25",
                     "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "--period-grid" in err and "'x'" in err


class TestExperiment:
    ARGS = ["experiment", "--tasks", "3", "--cores", "2", "--k", "5",
            "--scenario", "high", "--sets", "4", "--u-list", "1.0,2.0",
            "--policy", "wh,rm", "--seed", "7", "--period-grid", "10,20,25"]

    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        rows_a = list(csv.reader(a.read_text().splitlines()))
        rows_b = list(csv.reader(b.read_text().splitlines()))
        assert rows_a[0] == ["policy", "scenario", "tasks", "cores", "window",
                             "target_u", "sets_total", "sets_schedulable",
                             "ratio", "mean_analysis_seconds"]
        # everything except the timing column reruns byte-identical
        assert [r[:9] for r in rows_a] == [r[:9] for r in rows_b]
        assert [(r[0], r[5]) for r in rows_a[1:]] == [
            ("rm", "1"), ("rm", "2"), ("wh", "1"), ("wh", "2"),
        ]
        for row in rows_a[1:]:
            assert row[1] == "high" and row[6] == "4"
            assert 0.0 <= float(row[8]) <= 1.0

    def test_failure_marker(self, tmp_path, capsys):
        out = tmp_path / "fail.csv"
        code = main(["experiment", "--tasks", "3", "--cores", "2", "--k", "2",
                     "--scenario", "low", "--sets", "2", "--u-list", "1.0",
                     "--out", str(out)])
        assert code == 2
        text = out.read_text()
        assert "FAILED" in text
        assert "error:" in capsys.readouterr().err

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        # only input errors (ValueError) become a FAILED row; a bug in the
        # harness surfaces as itself
        def broken(*args, **kwargs):
            raise RuntimeError("harness bug")

        monkeypatch.setattr(cli, "run_experiment", broken)
        out = tmp_path / "bug.csv"
        with pytest.raises(RuntimeError, match="harness bug"):
            main(self.ARGS + ["--out", str(out)])
        assert not out.exists() or "FAILED" not in out.read_text()


    @pytest.mark.parametrize("sets", ["0", "-2"])
    def test_sets_must_be_positive(self, tmp_path, capsys, sets):
        out = tmp_path / "x.csv"
        args = list(self.ARGS)
        args[args.index("--sets") + 1] = sets
        assert main(args + ["--out", str(out)]) == 2
        assert f"error: sets must be >= 1, got {sets}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "0", "-1"])
    def test_u_list_targets_must_be_positive(self, tmp_path, capsys, bad):
        # rejected while parsing, before the valid 1.0 batch prints a row
        args = list(self.ARGS)
        args[args.index("--u-list") + 1] = f"1.0,{bad}"
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"every target must be > 0, got {float(bad)}" in captured.err
        out = tmp_path / "u.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_cores_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        args = list(self.ARGS)
        args[args.index("--cores") + 1] = "0"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cores must be >= 1, got 0\n"
        assert captured.out == ""
        assert not out.exists()

    def test_bad_period_grid_item(self, capsys):
        args = list(self.ARGS)
        args[args.index("--period-grid") + 1] = "10,20,x"
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "--period-grid" in captured.err and "'x'" in captured.err
        assert captured.out == ""


class TestRunExperiment:
    def test_pairing_and_ordering(self):
        results = run_experiment(
            ["wh", "rm"], Scenario.ALL_HIGH, tasks=3, cores=2, window=5,
            sets=5, u_list=[2.0, 1.0], seed=11, periods=(10, 20, 25),
        )
        assert [(r.policy, r.target_u) for r in results] == [
            ("rm", 1.0), ("rm", 2.0), ("wh", 1.0), ("wh", 2.0),
        ]
        for r in results:
            assert r.sets_total == 5
            assert 0 <= r.sets_schedulable <= 5
            assert r.ratio == r.sets_schedulable / 5
        by = {(r.policy, r.target_u): r.sets_schedulable for r in results}
        assert by[("wh", 1.0)] >= by[("rm", 1.0)]
        assert by[("wh", 2.0)] >= by[("rm", 2.0)]

    def test_sets_must_be_positive(self):
        with pytest.raises(ValueError, match="sets must be >= 1, got 0"):
            run_experiment(["rm"], Scenario.ALL_HIGH, tasks=3, cores=2, window=5,
                           sets=0, u_list=[1.0])

    def test_cores_must_be_positive(self, monkeypatch):
        def no_generation(spec):
            raise AssertionError("generated a set before checking cores")

        monkeypatch.setattr(cli, "make_taskset", no_generation)
        with pytest.raises(ValueError, match="cores must be >= 1, got 0"):
            run_experiment(["rm"], Scenario.ALL_HIGH, tasks=3, cores=0, window=5,
                           sets=2, u_list=[1.0])
