"""The four benchmark workloads.

Each workload builds its fixed inputs in ``__init__`` (that is part of
the measured set-up time) and then runs numbered passes.  Pass ``p`` is
a pure function of the workload seed and ``p``, so two runs with one
seed do the same work in the same order; only how many passes fit into
the measured time differs.  The output digest covers pass 0, which
every run executes, so it does not depend on the speed of the program.

Every call into whsched goes through ``Workload.call`` and so through
the run's ``Recorder``.  A unit of work that raises counts as one
failed operation and the pass goes on with the next unit.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager

import whsched.cli
from whsched import (
    AlwaysWcet,
    GenSpec,
    InterferencePolicy,
    Scenario,
    SchedulingPolicy,
    SimConfig,
    SporadicJitter,
    Synchronous,
    Task,
    TaskSet,
    ToleranceClass,
    UniformUpToWcet,
    WeaklyHardConstraint,
    analyze,
    assign_priorities,
    check_trace,
    classify,
    derive_wh,
    harder_than,
    hardness_bruteforce,
    make_taskset,
    run_experiment,
    simulate,
    transformation_cost,
    uunifast,
)

POLICIES = ("rm", "edf", "wh")
ANALYSIS = {
    "rm": InterferencePolicy.FIXED_PRIORITY_RM,
    "edf": InterferencePolicy.GLOBAL_EDF,
    "wh": InterferencePolicy.WEAKLY_HARD_JC0,
}
# the scheduler each analysis claims to cover
SCHEDULER = {
    "rm": SchedulingPolicy.RM,
    "edf": SchedulingPolicy.EDF,
    "wh": SchedulingPolicy.JOB_CLASS,
}

# (m, K) -> (transformed count, original count), as pinned by the
# acceptance suite
PINNED_COSTS = {
    (1, 5): (6, 6),
    (2, 5): (9, 16),
    (3, 5): (13, 26),
    (4, 5): (31, 31),
    (4, 10): (60, 386),
    (8, 10): (912, 1013),
    (8, 20): (2745, 263950),
    (16, 20): (786568, 1047225),
}

PERIOD_GRID = (10, 20, 25, 40, 50, 100, 125, 200, 250)
# three hyperperiods of any set drawn from the grid (lcm of the grid is 1000)
GRID_HORIZON = 3000


def derive(seed: int, *parts) -> int:
    """A 56-bit seed for one input, independent across ``parts``."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:7], "big")


def trace_consistent(trace, ts: TaskSet) -> bool:
    """Job records agree with the outcome bits and with the task parameters."""
    for task in ts:
        records = trace.records[task.id]
        bits = trace.outcomes[task.id]
        if len(records) != len(bits):
            return False
        for rec, bit in zip(records, bits):
            hit = rec.outcome == "hit"
            if (
                bit != hit
                or hit != (rec.finish is not None)
                or rec.deadline - rec.release != task.deadline
                or not 0 <= rec.executed <= task.wcet
            ):
                return False
    return True


class Workload:
    name = ""
    # (name, unit) of the two rates, as printed in the report
    work_metric = ("", "")
    inner_metric = ("", "")

    def __init__(self, seed: int, rec):
        self.seed = seed
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def call(self, name: str, fn, *args):
        """One operation: a timed call into whsched."""
        self.attempted += 1
        return self.rec.call(name, fn, *args)

    def check(self, ok: bool, what: str) -> bool:
        """One operation: an output check."""
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def guarded(self, what: str, fn, *args):
        """Run one unit of work; a raise is a failed operation, not a crash."""
        try:
            return fn(*args)
        except Exception as e:  # the run goes on and reports the failure
            self._fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def simulate_checked(self, p: int, ts: TaskSet, table, cfg: SimConfig, what: str):
        """Simulate, check the trace and count what happened.

        Returns (recorded jobs, misses, violations, seconds spent in
        ``simulate`` and ``check_trace``).
        """
        rec = self.rec
        sched = cfg.policy.value
        trace = self.call(f"sim.simulate.{sched}", simulate, ts, table, cfg)
        seconds = rec.last
        violations = self.call("sim.check_trace", check_trace, trace, ts)
        seconds += rec.last
        jobs = sum(len(bits) for bits in trace.outcomes.values())
        misses = sum(bits.count(0) for bits in trace.outcomes.values())
        rec.count(f"sim.simulate.{sched}.jobs", jobs)
        rec.count(f"sim.simulate.{sched}.misses", misses)
        rec.count("sim.check_trace.violations", len(violations))
        self.check(trace_consistent(trace, ts), f"{what}: {sched} records")
        self.record(p, (sched, [trace.outcome_string(t.id) for t in ts]))
        return jobs, misses, violations, seconds

    def record(self, p: int, item) -> None:
        """Add an output to the digest; only pass 0 is digested."""
        if p == 0:
            self._digest.update(repr(item).encode())
            self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def run_pass(self, p: int) -> tuple[int, float | None, int, float]:
        """Run pass ``p``.

        Returns (work units, seconds they took or None for the pass's
        wall time, inner units, seconds the inner units took).
        """
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks made once, after the measured passes."""


class Sweep(Workload):
    """The paper's ratio experiment: ``run_experiment`` over rm, edf and wh."""

    name = "sweep"
    work_metric = ("sweep_sets_per_s", "sets/s")
    inner_metric = ("analyses_per_s", "analyses/s")

    def __init__(self, seed, size, rec):
        super().__init__(seed, rec)
        if size == "tiny":
            self.sets, self.u_points = 1, (2.0, 4.4)
        else:
            self.sets, self.u_points = 4, (2.0, 2.4, 2.8, 3.2, 3.6, 4.0, 4.4)

    def run_pass(self, p):
        # run_experiment seeds set i with master ^ i; clear low bits so
        # the sets of different passes never coincide
        master = derive(self.seed, "sweep", p) << 8
        args = (list(POLICIES), Scenario.ALL_HIGH, 20, 4, 5, self.sets, list(self.u_points), master)
        with self._traced_cli():
            rows = self.guarded("run_experiment", self.call, "cli.run_experiment", run_experiment, *args)
        if rows is None:
            return 0, None, 0, 0.0
        table = [
            (r.policy, r.scenario, r.tasks, r.cores, r.window, r.target_u,
             r.sets_total, r.sets_schedulable, r.ratio)
            for r in rows
        ]
        self.record(p, table)
        self.check(
            [(r.policy, r.target_u) for r in rows]
            == [(pol, u) for pol in sorted(POLICIES) for u in self.u_points]
            and all(r.sets_total == self.sets and r.ratio == r.sets_schedulable / self.sets
                    for r in rows),
            f"pass {p}: malformed ratio table",
        )
        # the experiment's own timing column; it includes the yardstick
        # interruptions, a near-constant 3%
        analysis_s = sum(r.mean_analysis_seconds * r.sets_total for r in rows)
        return self.sets * len(self.u_points), None, len(rows) * self.sets, analysis_s

    @contextmanager
    def _traced_cli(self):
        # traced runs also time the make_taskset and analyze calls that
        # run_experiment makes, by swapping the names whsched.cli looks up
        if not self.rec.traced:
            yield
            return
        cli, rec = whsched.cli, self.rec
        real_make, real_analyze = cli.make_taskset, cli.analyze

        def make(spec):
            return rec.call("gen.make_taskset", real_make, spec)

        def analyze_traced(ts, cores, policy):
            report = rec.call(f"rta.analyze.{policy.value}", real_analyze, ts, cores, policy)
            if report.set_schedulable:
                rec.count(f"rta.analyze.{policy.value}.accepted")
            return report

        cli.make_taskset, cli.analyze = make, analyze_traced
        try:
            yield
        finally:
            cli.make_taskset, cli.analyze = real_make, real_analyze


class Crosscheck(Workload):
    """Small sets analysed under every policy and simulated under each scheduler."""

    name = "crosscheck"
    work_metric = ("crosscheck_sets_per_s", "sets/s")
    inner_metric = ("sim_jobs_per_s", "jobs/s")

    # the ROADMAP's soundness reproducer: the wh analysis accepts it,
    # the job-class scheduler misses a class-0 deadline
    REPRODUCER = (GenSpec(6, 1.4, 8, Scenario.ALL_LOW, periods=PERIOD_GRID, seed=125439), 2)
    MAX_JITTER = 25

    def __init__(self, seed, size, rec):
        super().__init__(seed, rec)
        if size == "tiny":
            self.configs = [(2, 5, Scenario.ALL_LOW), (4, 8, Scenario.ALL_HIGH)]
        else:
            self.configs = [
                (cores, k, scenario)
                for cores in (2, 4) for k in (5, 8)
                for scenario in (Scenario.ALL_LOW, Scenario.ALL_HIGH)
            ]

    def specs(self, p: int) -> list[tuple[GenSpec, int]]:
        # utilization fractions evenly spread over 0.6..0.8, shuffled over
        # the configurations, so each pass has the same load mix
        n = len(self.configs)
        fractions = [0.6 + 0.2 * (j + 0.5) / n for j in range(n)]
        random.Random(derive(self.seed, "crosscheck", p)).shuffle(fractions)
        out = [self.REPRODUCER] if p == 0 else []
        for i, ((cores, k, scenario), fraction) in enumerate(zip(self.configs, fractions)):
            u = cores * fraction
            spec = GenSpec(3 * cores, u, k, scenario, periods=PERIOD_GRID,
                           seed=derive(self.seed, "set", p, i))
            out.append((spec, cores))
        return out

    def run_pass(self, p):
        specs = self.specs(p)
        jobs, sim_s = 0, 0.0
        for spec, cores in specs:
            done = self.guarded(f"set seed={spec.seed}", self._one_set, p, spec, cores)
            if done is not None:
                jobs += done[0]
                sim_s += done[1]
        return len(specs), None, jobs, sim_s

    def _one_set(self, p, spec, cores):
        rec = self.rec
        ts = self.call("gen.make_taskset", make_taskset, spec)
        accepted = {}
        for pol in POLICIES:
            report = self.call(f"rta.analyze.{pol}", analyze, ts, cores, ANALYSIS[pol])
            accepted[pol] = report.set_schedulable
            if report.set_schedulable:
                rec.count(f"rta.analyze.{pol}.accepted")
        table = self.call("priority.assign_priorities", assign_priorities, ts)
        models = [
            (Synchronous(), AlwaysWcet()),
            (SporadicJitter(self.MAX_JITTER, derive(spec.seed, "release")),
             UniformUpToWcet(derive(spec.seed, "exec"))),
        ]
        jobs, sim_s = 0, 0.0
        for pol in POLICIES:
            refuted = False
            for release, execution in models:
                cfg = SimConfig(cores, GRID_HORIZON, SCHEDULER[pol], release, execution)
                n, misses, violations, seconds = self.simulate_checked(
                    p, ts, table, cfg, f"set seed={spec.seed}")
                jobs += n
                sim_s += seconds
                # an accepted wh verdict promises no class-0 miss and no
                # window violation; an accepted rm or edf verdict promises
                # that no job is killed
                if accepted[pol]:
                    refuted |= bool(violations) if pol == "wh" else misses > 0
            if refuted:
                rec.count(f"rta.analyze.{pol}.refuted")
        return jobs, sim_s


class Horizon(Workload):
    """A few long traces: 16 tasks, periods 10 to 1000, horizon 1e6 ticks."""

    name = "horizon"
    work_metric = ("horizon_jobs_per_s", "jobs/s")
    inner_metric = ("sim_jobs_per_s", "jobs/s")

    CORES = 4
    WINDOW = 50
    MAX_JITTER = 5
    SETS = 3

    def __init__(self, seed, size, rec):
        super().__init__(seed, rec)
        tasks = 16 if size != "tiny" else 8
        self.horizon = 10 ** 6 if size != "tiny" else 5000
        # periods are spread log-evenly over 10..1000 instead of drawn, so
        # every set releases about the same number of jobs and the trace
        # size (and with it peak memory) is a property of the workload
        periods = [round(10 * 100 ** (i / (tasks - 1))) for i in range(tasks)]
        self.sets = [self._make_set(i, periods) for i in range(self.SETS)]

    def _make_set(self, i, periods) -> TaskSet:
        shares = uunifast(len(periods), 0.7 * self.CORES, derive(self.seed, "horizon-u", i))
        rng = random.Random(derive(self.seed, "horizon-m", i))
        return TaskSet(tuple(
            Task(j, min(max(round(u * t), 1), t), t, t,
                 WeaklyHardConstraint(rng.randint(1, self.WINDOW - 1), self.WINDOW))
            for j, (u, t) in enumerate(zip(shares, periods))
        ))

    def run_pass(self, p):
        ts = self.sets[p % len(self.sets)]
        table = self.call("priority.assign_priorities", assign_priorities, ts)
        jobs, sim_s = 0, 0.0
        for pol in ("wh", "rm", "edf"):
            cfg = SimConfig(
                self.CORES, self.horizon, SCHEDULER[pol],
                SporadicJitter(self.MAX_JITTER, derive(self.seed, "release", p, pol)),
                UniformUpToWcet(derive(self.seed, "exec", p, pol)),
            )
            done = self.guarded(f"pass {p} {pol}", self.simulate_checked, p, ts, table, cfg, f"pass {p}")
            if done is not None:
                jobs += done[0]
                sim_s += done[3]
        return jobs, None, jobs, sim_s


def grid_laws(ks) -> tuple[int, int]:
    """Check the (w, h) pinning laws and the implication law for all m at each K.

    Returns (constraints checked, constraints that broke a law).
    """
    checked = bad = 0
    low = ToleranceClass.LOW
    for k in ks:
        for m in range(1, k):
            c = WeaklyHardConstraint(m, k)
            t = derive_wh(c)
            pinned = t.w == 1 if classify(c) is low else t.h == 1
            if not pinned or not harder_than(t.h, t.w + t.h, k - m, k):
                bad += 1
            checked += 1
    return checked, bad


class Counting(Workload):
    """Exhaustive sequence counting, plus the shape-and-implication grid."""

    name = "counting"
    work_metric = ("counts_per_s", "calls/s")
    inner_metric = ("grid_constraints_per_s", "constraints/s")

    def __init__(self, seed, size, rec):
        super().__init__(seed, rec)
        # every pass counts all m at each K: the cost of one call grows
        # 2^K and depends on m, so a pass covering a sample would cost a
        # different amount for each seed.  K stops at the hardness cap
        # of 20; all m at K = 22 alone takes seconds.
        top_k, max_grid_k = (11, 40) if size == "tiny" else (20, 1000)
        self.rows = [
            [WeaklyHardConstraint(m, k) for m in range(1, k)] for k in range(top_k - 8, top_k + 1)
        ]
        # the whole grid, K <= max_grid_k, in one slice after each row, so
        # the grid is timed all through the pass rather than in one burst
        n = len(self.rows)
        self.grid_slices = [range(2 + j, max_grid_k + 1, n) for j in range(n)]
        random.Random(derive(seed, "counting")).shuffle(self.grid_slices)

    def run_pass(self, p):
        calls, call_s, checked, grid_s = 0, 0.0, 0, 0.0
        for row, ks in zip(self.rows, self.grid_slices):
            for c in row:
                cost = self.guarded(f"count {c}", self.call,
                                    "sequences.transformation_cost", transformation_cost, c)
                if cost is not None:
                    calls += 1
                    call_s += self.rec.last
                    self.record(p, (c.m, c.K, cost.transformed_count, cost.original_count))
                hard = self.guarded(f"hardness {c}", self.call,
                                    "sequences.hardness_bruteforce", hardness_bruteforce, c)
                if hard is not None:
                    calls += 1
                    call_s += self.rec.last
                    self.check(hard is True, f"hardness_bruteforce{(c.m, c.K)} is {hard}")
            grid = self.guarded(f"pass {p} grid", self.rec.call, "model.grid", grid_laws, ks)
            if grid is not None:
                self.rec.count("model.grid.constraints", grid[0])
                checked += grid[0]
                grid_s += self.rec.last
                # each constraint checked is one operation
                self.attempted += grid[0]
                for _ in range(grid[1]):
                    self._fail(f"pass {p}: a (w, h) law broke for some K in {ks}")
        return calls, call_s, checked, grid_s

    def finish(self):
        # not through the recorder: these calls are not part of the timed passes
        for (m, k), expected in PINNED_COSTS.items():
            self.attempted += 1
            cost = self.guarded(f"count {(m, k)}", transformation_cost, WeaklyHardConstraint(m, k))
            if cost is not None:
                got = (cost.transformed_count, cost.original_count)
                self.check(got == expected, f"transformation_cost{(m, k)} = {got}, pinned {expected}")


WORKLOADS = {w.name: w for w in (Sweep, Crosscheck, Horizon, Counting)}
