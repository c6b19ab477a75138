"""Scheduling toolkit for weakly-hard (m, K) task sets on multi-core.

Constraints, tolerance classes, and the (w, h) transformation live in
``model``; sequence constraints and exact counting in ``sequences``;
job-class priorities and the job-level automaton in ``priority``;
response-time analysis in ``rta``; the discrete-event scheduler in
``sim``; task-set generation in ``gen``; the CLI and experiment harness
in ``cli``.
"""

from .cli import ExperimentResult, load_taskset, main, run_experiment, save_taskset
from .gen import GenSpec, Infeasible, Scenario, make_taskset, uunifast
from .model import (
    HARD_CONSTRAINT,
    HardTaskHasNoTransform,
    InvalidConstraint,
    InvalidTask,
    MKTransform,
    NotHighTolerance,
    Task,
    TaskSet,
    ToleranceClass,
    WeaklyHardConstraint,
    classify,
    derive_wh,
    equivalent_task,
    harder_than,
)
from .priority import (
    EmptyTaskSet,
    JobClassTable,
    JobLevelState,
    advance_job_level,
    assign_priorities,
    class_count,
)
from .rta import (
    AnalysisReport,
    InterferencePolicy,
    TaskReport,
    WorkloadTerms,
    analyze,
    baseline_workload,
    wh_workload,
)
from .sequences import (
    ConstraintKind,
    DeadlineSequence,
    SequenceTooShort,
    TransformationCost,
    critical_sequence,
    hardness_bruteforce,
    satisfies,
    transformation_cost,
)
from .sim import (
    AlwaysWcet,
    InvalidConfig,
    JobRecord,
    SchedulingPolicy,
    SimConfig,
    SimTrace,
    SporadicJitter,
    Synchronous,
    UniformUpToWcet,
    Violation,
    check_trace,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AlwaysWcet",
    "AnalysisReport",
    "ConstraintKind",
    "DeadlineSequence",
    "EmptyTaskSet",
    "ExperimentResult",
    "GenSpec",
    "HARD_CONSTRAINT",
    "HardTaskHasNoTransform",
    "Infeasible",
    "InterferencePolicy",
    "InvalidConfig",
    "InvalidConstraint",
    "InvalidTask",
    "JobClassTable",
    "JobLevelState",
    "JobRecord",
    "MKTransform",
    "NotHighTolerance",
    "Scenario",
    "SchedulingPolicy",
    "SequenceTooShort",
    "SimConfig",
    "SimTrace",
    "SporadicJitter",
    "Synchronous",
    "Task",
    "TaskReport",
    "TaskSet",
    "ToleranceClass",
    "TransformationCost",
    "UniformUpToWcet",
    "Violation",
    "WeaklyHardConstraint",
    "WorkloadTerms",
    "advance_job_level",
    "analyze",
    "assign_priorities",
    "baseline_workload",
    "check_trace",
    "class_count",
    "classify",
    "critical_sequence",
    "derive_wh",
    "equivalent_task",
    "harder_than",
    "hardness_bruteforce",
    "load_taskset",
    "main",
    "make_taskset",
    "run_experiment",
    "satisfies",
    "save_taskset",
    "simulate",
    "transformation_cost",
    "uunifast",
    "wh_workload",
]
