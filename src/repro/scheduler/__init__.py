"""Schedulers: R-Storm (the paper's contribution) and baselines."""

from repro.scheduler.admission import (
    AdmissionDecision,
    AdmissionPlan,
    AdmissionRequest,
    Tenant,
    jain_index,
    plan_admission,
)
from repro.scheduler.aniello import AnielloOfflineScheduler
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.scheduler.default import DefaultScheduler, interleaved_slots
from repro.scheduler.global_state import GlobalState
from repro.scheduler.ordering import (
    TaskOrderingStrategy,
    interleave_component_tasks,
    ordered_tasks,
)
from repro.scheduler.packed import PackedClusterState
from repro.scheduler.quality import (
    ScheduleQuality,
    aggregate_node_load,
    evaluate_assignment,
)
from repro.scheduler.rstorm import DistanceWeights, RStormScheduler
from repro.scheduler.visualise import render_assignments, render_node_loads

__all__ = [
    "AdmissionDecision",
    "AdmissionPlan",
    "AdmissionRequest",
    "AnielloOfflineScheduler",
    "Assignment",
    "DefaultScheduler",
    "DistanceWeights",
    "GlobalState",
    "IScheduler",
    "PackedClusterState",
    "RStormScheduler",
    "ScheduleQuality",
    "SchedulingRound",
    "TaskOrderingStrategy",
    "Tenant",
    "aggregate_node_load",
    "evaluate_assignment",
    "interleave_component_tasks",
    "interleaved_slots",
    "jain_index",
    "ordered_tasks",
    "plan_admission",
    "render_assignments",
    "render_node_loads",
]
