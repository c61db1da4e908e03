"""Schedulers: R-Storm (the paper's contribution) and baselines."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.scheduler.admission": (
            "AdmissionDecision",
            "AdmissionPlan",
            "AdmissionRequest",
            "Tenant",
            "jain_index",
            "plan_admission",
        ),
        "repro.scheduler.aniello": ("AnielloOfflineScheduler",),
        "repro.scheduler.assignment": ("Assignment",),
        "repro.scheduler.base": ("IScheduler", "SchedulingRound"),
        "repro.scheduler.default": ("DefaultScheduler", "interleaved_slots"),
        "repro.scheduler.global_state": ("GlobalState",),
        "repro.scheduler.ordering": (
            "TaskOrderingStrategy",
            "interleave_component_tasks",
            "ordered_tasks",
        ),
        "repro.scheduler.packed": ("PackedClusterState",),
        "repro.scheduler.quality": (
            "ScheduleQuality",
            "aggregate_node_load",
            "evaluate_assignment",
        ),
        "repro.scheduler.rstorm": ("DistanceWeights", "RStormScheduler"),
        "repro.scheduler.visualise": ("render_assignments", "render_node_loads"),
    },
)
