"""Deterministic, seeded fault injection for the simulator.

The chaos/recovery workload layer: typed fault events
(:mod:`~repro.faults.events`), time-ordered schedules
(:mod:`~repro.faults.schedule`), seeded random generation
(:mod:`~repro.faults.chaos`), DES wiring
(:mod:`~repro.faults.injector`) and recovery measurement
(:mod:`~repro.faults.monitor`).  See ``docs/faults.md``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.faults.chaos": ("ChaosGenerator",),
        "repro.faults.events": (
            "EVENT_KINDS",
            "FaultEvent",
            "HeartbeatSilence",
            "LinkDegradation",
            "MessageLoss",
            "NodeCrash",
            "NodeSlowdown",
            "RackPartition",
        ),
        "repro.faults.injector": ("FaultInjector",),
        "repro.faults.monitor": ("FaultRecovery", "RecoveryMonitor", "RecoveryReport"),
        "repro.faults.schedule": ("FaultSchedule",),
    },
)
