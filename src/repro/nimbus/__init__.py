"""Coordination plane: Nimbus master, supervisors, config.

Supervisors register with Nimbus, which keeps the list of active worker
nodes; Nimbus reads node capacities from the cluster model."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.nimbus.config": ("StormConfig", "parse_storm_yaml"),
        "repro.nimbus.elastic": (
            "ElasticController",
            "ElasticDecision",
            "required_parallelism",
        ),
        "repro.nimbus.failure_detector": ("HeartbeatFailureDetector",),
        "repro.nimbus.nimbus": ("Nimbus",),
        "repro.nimbus.supervisor": ("Supervisor",),
        "repro.nimbus.tenancy": ("SLO", "TenancyController", "Tenant"),
    },
)
