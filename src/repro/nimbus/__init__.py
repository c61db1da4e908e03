"""Coordination plane: Nimbus master, supervisors, config.

Supervisors register with Nimbus, which keeps the list of active worker
nodes; Nimbus reads node capacities from the cluster model."""

from repro.nimbus.config import StormConfig, parse_storm_yaml
from repro.nimbus.elastic import (
    ElasticController,
    ElasticDecision,
    required_parallelism,
)
from repro.nimbus.failure_detector import HeartbeatFailureDetector
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.supervisor import Supervisor
from repro.nimbus.tenancy import SLO, TenancyController, Tenant

__all__ = [
    "ElasticController",
    "ElasticDecision",
    "HeartbeatFailureDetector",
    "Nimbus",
    "SLO",
    "StormConfig",
    "Supervisor",
    "Tenant",
    "TenancyController",
    "parse_storm_yaml",
    "required_parallelism",
]
