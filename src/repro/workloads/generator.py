"""Random topology generation.

Layered DAGs with randomised parallelism, groupings, resource
declarations and execution profiles — used by the scalability
experiment, the fuzz tests (any generated topology must schedule and
simulate without violating invariants), and as a starting point for
users' own synthetic workloads.

Generation is fully deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile
from repro.topology.topology import Topology

__all__ = ["TopologySpec", "random_topology"]


@dataclass(frozen=True)
class TopologySpec:
    """Bounds for random topology generation.

    Attributes:
        min_layers/max_layers: Bolt layers below the spout layer.
        min_width/max_width: Components per layer.
        max_parallelism: Per-component parallelism upper bound.
        memory_choices_mb: Declared per-task memory options.
        cpu_choices: Declared per-task CPU-point options.
        cpu_ms_range: Per-tuple CPU cost bounds.
        tuple_bytes_choices: Emitted tuple sizes.
        allow_skip_connections: Let a bolt also subscribe to layers more
            than one step up (diamond-ish shapes).
    """

    min_layers: int = 1
    max_layers: int = 4
    min_width: int = 1
    max_width: int = 3
    max_parallelism: int = 6
    memory_choices_mb: Tuple[float, ...] = (64.0, 128.0, 256.0, 512.0)
    cpu_choices: Tuple[float, ...] = (5.0, 10.0, 20.0, 35.0)
    cpu_ms_range: Tuple[float, float] = (0.01, 0.5)
    tuple_bytes_choices: Tuple[int, ...] = (64, 128, 256)
    allow_skip_connections: bool = True

    def __post_init__(self) -> None:
        if self.min_layers < 1 or self.max_layers < self.min_layers:
            raise ConfigError("invalid layer bounds")
        if self.min_width < 1 or self.max_width < self.min_width:
            raise ConfigError("invalid width bounds")
        if self.max_parallelism < 1:
            raise ConfigError("max_parallelism must be >= 1")


def random_topology(
    seed: int,
    spec: Optional[TopologySpec] = None,
    name: Optional[str] = None,
) -> Topology:
    """Generate a random layered topology, deterministically in ``seed``."""
    spec = spec or TopologySpec()
    rng = random.Random(seed)
    builder = TopologyBuilder(name or f"random-{seed}")

    def profile(is_spout: bool) -> ExecutionProfile:
        return ExecutionProfile(
            cpu_ms_per_tuple=rng.uniform(*spec.cpu_ms_range),
            output_ratio=1.0 if is_spout else rng.choice((0.5, 0.8, 1.0, 1.5)),
            tuple_bytes=rng.choice(spec.tuple_bytes_choices),
            emit_batch_tuples=rng.choice((50, 100)),
            max_rate_tps=rng.choice((None, 500.0, 2000.0)) if is_spout else None,
        )

    def declare(declarer) -> None:
        declarer.set_memory_load(rng.choice(spec.memory_choices_mb))
        declarer.set_cpu_load(rng.choice(spec.cpu_choices))

    num_spouts = rng.randint(1, spec.max_width)
    layers: List[List[str]] = [[]]
    for i in range(num_spouts):
        spout_name = f"spout-{i}"
        declarer = builder.set_spout(
            spout_name,
            parallelism=rng.randint(1, spec.max_parallelism),
            profile=profile(is_spout=True),
        )
        declare(declarer)
        layers[0].append(spout_name)

    num_layers = rng.randint(spec.min_layers, spec.max_layers)
    for layer_idx in range(num_layers):
        width = rng.randint(spec.min_width, spec.max_width)
        layer: List[str] = []
        for j in range(width):
            bolt_name = f"bolt-{layer_idx}-{j}"
            declarer = builder.set_bolt(
                bolt_name,
                parallelism=rng.randint(1, spec.max_parallelism),
                profile=profile(is_spout=False),
            )
            declare(declarer)
            sources = _pick_sources(rng, layers, spec)
            for source in sources:
                _subscribe(rng, declarer, source)
            layer.append(bolt_name)
        layers.append(layer)
    return builder.build()


def _pick_sources(rng, layers: Sequence[Sequence[str]], spec) -> List[str]:
    previous = list(layers[-1])
    count = rng.randint(1, min(2, len(previous)))
    sources = rng.sample(previous, count)
    if spec.allow_skip_connections and len(layers) > 1 and rng.random() < 0.3:
        upper = [name for layer in layers[:-1] for name in layer]
        extra = rng.choice(upper)
        if extra not in sources:
            sources.append(extra)
    return sources


def _subscribe(rng, declarer, source: str) -> None:
    choice = rng.random()
    if choice < 0.6:
        declarer.shuffle_grouping(source)
    elif choice < 0.8:
        declarer.fields_grouping(source, fields=("key",))
    elif choice < 0.9:
        declarer.global_grouping(source)
    else:
        declarer.local_or_shuffle_grouping(source)
