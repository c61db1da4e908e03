"""Resource vectors and schemas.

The paper (Section 4) models both the demand of a task and the
availability of a node as an n-dimensional vector in ``R^n``.  Each
dimension is either a *hard* constraint (must never be over-committed —
memory in the paper) or a *soft* constraint (may be over-committed with a
graceful performance degradation — CPU and bandwidth in the paper).

This module provides:

* :class:`ResourceDimension` — one axis of the resource space.
* :class:`ResourceSchema` — an ordered collection of dimensions; the
  standard Storm schema (memory/CPU/bandwidth) is
  :meth:`ResourceSchema.storm_default`.
* :class:`ResourceVector` — an immutable point in the resource space with
  elementwise arithmetic, hard-constraint checks, and the normalised
  gap computations used by R-Storm's node-selection distance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import SchemaMismatchError, UnknownResourceError

__all__ = [
    "ConstraintKind",
    "ResourceDimension",
    "ResourceSchema",
    "ResourceVector",
    "MEMORY",
    "CPU",
    "BANDWIDTH",
]

#: Canonical dimension names used by the standard Storm schema.
MEMORY = "memory_mb"
CPU = "cpu"
BANDWIDTH = "bandwidth_mbps"


class ConstraintKind(enum.Enum):
    """Whether a resource dimension is a hard or a soft constraint.

    Hard constraints (memory) must be satisfied in full: exceeding them is
    catastrophic (the paper cites unrecoverable worker failure).  Soft
    constraints (CPU, bandwidth) may be over-committed; performance
    degrades gracefully instead.
    """

    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True)
class ResourceDimension:
    """One axis of the resource space.

    Attributes:
        name: Unique dimension name, e.g. ``"memory_mb"``.
        kind: Hard or soft constraint class.
        unit: Human-readable unit for reports.
        default_weight: Weight used by the node-selection distance when the
            user supplies none (the paper's ``Weights`` vector, Section 4).
    """

    name: str
    kind: ConstraintKind
    unit: str = ""
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        weight = self.default_weight
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(
                f"default_weight of dimension {self.name!r} must be finite "
                f"and >= 0, got {weight}"
            )

    @property
    def is_hard(self) -> bool:
        return self.kind is ConstraintKind.HARD


class ResourceSchema:
    """An ordered, immutable collection of resource dimensions.

    All :class:`ResourceVector` instances carry a reference to their
    schema; vectors from different schemas never mix (a
    :class:`~repro.errors.SchemaMismatchError` is raised).
    """

    __slots__ = ("_dimensions", "_index", "_hard_indices")

    def __init__(self, dimensions: Iterable[ResourceDimension]):
        dims = tuple(dimensions)
        if not dims:
            raise ValueError("a resource schema needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in schema: {names}")
        self._dimensions: Tuple[ResourceDimension, ...] = dims
        self._index: Dict[str, int] = {d.name: i for i, d in enumerate(dims)}
        self._hard_indices: Tuple[int, ...] = tuple(
            i for i, d in enumerate(dims) if d.is_hard
        )

    # -- construction -----------------------------------------------------

    _STORM_DEFAULT: Optional["ResourceSchema"] = None

    @classmethod
    def storm_default(cls) -> "ResourceSchema":
        """The 3-dimensional schema used throughout the paper.

        * ``memory_mb`` — hard constraint, megabytes.
        * ``cpu`` — soft constraint, CPU points (100 points = one core).
        * ``bandwidth_mbps`` — soft constraint, megabits per second.

        The instance is cached so every vector built through the
        convenience constructors shares one schema object (cheap identity
        comparison on the hot path).
        """
        if cls._STORM_DEFAULT is None:
            cls._STORM_DEFAULT = cls(
                [
                    ResourceDimension(MEMORY, ConstraintKind.HARD, "MB"),
                    ResourceDimension(CPU, ConstraintKind.SOFT, "points"),
                    ResourceDimension(BANDWIDTH, ConstraintKind.SOFT, "Mbps"),
                ]
            )
        return cls._STORM_DEFAULT

    # -- introspection ----------------------------------------------------

    @property
    def dimensions(self) -> Tuple[ResourceDimension, ...]:
        return self._dimensions

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self._dimensions)

    @property
    def hard_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self._dimensions if d.is_hard)

    @property
    def hard_indices(self) -> Tuple[int, ...]:
        """Positions of the hard dimensions, precomputed once — the
        feasibility checks on the scheduling hot path index vectors
        directly instead of resolving names per call."""
        return self._hard_indices

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownResourceError(
                f"unknown resource dimension {name!r}; schema has {self.names}"
            ) from None

    def dimension(self, name: str) -> ResourceDimension:
        return self._dimensions[self.index_of(name)]

    def __len__(self) -> int:
        return len(self._dimensions)

    def __iter__(self) -> Iterator[ResourceDimension]:
        return iter(self._dimensions)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ResourceSchema):
            return NotImplemented
        return self._dimensions == other._dimensions

    def __hash__(self) -> int:
        return hash(self._dimensions)

    def __repr__(self) -> str:
        kinds = ", ".join(f"{d.name}[{d.kind.value}]" for d in self._dimensions)
        return f"ResourceSchema({kinds})"

    # -- vector factories ---------------------------------------------------

    def zero(self) -> "ResourceVector":
        """A vector of all zeroes in this schema."""
        return ResourceVector(self, (0.0,) * len(self._dimensions))

    def vector(self, **values: float) -> "ResourceVector":
        """Build a vector by keyword; unspecified dimensions default to 0."""
        unknown = set(values) - set(self._index)
        if unknown:
            raise UnknownResourceError(
                f"unknown resource dimension(s) {sorted(unknown)}; "
                f"schema has {self.names}"
            )
        return ResourceVector(
            self, tuple(float(values.get(d.name, 0.0)) for d in self._dimensions)
        )


class ResourceVector:
    """An immutable point in a schema's resource space.

    Supports elementwise arithmetic (``+``, ``-``, scalar ``*``),
    hard-constraint admission checks, and the normalised comparisons the
    R-Storm distance function relies on.  Negative values are permitted:
    the *availability* of an over-committed soft resource is negative by
    design.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: ResourceSchema, values: Iterable[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) != len(schema):
            raise ValueError(
                f"expected {len(schema)} values for schema {schema!r}, "
                f"got {len(vals)}"
            )
        self._schema = schema
        self._values = vals

    # -- construction -----------------------------------------------------

    @classmethod
    def of(
        cls,
        memory_mb: float = 0.0,
        cpu: float = 0.0,
        bandwidth_mbps: float = 0.0,
    ) -> "ResourceVector":
        """Build a vector in the standard Storm schema."""
        return cls(
            ResourceSchema.storm_default(), (memory_mb, cpu, bandwidth_mbps)
        )

    # -- accessors ----------------------------------------------------------

    @property
    def schema(self) -> ResourceSchema:
        return self._schema

    @property
    def values(self) -> Tuple[float, ...]:
        return self._values

    def __getitem__(self, name: str) -> float:
        return self._values[self._schema.index_of(name)]

    def get(self, name: str, default: float = 0.0) -> float:
        try:
            return self[name]
        except UnknownResourceError:
            return default

    @property
    def memory_mb(self) -> float:
        """Memory dimension in the standard schema (hard constraint)."""
        return self[MEMORY]

    @property
    def cpu(self) -> float:
        """CPU points in the standard schema (soft constraint)."""
        return self[CPU]

    @property
    def bandwidth_mbps(self) -> float:
        """Bandwidth in the standard schema (soft constraint)."""
        return self[BANDWIDTH]

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(self._schema.names, self._values))

    def __cache_token__(self):
        """Stable token for the experiment cache
        (:func:`repro.experiments.cache.stable_token`): the full schema
        (dimensions are frozen dataclasses) plus the value tuple."""
        return (self._schema.dimensions, self._values)

    # -- arithmetic ---------------------------------------------------------

    def _check_schema(self, other: "ResourceVector") -> None:
        if self._schema is not other._schema and self._schema != other._schema:
            raise SchemaMismatchError(
                f"cannot combine vectors from schemas {self._schema!r} "
                f"and {other._schema!r}"
            )

    def _same_schema(self, values: Tuple[float, ...]) -> "ResourceVector":
        """A vector in this schema from ``values``, which must already be
        one float per dimension: skips ``__init__``'s conversion and
        length check, which elementwise results of two same-schema
        vectors always pass."""
        vector = object.__new__(ResourceVector)
        vector._schema = self._schema
        vector._values = values
        return vector

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        self._check_schema(other)
        return self._same_schema(
            tuple(a + b for a, b in zip(self._values, other._values))
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        self._check_schema(other)
        return self._same_schema(
            tuple(a - b for a, b in zip(self._values, other._values))
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            self._schema, tuple(v * float(factor) for v in self._values)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ResourceVector":
        return self * -1.0

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._schema == other._schema and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._schema, self._values))

    def dominates(self, other: "ResourceVector") -> bool:
        """True if every dimension of ``self`` is >= the same dimension of
        ``other`` (elementwise Pareto dominance)."""
        self._check_schema(other)
        return all(a >= b for a, b in zip(self._values, other._values))

    def satisfies_hard(self, demand: "ResourceVector") -> bool:
        """True if this *availability* vector covers the *demand* vector on
        every hard dimension (the paper's ``H_theta > H_tau`` guard).

        Soft dimensions are intentionally ignored: they may be
        over-committed.
        """
        self._check_schema(demand)
        values = self._values
        demand_values = demand._values
        for idx in self._schema.hard_indices:
            if values[idx] < demand_values[idx]:
                return False
        return True

    # -- distance helpers ----------------------------------------------------

    def gap(self, demand: "ResourceVector") -> "ResourceVector":
        """Availability minus demand, elementwise."""
        return self - demand

    def normalised_gap(
        self, demand: "ResourceVector", capacity: "ResourceVector"
    ) -> "ResourceVector":
        """``(self - demand) / capacity`` elementwise.

        Normalising by node capacity puts megabytes and CPU points on a
        comparable scale before the Euclidean distance is taken — the
        paper motivates its weight vector with exactly this normalisation
        concern.  Dimensions with zero capacity normalise to zero gap.
        """
        self._check_schema(demand)
        self._check_schema(capacity)
        out = []
        for avail, dem, cap in zip(
            self._values, demand._values, capacity._values
        ):
            out.append((avail - dem) / cap if cap > 0 else 0.0)
        return ResourceVector(self._schema, out)

    def total(self) -> float:
        """Sum of all components (a crude scalar "amount of resource",
        used to pick the rack/node with the most available resources)."""
        return sum(self._values)

    def normalised_total(self, capacity: "ResourceVector") -> float:
        """Sum of per-dimension availability fractions.

        Used by R-Storm's ref-node selection ("server rack with the most
        resources") where raw sums would be dominated by the memory
        dimension's large magnitude.
        """
        self._check_schema(capacity)
        score = 0.0
        for avail, cap in zip(self._values, capacity._values):
            if cap > 0:
                score += avail / cap
        return score

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={value:g}"
            for name, value in zip(self._schema.names, self._values)
        )
        return f"ResourceVector({parts})"
