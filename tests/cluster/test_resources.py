"""Unit and property tests for resource vectors and schemas."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import (
    BANDWIDTH,
    CPU,
    MEMORY,
    ConstraintKind,
    ResourceDimension,
    ResourceSchema,
    ResourceVector,
)
from repro.errors import SchemaMismatchError, UnknownResourceError


def vec(m=0.0, c=0.0, b=0.0):
    return ResourceVector.of(memory_mb=m, cpu=c, bandwidth_mbps=b)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = st.builds(vec, finite, finite, finite)
nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
nonneg_vectors = st.builds(vec, nonneg, nonneg, nonneg)


class TestSchema:
    def test_storm_default_has_three_dimensions(self):
        schema = ResourceSchema.storm_default()
        assert schema.names == (MEMORY, CPU, BANDWIDTH)

    def test_storm_default_is_cached(self):
        assert ResourceSchema.storm_default() is ResourceSchema.storm_default()

    def test_memory_is_hard(self):
        schema = ResourceSchema.storm_default()
        assert schema.dimension(MEMORY).is_hard
        assert schema.hard_names == (MEMORY,)

    def test_cpu_and_bandwidth_are_soft(self):
        schema = ResourceSchema.storm_default()
        assert schema.dimension(CPU).kind is ConstraintKind.SOFT
        assert schema.dimension(BANDWIDTH).kind is ConstraintKind.SOFT

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            ResourceSchema([])

    def test_duplicate_dimension_rejected(self):
        dim = ResourceDimension("x", ConstraintKind.SOFT)
        with pytest.raises(ValueError):
            ResourceSchema([dim, dim])

    @pytest.mark.parametrize(
        "weight", [-2.0, -1e-12, float("nan"), float("inf")]
    )
    def test_bad_default_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="default_weight"):
            ResourceDimension("gpu", ConstraintKind.HARD, default_weight=weight)

    def test_zero_default_weight_accepted(self):
        dim = ResourceDimension("gpu", ConstraintKind.HARD, default_weight=0.0)
        assert dim.default_weight == 0.0

    def test_index_of_unknown_raises(self):
        with pytest.raises(UnknownResourceError):
            ResourceSchema.storm_default().index_of("gpus")

    def test_vector_factory_rejects_unknown_dims(self):
        with pytest.raises(UnknownResourceError):
            ResourceSchema.storm_default().vector(gpus=1.0)

    def test_zero_vector(self):
        zero = ResourceSchema.storm_default().zero()
        assert zero.values == (0.0, 0.0, 0.0)

    def test_custom_schema_generalises(self):
        schema = ResourceSchema(
            [
                ResourceDimension("memory_mb", ConstraintKind.HARD, "MB"),
                ResourceDimension("cpu", ConstraintKind.SOFT),
                ResourceDimension("gpu", ConstraintKind.HARD),
                ResourceDimension("bandwidth_mbps", ConstraintKind.SOFT),
            ]
        )
        assert len(schema) == 4
        assert schema.hard_names == ("memory_mb", "gpu")

    def test_schema_equality_and_hash(self):
        a = ResourceSchema.storm_default()
        b = ResourceSchema(list(a.dimensions))
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_yields_dimensions(self):
        names = [d.name for d in ResourceSchema.storm_default()]
        assert names == [MEMORY, CPU, BANDWIDTH]


class TestVectorBasics:
    def test_of_constructor_and_accessors(self):
        v = vec(1024, 50, 10)
        assert v.memory_mb == 1024
        assert v.cpu == 50
        assert v.bandwidth_mbps == 10

    def test_getitem_by_name(self):
        v = vec(1, 2, 3)
        assert v[MEMORY] == 1
        assert v[CPU] == 2

    def test_get_with_default(self):
        assert vec(1, 2, 3).get("gpus", 7.0) == 7.0

    def test_as_dict(self):
        assert vec(1, 2, 3).as_dict() == {
            MEMORY: 1.0,
            CPU: 2.0,
            BANDWIDTH: 3.0,
        }

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(ResourceSchema.storm_default(), (1.0, 2.0))

    def test_equality(self):
        assert vec(1, 2, 3) == vec(1, 2, 3)
        assert vec(1, 2, 3) != vec(1, 2, 4)

    def test_hashable(self):
        assert len({vec(1, 2, 3), vec(1, 2, 3), vec(0, 0, 0)}) == 2

    def test_repr_contains_values(self):
        assert "memory_mb=1024" in repr(vec(1024, 0, 0))


class TestVectorArithmetic:
    def test_add(self):
        assert vec(1, 2, 3) + vec(4, 5, 6) == vec(5, 7, 9)

    def test_sub_can_go_negative(self):
        result = vec(1, 2, 3) - vec(4, 5, 6)
        assert result == vec(-3, -3, -3)

    def test_scalar_multiplication(self):
        assert vec(1, 2, 3) * 2 == vec(2, 4, 6)
        assert 2 * vec(1, 2, 3) == vec(2, 4, 6)

    def test_negation(self):
        assert -vec(1, 2, 3) == vec(-1, -2, -3)

    def test_mixed_schema_rejected(self):
        other = ResourceSchema(
            [ResourceDimension("x", ConstraintKind.SOFT)]
        ).vector(x=1.0)
        with pytest.raises(SchemaMismatchError):
            vec(1, 2, 3) + other

    @given(vectors, vectors)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors)
    def test_subtraction_inverts_addition(self, a, b):
        result = (a + b) - b
        for got, expected in zip(result.values, a.values):
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6)


class TestConstraints:
    def test_satisfies_hard_checks_memory_only(self):
        availability = vec(1000, 0, 0)
        demand = vec(999, 500, 500)  # huge soft demand is fine
        assert availability.satisfies_hard(demand)

    def test_satisfies_hard_fails_on_memory(self):
        assert not vec(100, 100, 100).satisfies_hard(vec(101, 0, 0))

    def test_dominates_checks_every_dimension(self):
        assert vec(2, 2, 2).dominates(vec(1, 2, 2))
        assert not vec(2, 2, 2).dominates(vec(1, 3, 2))

    @given(nonneg_vectors, nonneg_vectors)
    def test_dominates_implies_satisfies_hard(self, avail, demand):
        if avail.dominates(demand):
            assert avail.satisfies_hard(demand)

    @given(nonneg_vectors)
    def test_vector_dominates_itself(self, v):
        assert v.dominates(v)

    @given(nonneg_vectors, nonneg_vectors, nonneg_vectors)
    def test_dominates_is_transitive(self, a, b, c):
        if a.dominates(b) and b.dominates(c):
            assert a.dominates(c)


class TestDistanceHelpers:
    def test_gap(self):
        assert vec(10, 10, 10).gap(vec(4, 5, 6)) == vec(6, 5, 4)

    def test_normalised_gap(self):
        capacity = vec(100, 100, 100)
        got = vec(50, 50, 50).normalised_gap(vec(25, 0, 50), capacity)
        assert got == vec(0.25, 0.5, 0.0)

    def test_normalised_gap_zero_capacity_dimension(self):
        capacity = vec(100, 0, 100)
        got = vec(50, 50, 50).normalised_gap(vec(0, 0, 0), capacity)
        assert got[CPU] == 0.0

    def test_total(self):
        assert vec(1, 2, 3).total() == 6.0

    def test_normalised_total(self):
        capacity = vec(100, 200, 0)
        assert vec(50, 100, 7).normalised_total(capacity) == pytest.approx(1.0)
