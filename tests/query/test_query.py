"""Unit tests for Query: construction, refinement, matching, slices."""

import pytest

from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.query import Query, full_query, point_query, slice_query


class TestConstruction:
    def test_full_query_matches_everything(self, mixed_space):
        q = Query.full(mixed_space)
        assert q.matches((1, 1, -99, 2050))
        assert q.matches((3, 4, 0, 0))
        assert str(q) == "Query(*)"

    def test_kind_mismatch_rejected(self, mixed_space):
        q = Query.full(mixed_space)
        with pytest.raises(SchemaError):
            q.with_range(0, 1, 2)  # attribute 0 is categorical
        with pytest.raises(SchemaError):
            q.with_value(2, 1)  # attribute 2 is numeric

    def test_out_of_domain_value_rejected(self, mixed_space):
        for value in (0, 4):  # domain size 3
            with pytest.raises(SchemaError, match="outside the domain"):
                Query.full(mixed_space).with_value(0, value)

    def test_wrong_arity_rejected(self, mixed_space):
        with pytest.raises(SchemaError):
            Query(Query.full(mixed_space).predicates[:-1], mixed_space)


class TestTrustBoundary:
    """Derived queries check only the predicate they change."""

    def test_with_range_checks_its_own_extent(self, mixed_space):
        with pytest.raises(SchemaError, match="empty range"):
            Query.full(mixed_space).with_range(2, 5, 4)

    def test_a_crawl_validates_o1_queries(self, monkeypatch):
        """Full validation runs at the public constructor only."""
        from repro.crawl.hybrid import Hybrid
        from repro.datasets.nsf import nsf
        from repro.server.server import TopKServer

        validate = Query.__post_init__
        calls = []

        def counting(self):
            calls.append(1)
            validate(self)

        monkeypatch.setattr(Query, "__post_init__", counting)
        result = Hybrid(TopKServer(nsf(n=3000), k=64)).crawl()
        assert result.complete and result.cost > 100
        assert len(calls) <= 2


class TestRefinement:
    def test_with_value_and_wildcard(self, mixed_space):
        q = Query.full(mixed_space).with_value(0, 2)
        assert q.matches((2, 1, 0, 0))
        assert not q.matches((1, 1, 0, 0))
        assert q.with_value(0, None).matches((1, 1, 0, 0))

    def test_with_range(self, mixed_space):
        q = Query.full(mixed_space).with_range(2, 0, 10)
        assert q.matches((1, 1, 10, 5))
        assert not q.matches((1, 1, 11, 5))
        assert q.extent(2) == (0, 10)

    def test_extent_on_categorical_rejected(self, mixed_space):
        with pytest.raises(SchemaError):
            Query.full(mixed_space).extent(0)


class TestIdentity:
    def test_equality_is_structural(self, mixed_space):
        a = Query.full(mixed_space).with_value(0, 1).with_range(2, 0, 5)
        b = Query.full(mixed_space).with_range(2, 0, 5).with_value(0, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_inequality(self, mixed_space):
        a = Query.full(mixed_space).with_value(0, 1)
        b = Query.full(mixed_space).with_value(0, 2)
        assert a != b


class TestStateChecks:
    def test_is_exhausted(self, mixed_space):
        q = Query.full(mixed_space)
        assert not q.is_exhausted(0)
        assert q.with_value(0, 1).is_exhausted(0)
        assert not q.is_exhausted(2)
        assert q.with_range(2, 7, 7).is_exhausted(2)

    def test_is_point(self, mixed_space):
        q = (
            Query.full(mixed_space)
            .with_value(0, 1)
            .with_value(1, 2)
            .with_range(2, 5, 5)
            .with_range(3, 9, 9)
        )
        assert q.is_point()
        assert not q.with_range(3, 0, 9).is_point()

    def test_fixed_level(self, mixed_space):
        q = Query.full(mixed_space)
        assert q.fixed_level() == 0
        assert q.with_value(0, 1).fixed_level() == 1
        assert q.with_value(0, 1).with_value(1, 2).fixed_level() == 2
        # A gap in the prefix stops the level count.
        assert q.with_value(1, 2).fixed_level() == 0


class TestSliceQueries:
    def test_slice_query_shape(self, mixed_space):
        q = slice_query(mixed_space, 1, 3)
        assert q.is_slice() == (1, 3)
        assert q.matches((1, 3, 0, 0))
        assert not q.matches((1, 2, 0, 0))

    def test_slice_on_numeric_rejected(self, mixed_space):
        with pytest.raises(SchemaError):
            slice_query(mixed_space, 2, 5)

    def test_full_query_is_not_slice(self, mixed_space):
        assert full_query(mixed_space).is_slice() is None

    def test_two_pins_is_not_slice(self, mixed_space):
        q = Query.full(mixed_space).with_value(0, 1).with_value(1, 1)
        assert q.is_slice() is None

    def test_numeric_constraint_disqualifies_slice(self, mixed_space):
        q = slice_query(mixed_space, 0, 1).with_range(2, 0, 5)
        assert q.is_slice() is None


class TestPointQuery:
    def test_point_query(self, mixed_space):
        q = point_query(mixed_space, (2, 3, -5, 2020))
        assert q.is_point()
        assert q.matches((2, 3, -5, 2020))
        assert not q.matches((2, 3, -5, 2021))

    def test_point_query_validates(self, mixed_space):
        with pytest.raises(SchemaError):
            point_query(mixed_space, (0, 3, -5, 2020))


class TestStr:
    def test_str_shows_constraints(self, mixed_space):
        q = Query.full(mixed_space).with_value(0, 2).with_range(2, 0, 10)
        text = str(q)
        assert "make=2" in text
        assert "price in [0, 10]" in text
        assert "body" not in text


class TestNumericSpaceQueries:
    def test_unbounded_extent(self):
        space = DataSpace.numeric(1)
        q = Query.full(space)
        assert q.extent(0) == (None, None)
        assert not q.is_exhausted(0)
