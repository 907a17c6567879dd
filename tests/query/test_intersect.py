"""Query intersection tests: semantics, algebra, emptiness detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.query import Query
from tests.conftest import small_spaces


@pytest.fixture
def space():
    return DataSpace.mixed([("c", 5)], ["v"])


class TestSemantics:
    def test_full_query_is_identity(self, space):
        q = Query.full(space).with_value(0, 2).with_range(1, 0, 10)
        assert q.intersect(Query.full(space)) == q
        assert Query.full(space).intersect(q) == q

    def test_equalities_agree(self, space):
        a = Query.full(space).with_value(0, 3)
        assert a.intersect(a) == a

    def test_equalities_conflict(self, space):
        a = Query.full(space).with_value(0, 3)
        b = Query.full(space).with_value(0, 4)
        assert a.intersect(b) is None

    def test_ranges_overlap(self, space):
        a = Query.full(space).with_range(1, 0, 10)
        b = Query.full(space).with_range(1, 5, 20)
        merged = a.intersect(b)
        assert merged is not None
        assert merged.extent(1) == (5, 10)

    def test_ranges_disjoint(self, space):
        a = Query.full(space).with_range(1, 0, 4)
        b = Query.full(space).with_range(1, 5, 9)
        assert a.intersect(b) is None

    def test_half_open_ranges(self, space):
        a = Query.full(space).with_range(1, None, 10)
        b = Query.full(space).with_range(1, 5, None)
        merged = a.intersect(b)
        assert merged is not None and merged.extent(1) == (5, 10)

    def test_touching_ranges_keep_single_point(self, space):
        a = Query.full(space).with_range(1, 0, 5)
        b = Query.full(space).with_range(1, 5, 9)
        merged = a.intersect(b)
        assert merged is not None and merged.extent(1) == (5, 5)

    def test_different_spaces_rejected(self, space):
        other = DataSpace.mixed([("c", 5)], ["w"])
        with pytest.raises(SchemaError):
            Query.full(space).intersect(Query.full(other))


class TestAlgebra:
    @given(space=small_spaces(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_intersection_matches_conjunction(self, space, data):
        """p in (a ^ b) iff p in a and p in b, checked pointwise."""

        def random_query(label):
            q = Query.full(space)
            for i, attr in enumerate(space):
                if attr.is_categorical:
                    v = data.draw(
                        st.one_of(st.none(), st.integers(1, attr.domain_size)),
                        label=f"{label}-v{i}",
                    )
                    if v is not None:
                        q = q.with_value(i, v)
                else:
                    lo = data.draw(
                        st.one_of(st.none(), st.integers(-6, 6)),
                        label=f"{label}-lo{i}",
                    )
                    hi = data.draw(
                        st.one_of(st.none(), st.integers(-6, 6)),
                        label=f"{label}-hi{i}",
                    )
                    if lo is not None and hi is not None and lo > hi:
                        lo, hi = hi, lo
                    if lo is not None or hi is not None:
                        q = q.with_range(i, lo, hi)
            return q

        a, b = random_query("a"), random_query("b")
        merged = a.intersect(b)
        if merged is not None:
            # Built without re-validation, yet exactly what the public
            # constructor accepts.
            assert Query(merged.predicates, space) == merged
        # Sample the lattice of small points.
        points = []
        for i, attr in enumerate(space):
            if attr.is_categorical:
                points.append(range(1, attr.domain_size + 1))
            else:
                points.append(range(-7, 8))
        import itertools

        some_points = itertools.islice(itertools.product(*points), 400)
        for p in some_points:
            both = a.matches(p) and b.matches(p)
            if merged is None:
                assert not both
            else:
                assert merged.matches(p) == both

    @given(space=small_spaces())
    @settings(max_examples=20, deadline=None)
    def test_commutative_on_full_and_self(self, space):
        q = Query.full(space)
        assert q.intersect(q) == q
