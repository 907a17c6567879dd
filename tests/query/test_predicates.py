"""Unit tests for range and equality predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SchemaError
from repro.query.predicates import EqualityPredicate, RangePredicate


class TestRangePredicate:
    def test_unconstrained(self):
        pred = RangePredicate()
        assert pred.is_unconstrained
        assert not pred.is_point
        assert pred.width is None
        assert pred.matches(-(10**12)) and pred.matches(10**12)

    def test_point(self):
        pred = RangePredicate(5, 5)
        assert pred.is_point
        assert pred.width == 1
        assert pred.matches(5)
        assert not pred.matches(4)

    def test_half_open(self):
        left = RangePredicate(None, 9)
        right = RangePredicate(10, None)
        assert left.matches(9) and not left.matches(10)
        assert right.matches(10) and not right.matches(9)
        assert left.width is None

    def test_empty_range_rejected(self):
        with pytest.raises(SchemaError):
            RangePredicate(3, 2)

    def test_clamp(self):
        pred = RangePredicate(None, None).clamp(0, 10)
        assert (pred.lo, pred.hi) == (0, 10)
        tighter = RangePredicate(2, 20).clamp(0, 10)
        assert (tighter.lo, tighter.hi) == (2, 10)
        keep = RangePredicate(2, 8).clamp(None, None)
        assert (keep.lo, keep.hi) == (2, 8)

    @given(
        lo=st.integers(-50, 50),
        width=st.integers(0, 20),
        v=st.integers(-100, 100),
    )
    def test_matches_consistent_with_interval(self, lo, width, v):
        pred = RangePredicate(lo, lo + width)
        assert pred.matches(v) == (lo <= v <= lo + width)

    def test_str(self):
        assert str(RangePredicate(None, 5)) == "[-inf, 5]"
        assert str(RangePredicate(1, None)) == "[1, +inf]"


class TestEqualityPredicate:
    def test_wildcard(self):
        pred = EqualityPredicate(None)
        assert pred.is_wildcard
        assert not pred.is_point
        assert pred.matches(1) and pred.matches(99)

    def test_constant(self):
        pred = EqualityPredicate(3)
        assert pred.is_point
        assert pred.matches(3)
        assert not pred.matches(2)

    def test_str(self):
        assert str(EqualityPredicate(None)) == "*"
        assert str(EqualityPredicate(7)) == "=7"

    def test_hashable_value_objects(self):
        assert EqualityPredicate(3) == EqualityPredicate(3)
        assert len({EqualityPredicate(3), EqualityPredicate(3)}) == 1
        assert RangePredicate(1, 2) == RangePredicate(1, 2)
        assert len({RangePredicate(1, 2), RangePredicate(1, 2)}) == 1


def interpreted(predicates, row):
    return all(pred.matches(v) for pred, v in zip(predicates, row))


predicate_strategy = st.one_of(
    st.builds(
        lambda v: EqualityPredicate(v),
        st.one_of(st.none(), st.integers(-20, 20)),
    ),
    st.builds(
        lambda lo, width: RangePredicate(
            lo, None if width is None else (lo or 0) + width
        ),
        st.one_of(st.none(), st.integers(-20, 20)),
        st.one_of(st.none(), st.integers(0, 15)),
    ),
)


class TestCompiledPredicates:
    """The codegen path answers exactly like predicate-method dispatch."""

    def test_unconstrained_compiles_to_none(self):
        from repro.query.predicates import compile_matcher, compile_predicate

        assert compile_predicate(RangePredicate()) is None
        assert compile_predicate(EqualityPredicate(None)) is None
        preds = [RangePredicate(), EqualityPredicate(None)]
        assert compile_matcher(preds) is None

    def test_point_and_half_open_shapes(self):
        from repro.query.predicates import compile_predicate

        assert compile_predicate(RangePredicate(2, 2))(2)
        assert not compile_predicate(RangePredicate(2, 2))(3)
        assert compile_predicate(RangePredicate(None, 9))(9)
        assert not compile_predicate(RangePredicate(10, None))(9)
        assert compile_predicate(EqualityPredicate(4))(4)

    def test_skip_drops_one_attribute(self):
        # A wildcard attribute is skipped: the conjunction never reads it.
        from repro.query.predicates import compile_matcher

        preds = [EqualityPredicate(None), EqualityPredicate(2)]
        match = compile_matcher(preds)
        assert match((99, 2)) and not match((1, 3))
        match = compile_matcher([RangePredicate(), EqualityPredicate(2)])
        assert match(("not read", 2))

    @given(pred=predicate_strategy, v=st.integers(-60, 60))
    def test_compile_predicate_agrees_with_matches(self, pred, v):
        from repro.query.predicates import compile_predicate

        compiled = compile_predicate(pred)
        if compiled is None:
            assert pred.matches(v)
        else:
            assert compiled(v) == pred.matches(v)

    @given(
        preds=st.lists(predicate_strategy, min_size=1, max_size=4),
        data=st.data(),
    )
    def test_compile_matcher_agrees_with_interpreted(self, preds, data):
        from repro.query.predicates import compile_matcher

        row = tuple(
            data.draw(st.integers(-60, 60)) for _ in range(len(preds))
        )
        match = compile_matcher(preds)
        if match is None:
            assert interpreted(preds, row)
        else:
            assert match(row) == interpreted(preds, row)

    @given(
        preds=st.lists(predicate_strategy, min_size=1, max_size=4),
        data=st.data(),
    )
    def test_skip_equals_interpreting_without_that_attribute(
        self, preds, data
    ):
        # Widening one attribute to its wildcard skips that attribute.
        from repro.query.predicates import compile_matcher

        skip = data.draw(st.integers(0, len(preds) - 1))
        row = tuple(
            data.draw(st.integers(-60, 60)) for _ in range(len(preds))
        )
        expected = all(
            pred.matches(v)
            for i, (pred, v) in enumerate(zip(preds, row))
            if i != skip
        )
        widened = list(preds)
        widened[skip] = (
            EqualityPredicate(None)
            if isinstance(preds[skip], EqualityPredicate)
            else RangePredicate()
        )
        match = compile_matcher(widened)
        if match is None:
            assert expected
        else:
            assert match(row) == expected
