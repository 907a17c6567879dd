"""Queries: conjunctions of one predicate per attribute.

A :class:`Query` is the unit of cost in Problem 1.  It is an immutable,
hashable value whose identity is its predicate vector, so structurally
identical queries -- no matter which algorithm built them -- hit the same
entry of the client-side response cache.

The module also implements the geometric operations of the paper:

* 2-way and 3-way *splits* of a numeric extent (Section 2.1, Figure 2),
  the atomic refinement steps of ``binary-shrink`` and ``rank-shrink``;
* *slice queries* ``Ai = c`` with wildcards elsewhere (Section 3.2), the
  building blocks of ``slice-cover``;
* the level-wise refinement of the categorical *data space tree*
  (Section 3.1): a node at level ``l`` pins attributes ``A1 .. Al``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.dataspace.attribute import Attribute
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.predicates import EqualityPredicate, Predicate, RangePredicate

__all__ = ["Query", "full_query", "slice_query", "point_query"]


@dataclass(frozen=True)
class Query:
    """One query against the hidden database's interface.

    Equality and hashing consider only the predicate vector, so queries
    built independently by different algorithms (or by re-runs of the
    same algorithm) coincide in the response cache.  The ``space`` field
    is carried for validation and pretty-printing.  The constructor
    checks every predicate; derived queries check only what they change.
    """

    predicates: tuple[Predicate, ...]
    space: DataSpace = field(compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.predicates) != self.space.dimensionality:
            raise SchemaError(
                f"query has {len(self.predicates)} predicates, space has "
                f"{self.space.dimensionality} attributes"
            )
        for i, pred in enumerate(self.predicates):
            attr = self.space[i]
            if attr.is_categorical and not isinstance(pred, EqualityPredicate):
                raise SchemaError(
                    f"attribute {attr.name!r} is categorical; it only "
                    "supports equality/wildcard predicates"
                )
            if attr.is_numeric and not isinstance(pred, RangePredicate):
                raise SchemaError(
                    f"attribute {attr.name!r} is numeric; it only supports "
                    "range predicates"
                )
            if isinstance(pred, EqualityPredicate):
                _check_domain(attr, pred.value)
        # Queries are hashed on every cache probe of the hot path; the
        # predicate-vector hash is immutable, so pay for it once here.
        object.__setattr__(self, "_hash", hash(self.predicates))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, space: DataSpace) -> "Query":
        """The all-wildcard query covering the entire data space."""
        preds: list[Predicate] = []
        for attr in space:
            if attr.is_categorical:
                preds.append(EqualityPredicate(None))
            else:
                preds.append(RangePredicate(None, None))
        return _trusted(tuple(preds), space)

    def with_value(self, index: int, value: int | None) -> "Query":
        """Refine a categorical attribute to ``value`` (``None`` = wildcard).

        >>> Query.full(DataSpace.categorical([3, 4])).with_value(1, 5)
        Traceback (most recent call last):
        ...
        repro.exceptions.SchemaError: value 5 outside the domain of 'A2'
        """
        attr = self.space[index]
        if not attr.is_categorical:
            raise SchemaError(f"{attr.name!r} is numeric; use with_range")
        _check_domain(attr, value)
        preds = list(self.predicates)
        preds[index] = EqualityPredicate(value)
        return _trusted(tuple(preds), self.space)

    def with_range(
        self, index: int, lo: int | None, hi: int | None
    ) -> "Query":
        """Refine a numeric attribute's extent to ``[lo, hi]``."""
        attr = self.space[index]
        if not attr.is_numeric:
            raise SchemaError(f"{attr.name!r} is categorical; use with_value")
        preds = list(self.predicates)
        preds[index] = RangePredicate(lo, hi)
        return _trusted(tuple(preds), self.space)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def predicate(self, index: int) -> Predicate:
        """The predicate on attribute ``index``."""
        return self.predicates[index]

    def extent(self, index: int) -> tuple[int | None, int | None]:
        """``(lo, hi)`` extent on a numeric attribute."""
        pred = self.predicates[index]
        if not isinstance(pred, RangePredicate):
            raise SchemaError(
                f"attribute {self.space[index].name!r} has no range extent"
            )
        return pred.lo, pred.hi

    def is_exhausted(self, index: int) -> bool:
        """Whether the attribute is pinned to a single value on this query."""
        return self.predicates[index].is_point

    def is_point(self) -> bool:
        """Whether the query has degenerated into a single point of D."""
        return all(p.is_point for p in self.predicates)

    def matches(self, row: Sequence[int]) -> bool:
        """Whether a tuple satisfies every predicate of the query."""
        for pred, value in zip(self.predicates, row):
            if not pred.matches(value):
                return False
        return True

    def fixed_level(self) -> int:
        """Length of the pinned categorical prefix (data-space-tree level).

        A node of the data space tree at level ``l`` pins ``A1 .. Al`` and
        leaves every later categorical attribute wildcarded (Section 3.1).
        """
        level = 0
        for i in range(self.space.cat):
            pred = self.predicates[i]
            assert isinstance(pred, EqualityPredicate)
            if pred.is_wildcard:
                break
            level += 1
        return level

    def is_slice(self) -> tuple[int, int] | None:
        """If this is a slice query ``Ai = c``, return ``(i, c)``.

        A slice query pins exactly one categorical attribute and leaves
        everything else unconstrained (Section 3.2).
        """
        pinned: tuple[int, int] | None = None
        for i, pred in enumerate(self.predicates):
            if isinstance(pred, EqualityPredicate):
                if pred.value is None:
                    continue
                if pinned is not None:
                    return None
                pinned = (i, pred.value)
            else:
                if not pred.is_unconstrained:
                    return None
        return pinned

    def intersect(self, other: "Query") -> "Query | None":
        """The query matching exactly the tuples both queries match.

        Returns ``None`` when the conjunction is unsatisfiable (two
        different equality constants, or ranges with an empty overlap).
        Used by :class:`repro.crawl.partition.SubspaceView` to confine
        a crawler to one region of the data space.
        """
        if other.space != self.space:
            raise SchemaError(
                "cannot intersect queries over different data spaces"
            )
        merged: list[Predicate] = []
        for mine, theirs in zip(self.predicates, other.predicates):
            if isinstance(mine, EqualityPredicate):
                assert isinstance(theirs, EqualityPredicate)
                if mine.value is None:
                    merged.append(theirs)
                elif theirs.value is None or theirs.value == mine.value:
                    merged.append(mine)
                else:
                    return None
            else:
                assert isinstance(theirs, RangePredicate)
                lo = (
                    mine.lo
                    if theirs.lo is None
                    else (
                        theirs.lo
                        if mine.lo is None
                        else max(mine.lo, theirs.lo)
                    )
                )
                hi = (
                    mine.hi
                    if theirs.hi is None
                    else (
                        theirs.hi
                        if mine.hi is None
                        else min(mine.hi, theirs.hi)
                    )
                )
                if lo is not None and hi is not None and lo > hi:
                    return None
                merged.append(RangePredicate(lo, hi))
        return _trusted(tuple(merged), self.space)

    # ------------------------------------------------------------------
    # Splits (paper Section 2.1, Figure 2)
    # ------------------------------------------------------------------
    def split_2way(self, index: int, x: int) -> tuple["Query", "Query"]:
        """2-way split of the extent on attribute ``index`` at value ``x``.

        Produces ``q_left`` with extent ``[lo, x - 1]`` and ``q_right``
        with extent ``[x, hi]``; all other predicates are inherited.
        ``x`` must lie strictly above the extent's lower end, otherwise
        the left part would be empty.
        """
        lo, hi = self.extent(index)
        if lo is not None and x <= lo:
            raise SchemaError(f"2-way split at {x} <= lower end {lo}")
        if hi is not None and x > hi:
            raise SchemaError(f"2-way split at {x} > upper end {hi}")
        return (
            self.with_range(index, lo, x - 1),
            self.with_range(index, x, hi),
        )

    def split_3way(
        self, index: int, x: int
    ) -> tuple["Query | None", "Query", "Query | None"]:
        """3-way split at ``x``: ``[lo, x-1]``, ``[x, x]``, ``[x+1, hi]``.

        When ``x`` sits on an end of the extent the corresponding side
        would have a meaningless extent and is returned as ``None``, as
        prescribed in Section 2.2 ("we simply discard qleft (resp.
        qright)").
        """
        lo, hi = self.extent(index)
        if (lo is not None and x < lo) or (hi is not None and x > hi):
            raise SchemaError(
                f"3-way split at {x} outside extent [{lo}, {hi}]"
            )
        left = (
            None
            if lo is not None and x == lo
            else self.with_range(index, lo, x - 1)
        )
        mid = self.with_range(index, x, x)
        right = (
            None
            if hi is not None and x == hi
            else self.with_range(index, x + 1, hi)
        )
        return left, mid, right

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = []
        for attr, pred in zip(self.space, self.predicates):
            if isinstance(pred, EqualityPredicate):
                if not pred.is_wildcard:
                    parts.append(f"{attr.name}{pred}")
            elif not pred.is_unconstrained:
                parts.append(f"{attr.name} in {pred}")
        return "Query(" + (", ".join(parts) if parts else "*") + ")"


def _check_domain(attr: Attribute, value: int | None) -> None:
    if value is not None and not attr.contains(value):
        raise SchemaError(f"value {value} outside the domain of {attr.name!r}")


def _trusted(predicates: tuple[Predicate, ...], space: DataSpace) -> Query:
    """A query derived from a valid one, whose changes the caller checked."""
    query = object.__new__(Query)
    object.__setattr__(query, "predicates", predicates)
    object.__setattr__(query, "space", space)
    object.__setattr__(query, "_hash", hash(predicates))
    return query


def full_query(space: DataSpace) -> Query:
    """Module-level alias of :meth:`Query.full`."""
    return Query.full(space)


def slice_query(space: DataSpace, index: int, value: int) -> Query:
    """The slice query ``A_index = value`` with wildcards elsewhere."""
    attr = space[index]
    if not attr.is_categorical:
        raise SchemaError(
            f"slice queries are defined on categorical attributes; "
            f"{attr.name!r} is numeric"
        )
    return Query.full(space).with_value(index, value)


def point_query(space: DataSpace, point: Sequence[int]) -> Query:
    """The query pinning every attribute to the coordinates of ``point``."""
    validated = space.validate_point(point)
    q = Query.full(space)
    for i, value in enumerate(validated):
        if space[i].is_categorical:
            q = q.with_value(i, value)
        else:
            q = q.with_range(i, value, value)
    return q
