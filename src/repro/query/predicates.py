"""Per-attribute predicates of the hidden-database query interface.

Section 1.1 of the paper fixes the interface: a query carries exactly one
predicate per attribute --

* on a numeric attribute, a range condition ``Ai in [x, y]``; we model
  half-open infinities with ``None`` endpoints, so ``RangePredicate(None,
  None)`` is the unconstrained predicate ``Ai in (-inf, +inf)``;
* on a categorical attribute, an equality ``Ai = x`` where ``x`` is a
  domain value or the wildcard ``*``; ``EqualityPredicate(None)`` is the
  wildcard.

Predicates are immutable, hashable value objects, which lets whole
queries serve as cache keys in :class:`repro.server.client.CachingClient`
(the paper's "lookup table" for slice queries falls out of that cache).

Two evaluation paths coexist:

* :meth:`RangePredicate.matches` / :meth:`EqualityPredicate.matches` --
  the *interpreted* reference semantics, one method dispatch per value;
* :func:`compile_predicate` / :func:`compile_matcher` -- the hot-path
  twins: one compilation pass turns a predicate (or a whole predicate
  vector) into a specialised closure, so a scan over thousands of rows
  pays the interpretation cost once instead of once per row.  A
  hypothesis property (``tests/query/test_predicates.py``) pins the
  compiled forms to the interpreted ones on arbitrary inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import SchemaError

__all__ = [
    "RangePredicate",
    "EqualityPredicate",
    "Predicate",
    "compile_predicate",
    "compile_matcher",
]


@dataclass(frozen=True, slots=True)
class RangePredicate:
    """``Ai in [lo, hi]`` on a numeric attribute; ``None`` = unbounded."""

    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise SchemaError(f"empty range [{self.lo}, {self.hi}]")

    # ------------------------------------------------------------------
    @property
    def is_unconstrained(self) -> bool:
        """Whether the predicate admits every integer."""
        return self.lo is None and self.hi is None

    @property
    def is_point(self) -> bool:
        """Whether the extent covers exactly one value (attribute exhausted).

        The paper calls an attribute *exhausted on q* when q's extent on
        it has shrunk to a single value (Section 2.1).
        """
        return self.lo is not None and self.lo == self.hi

    @property
    def width(self) -> int | None:
        """Number of admitted integers, or ``None`` when unbounded."""
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo + 1

    def matches(self, value: int) -> bool:
        """Whether ``value`` satisfies the range condition."""
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def clamp(self, lo: int | None, hi: int | None) -> "RangePredicate":
        """Intersect with another extent (used to seed bounded crawls)."""
        new_lo = (
            self.lo
            if lo is None
            else (lo if self.lo is None else max(lo, self.lo))
        )
        new_hi = (
            self.hi
            if hi is None
            else (hi if self.hi is None else min(hi, self.hi))
        )
        return RangePredicate(new_lo, new_hi)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


@dataclass(frozen=True, slots=True)
class EqualityPredicate:
    """``Ai = value`` on a categorical attribute; ``None`` = wildcard ``*``."""

    value: int | None = None

    @property
    def is_wildcard(self) -> bool:
        """Whether the predicate is ``Ai = *`` (admits every domain value)."""
        return self.value is None

    @property
    def is_point(self) -> bool:
        """Whether the attribute is pinned to a single value."""
        return self.value is not None

    def matches(self, value: int) -> bool:
        """Whether ``value`` satisfies the equality condition."""
        return self.value is None or value == self.value

    def __str__(self) -> str:
        return "*" if self.value is None else f"={self.value}"


#: A query predicate: a range on numeric or an (in)equality on categorical.
Predicate = RangePredicate | EqualityPredicate


def compile_predicate(pred: Predicate) -> Callable[[int], bool] | None:
    """Compile one predicate into a specialised value test.

    Returns ``None`` when the predicate is unconstrained (a wildcard
    equality or a fully unbounded range) -- the caller can then skip
    the test entirely, which is the whole point: the shape of the
    predicate is inspected **once**, not once per row.  Otherwise the
    returned closure agrees with :meth:`~RangePredicate.matches` on
    every integer (pinned by a hypothesis property in
    ``tests/query/test_predicates.py``).

    Examples
    --------
    >>> from repro.query import RangePredicate, EqualityPredicate, compile_predicate
    >>> test = compile_predicate(RangePredicate(2, 5))
    >>> [test(v) for v in (1, 2, 5, 6)]
    [False, True, True, False]
    >>> compile_predicate(EqualityPredicate(None)) is None
    True
    """
    if isinstance(pred, EqualityPredicate):
        if pred.value is None:
            return None
        want = int(pred.value)
        return lambda v: v == want
    lo, hi = pred.lo, pred.hi
    if lo is None and hi is None:
        return None
    if lo is None:
        top = int(hi)  # type: ignore[arg-type]
        return lambda v: v <= top
    if hi is None:
        bot = int(lo)
        return lambda v: v >= bot
    if lo == hi:
        want = int(lo)
        return lambda v: v == want
    bot, top = int(lo), int(hi)
    return lambda v: bot <= v <= top


def compile_matcher(
    predicates: Sequence[Predicate],
) -> Callable[[Sequence[int]], bool] | None:
    """Compile a predicate vector into one row-matching closure.

    This is the hot-path replacement for evaluating
    ``all(pred.matches(row[i]) for i, pred in enumerate(predicates))``
    per row: a single code-generation pass emits one conjunction with
    the constants inlined (e.g. ``lambda r: 1 <= r[0] <= 5 and
    r[2] == 3``), so a scan over the whole table dispatches **zero**
    predicate methods.  Unconstrained predicates are dropped from the
    conjunction.  Returns ``None`` when nothing remains to test --
    i.e. every row matches.  The reference
    :class:`repro.server.engines.LinearScanEngine` scans with it.

    Examples
    --------
    >>> from repro.query import RangePredicate, EqualityPredicate, compile_matcher
    >>> match = compile_matcher((RangePredicate(1, 5), EqualityPredicate(3)))
    >>> match((2, 3)), match((2, 4)), match((0, 3))
    (True, False, False)
    >>> compile_matcher((RangePredicate(), EqualityPredicate(None))) is None
    True
    """
    parts: list[str] = []
    for i, pred in enumerate(predicates):
        if isinstance(pred, EqualityPredicate):
            if pred.value is not None:
                parts.append(f"r[{i}] == {int(pred.value)}")
            continue
        lo, hi = pred.lo, pred.hi
        if lo is not None and hi is not None:
            if lo == hi:
                parts.append(f"r[{i}] == {int(lo)}")
            else:
                parts.append(f"{int(lo)} <= r[{i}] <= {int(hi)}")
        elif lo is not None:
            parts.append(f"r[{i}] >= {int(lo)}")
        elif hi is not None:
            parts.append(f"r[{i}] <= {int(hi)}")
    if not parts:
        return None
    return eval(  # noqa: S307 -- source built solely from int() constants
        "lambda r: " + " and ".join(parts), {"__builtins__": {}}
    )
