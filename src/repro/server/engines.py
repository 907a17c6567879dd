"""Query-evaluation engines backing the simulated hidden-database server.

The server stores its tuples sorted by descending priority; an engine's
single job is, given a query and the limit ``k``, to find the first
``k`` matching tuples in that order and report whether more exist.

Two interchangeable implementations are provided:

* :class:`LinearScanEngine` -- the obviously correct reference: walk the
  rows in priority order, stop at the ``k+1``-st match.  Used in tests
  as ground truth.
* :class:`VectorEngine` -- the default, for the paper-scale experiments
  (tens of thousands of tuples, tens of thousands of queries).  Its
  column-major matrix is filtered with numpy: a query with a selective
  equality narrows one ascending row-id array, predicate by predicate;
  any other query ANDs full-column masks.

Two hot-path mechanisms back them (profiled in ``docs/performance.md``):

* **Compiled predicate evaluation** -- the linear scan verifies rows
  through :func:`repro.query.compile_matcher`: one codegen pass per
  query instead of one predicate-method dispatch per row per attribute.
* **Cached row materialisation** -- the priority-ordered rows are
  converted from the numpy matrix to plain-int tuples once
  (:meth:`QueryEngine._rows`) instead of per response, so both engines
  return rows by list slicing or indexing.  The cache is derived data
  and is dropped from pickles.

Engines also expose a **batched top-k seam**: :meth:`QueryEngine.batch`
returns a :class:`BatchTopK` evaluation context whose per-query answers
are bit-identical to :meth:`QueryEngine.top`, but sibling queries (same
plan prefix, one varying attribute) share per-(attribute, predicate)
masks -- mirroring how lease batching amortised admission round
trips.  :meth:`QueryEngine.top_batch` answers a whole vector of
queries through one such context.

A property-based test (``tests/server/test_engines.py``) checks both
engines agree on arbitrary datasets and queries -- including under
concurrent ``top()`` calls and between batched and per-query
evaluation: engines hold no per-query mutable state, and the vector
engine's lazily built value index is guarded by a lock so racing
builders produce one consistent index.

Engines are picklable (the index lock is dropped and rebuilt; the
index and the row cache are derived data, trimmed from the pickle and
rebuilt lazily), so a whole server can be shipped to a process-pool
worker for CPU-bound crawls
(:class:`~repro.crawl.executors.ProcessExecutor`).  A column-major
matrix stays column-major through a pickle.
"""

from __future__ import annotations

import abc
import threading
from typing import Sequence

import numpy as np

from repro.query.predicates import (
    EqualityPredicate,
    RangePredicate,
    compile_matcher,
)
from repro.query.query import Query
from repro.server.pickling import LocklessPickle
from repro.server.response import Row

__all__ = [
    "QueryEngine",
    "BatchTopK",
    "LinearScanEngine",
    "VectorEngine",
    "make_engine",
]


class QueryEngine(abc.ABC):
    """Evaluates queries against a fixed priority-ordered tuple matrix."""

    def __init__(self, matrix: np.ndarray):
        if matrix.ndim != 2:
            raise ValueError("engine expects an (n, d) matrix")
        self._matrix = matrix
        self._rows_cache: list[Row] | None = None

    @property
    def n(self) -> int:
        """Number of tuples visible to the engine."""
        return int(self._matrix.shape[0])

    @abc.abstractmethod
    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        """First ``k`` matches in priority order and an overflow flag."""

    # ------------------------------------------------------------------
    # Batched top-k seam
    # ------------------------------------------------------------------
    def batch(self) -> "BatchTopK":
        """A fresh evaluation context for a vector of sibling queries.

        The context's :meth:`BatchTopK.top` answers exactly like
        :meth:`top`, but an engine with shareable per-predicate work
        (the vector engine's masks) reuses it across the queries
        evaluated through one context.  Contexts are cheap and not
        thread-safe; one serves one batch, and
        :meth:`BatchTopK.carry_over` says what its thread's next batch
        may start from.
        """
        return BatchTopK(self)

    def top_batch(
        self, queries: Sequence[Query], k: int
    ) -> list[tuple[list[Row], bool]]:
        """Answer a vector of queries in one call, sharing predicate work.

        Equivalent to ``[self.top(q, k) for q in queries]`` -- same
        rows, same order, same overflow flags -- but sibling queries
        evaluated together reuse per-(attribute, predicate) masks
        through one :meth:`batch` context.

        Examples
        --------
        >>> import numpy as np
        >>> from repro import DataSpace
        >>> from repro.query import slice_query
        >>> space = DataSpace.mixed([("color", 3)], [])
        >>> engine = VectorEngine(np.array([[1], [2], [2], [3]]))
        >>> queries = [slice_query(space, 0, value) for value in (1, 2, 3)]
        >>> engine.top_batch(queries, k=2)
        [([(1,)], False), ([(2,), (2,)], False), ([(3,)], False)]
        """
        evaluator = self.batch()
        return [evaluator.top(query, k) for query in queries]

    # ------------------------------------------------------------------
    # Row materialisation (cached, derived data)
    # ------------------------------------------------------------------
    def _rows(self) -> list[Row]:
        """The matrix as plain-int tuples in priority order (cached).

        Built lazily on first use; concurrent builders race benignly
        (both produce the identical list).  The cache never travels in
        pickles -- it is rebuilt on the other side on demand.
        """
        rows = self._rows_cache
        if rows is None:
            rows = [tuple(values) for values in self._matrix.tolist()]
            self._rows_cache = rows
        return rows

    def _row(self, i: int) -> Row:
        return self._rows()[i]

    # ------------------------------------------------------------------
    # Pickling: the row cache is derived data and must not travel.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_rows_cache"] = None
        return state

    def _pickle_trim(self, state: dict) -> dict:
        # Same policy for LocklessPickle subclasses (their __getstate__
        # routes through this hook instead).
        state["_rows_cache"] = None
        return state


class BatchTopK:
    """Evaluation context for answering a vector of sibling queries.

    The base context shares nothing -- it simply forwards to the
    engine's :meth:`~QueryEngine.top`, so answers are trivially
    identical to per-query evaluation; :class:`LinearScanEngine` uses
    it.  :class:`VectorEngine` returns a subclass that caches
    per-(attribute, predicate) masks across the queries of one
    context.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DataSpace
    >>> from repro.query import full_query
    >>> space = DataSpace.mixed([("color", 2)], [])
    >>> engine = LinearScanEngine(np.array([[1], [2]]))
    >>> context = engine.batch()
    >>> context.top(full_query(space), k=5)
    ([(1,), (2,)], False)
    """

    def __init__(self, engine: QueryEngine):
        self._engine = engine

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        """Answer one query of the batch (identical to ``engine.top``)."""
        return self._engine.top(query, k)

    def carry_over(self) -> "BatchTopK | None":
        """The context this thread's next batch may start from, if any.

        Consecutive batteries of one crawl share most predicates, so a
        context may carry cached work into the next batch: the vector
        engine's context carries its masks over.  The base context
        caches nothing and carries nothing, so every batch of the
        linear scan starts from a fresh one.
        """
        return None


class LinearScanEngine(QueryEngine):
    """Reference engine: compiled-conjunction scan in pure Python.

    Per query, :func:`repro.query.compile_matcher` emits one closure
    with the predicate constants inlined; the scan then walks the
    cached plain-int row tuples in priority order and stops at the
    ``k+1``-st match.  Semantics are the paper's reference evaluation
    -- only the per-row interpretation cost is gone.
    """

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        rows = self._rows()
        match = compile_matcher(query.predicates)
        if match is None:
            # The all-wildcard query: every tuple matches.
            return rows[:k], len(rows) > k
        out: list[Row] = []
        for row in rows:
            if match(row):
                if len(out) == k:
                    return out, True
                out.append(row)
        return out, False


class _VectorBatch(BatchTopK):
    """Vector-engine context: full-scan work shared across queries.

    ``masks`` holds full-column predicate masks by ``(attribute,
    predicate)``.  ``bases`` holds, keyed by a tuple of such pairs, the
    row ids matching every constrained predicate of a full-scan query
    but its last -- the part a battery's siblings share when they vary
    its deepest attribute.
    """

    def __init__(self, engine: "VectorEngine"):
        super().__init__(engine)
        self.masks: dict = {}
        self.bases: dict = {}
        self._mask_bytes = 0

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        return self._engine._top(query, k, self)  # noqa: SLF001

    def keep_mask(self, key: tuple, mask: np.ndarray) -> None:
        self.masks[key] = mask
        self._mask_bytes += mask.nbytes

    def carry_over(self) -> "_VectorBatch | None":
        # Bases belong to one battery.  Masks carry over -- sibling
        # batteries share the masks of their common prefix -- while
        # they total no more bytes than the engine's matrix.
        self.bases.clear()
        if self._mask_bytes > self._engine._matrix.nbytes:  # noqa: SLF001
            return None
        return self


class VectorEngine(LocklessPickle, QueryEngine):
    """Column-major numpy engine that narrows one row-id array per query.

    The matrix is stored column-major (Fortran order), so every
    per-attribute gather and full-column compare reads contiguous
    memory.

    A query whose smallest per-(attribute, value) row index -- built
    lazily, one per equality seen -- holds at most ``n /
    _INDEX_SELECTIVITY`` rows starts from that index's ascending row
    ids.  It narrows them by each other constrained predicate in turn:
    equalities in increasing index size, then ranges, stopping once no
    id is left.  Each step gathers one column at the surviving ids
    only, so wildcards cost nothing.  This is the crawls' dominant
    traffic: the hybrid's deep categorical prefixes pin up to 8
    attributes and rarely constrain a range.  Ascending row id is
    priority order, so the first ``k`` surviving ids are the answer.

    Range-only queries, and queries without such an equality, take the
    full scan: one boolean mask per constrained predicate over the
    whole column.  Batched evaluation (:meth:`~QueryEngine.batch`)
    shares that path's work.  Masks are cached by ``(attribute,
    predicate)`` and carry over to the thread's next batch, and the
    ids matching all of a query's constrained predicates but the last
    are computed once, so siblings that vary the deepest attribute
    each narrow a shared id array by one predicate.
    """

    #: Narrow from a value index only when it is this much smaller than
    #: the full matrix (otherwise full-column masks are cheaper).
    _INDEX_SELECTIVITY = 4

    _pickle_lock_attr = "_index_lock"

    def __init__(self, matrix: np.ndarray):
        # No copy when the matrix is column-major already.
        super().__init__(np.asfortranarray(matrix))
        self._value_index: dict[tuple[int, int], np.ndarray] = {}
        self._index_lock = threading.Lock()

    def _index_for(self, attribute: int, value: int) -> np.ndarray:
        key = (attribute, value)
        rows = self._value_index.get(key)
        if rows is None:
            with self._index_lock:
                rows = self._value_index.get(key)
                if rows is None:
                    rows = np.flatnonzero(self._matrix[:, attribute] == value)
                    self._value_index[key] = rows
        return rows

    def _pickle_trim(self, state: dict) -> dict:
        # Route through QueryEngine's trim explicitly: the MRO puts
        # LocklessPickle's no-op hook first, which silently shipped the
        # row-tuple cache.  The per-(attribute, value) row index is
        # derived data too, rebuilt lazily on first use; neither
        # belongs in a process payload.
        state = QueryEngine._pickle_trim(self, state)
        state["_value_index"] = {}
        return state

    def batch(self) -> BatchTopK:
        return _VectorBatch(self)

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        return self._top(query, k, None)

    def _top(
        self, query: Query, k: int, batch: _VectorBatch | None
    ) -> tuple[list[Row], bool]:
        constrained = []
        equalities = []
        for j, pred in enumerate(query.predicates):
            if isinstance(pred, EqualityPredicate):
                if pred.value is None:
                    continue
                index = self._index_for(j, pred.value)
                equalities.append((index, j, pred.value))
            elif pred.lo is None and pred.hi is None:
                continue
            constrained.append((j, pred))
        equalities.sort(key=lambda entry: entry[0].size)
        if (
            not equalities
            or equalities[0][0].size * self._INDEX_SELECTIVITY > self.n
        ):
            return self._top_full_scan(constrained, k, batch)
        # Narrow the smallest index's ascending row ids -- ascending id
        # is priority order -- by each other constrained predicate:
        # equalities in increasing index size, then ranges.  A step
        # gathers one contiguous column at the surviving ids only.
        ids = equalities[0][0]
        columns = self._matrix
        for _, j, value in equalities[1:]:
            if not ids.size:
                break
            ids = ids[columns[:, j].take(ids) == value]
        for j, pred in constrained:
            if ids.size and isinstance(pred, RangePredicate):
                column = columns[:, j].take(ids)
                ids = ids[self._predicate_mask(pred, column)]
        return self._first_k(ids, k)

    def _first_k(self, ids: np.ndarray, k: int) -> tuple[list[Row], bool]:
        """Rows of the first ``k`` ascending ``ids`` and the overflow flag."""
        rows = self._rows()
        return [rows[i] for i in ids[:k].tolist()], ids.size > k

    def _top_full_scan(
        self, constrained: list, k: int, batch: _VectorBatch | None
    ) -> tuple[list[Row], bool]:
        if not constrained:
            # The all-wildcard query: every tuple matches.
            return self._rows()[:k], self.n > k
        if batch is None or len(constrained) == 1:
            mask = self._mask(constrained, batch)
            return self._first_k(np.flatnonzero(mask), k)
        # In a batch, the ids matching all but the last predicate are
        # computed once from shared masks; each sibling then narrows
        # them by its last predicate alone.
        *shared, (j, pred) = constrained
        key = tuple(shared)
        ids = batch.bases.get(key)
        if ids is None:
            ids = np.flatnonzero(self._mask(shared, batch))
            batch.bases[key] = ids
        column = self._matrix[:, j].take(ids)
        return self._first_k(ids[self._predicate_mask(pred, column)], k)

    def _mask(self, constrained: list, batch: _VectorBatch | None):
        """Conjunction of the full-column masks of ``constrained``.

        In a ``batch``, each ``(attribute, predicate)`` mask is computed
        once per context.
        """
        mask = None
        for key in constrained:
            part = None if batch is None else batch.masks.get(key)
            if part is None:
                j, pred = key
                part = self._predicate_mask(pred, self._matrix[:, j])
                if batch is not None:
                    batch.keep_mask(key, part)
            mask = part if mask is None else mask & part
        return mask

    @staticmethod
    def _predicate_mask(pred, column: np.ndarray) -> np.ndarray:
        """Mask of the ``column`` values satisfying constrained ``pred``."""
        if isinstance(pred, EqualityPredicate):
            return column == pred.value
        if pred.lo is None:
            return column <= pred.hi
        if pred.hi is None:
            return column >= pred.lo
        if pred.lo == pred.hi:
            return column == pred.lo
        return (column >= pred.lo) & (column <= pred.hi)


def make_engine(name: str, matrix: np.ndarray) -> QueryEngine:
    """Engine factory: ``"linear"`` or ``"vector"`` (default)."""
    if name == "linear":
        return LinearScanEngine(matrix)
    if name == "vector":
        return VectorEngine(matrix)
    raise ValueError(f"unknown engine {name!r}; expected 'linear' or 'vector'")
