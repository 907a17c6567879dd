"""The simulated hidden-database server (paper Section 1.1 and 6).

The authors evaluated their algorithms against a local re-implementation
of the web interface: "we implemented a local server to run our
algorithms.  Our implementation conforms strictly to the problem setup
in Section 1.1 ... each tuple is assigned a random priority, so that if
a query overflows, always the k tuples with the highest priorities are
returned."  :class:`TopKServer` is that server.

Determinism is the crucial property: issuing the same query twice yields
the same response ("repeating the same query may not retrieve new
tuples"), which is why naive re-querying cannot crawl a hidden database
and why client-side memoisation is free.

The server is safe for concurrent callers (one server shared by several
crawl sessions, as :mod:`repro.crawl.parallel` allows): the tuple matrix
is immutable, the engines' lazy indexes are built under a lock, limit
admission is atomic, and :class:`~repro.server.stats.QueryStats`
recording is atomic -- so concurrent ``run()`` calls return exactly what
sequential calls would, and the workload counters stay exact.
"""

from __future__ import annotations

import copy
import threading
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.query import Query
from repro.server import profiling
from repro.server.engines import make_engine
from repro.server.limits import QueryLimit
from repro.server.response import QueryResponse
from repro.server.stats import QueryStats, StatsDelta

__all__ = ["TopKServer"]


def _column_major_take(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rows[order]`` gathered straight into one column-major buffer.

    The vector engine reads its matrix by column.  ``rows[order]``
    would return a row-major copy that the engine then copies again;
    gathering one column at a time fills the final buffer directly.
    ``mode="clip"`` lets :func:`numpy.take` write into the column
    in place (the default mode buffers its output); ``order`` is a
    permutation, so nothing is ever clipped.
    """
    matrix = np.empty(rows.shape, dtype=rows.dtype, order="F")
    for j in range(rows.shape[1]):
        np.take(rows[:, j], order, out=matrix[:, j], mode="clip")
    return matrix


class TopKServer:
    """A hidden database behind a top-``k`` query interface.

    Parameters
    ----------
    dataset:
        The hidden content.  Crawler code must never touch it; it is
        exposed (as :attr:`dataset`) for verification harnesses only.
    k:
        The retrieval limit: the maximum number of tuples returned per
        query (e.g. 1000 for Yahoo! Autos at the time of the paper).
    priority_seed:
        Seed for the random tuple priorities used to pick which ``k``
        tuples an overflowing query returns.
    priorities:
        Explicit priorities (higher wins), overriding the seeded ones.
        The worked-example tests use this to reproduce the exact server
        responses of the paper's Figures 3-6.
    engine:
        ``"vector"`` (default: a column-major numpy engine that
        narrows one row-id array per query, the fastest on crawl
        traffic), ``"linear"`` (reference scan) or ``"indexed"``
        (per-column binary-search indexes, for queries that a single
        predicate makes selective).
    limits:
        Admission controls (budgets, daily quotas) consulted before each
        query is answered.
    """

    def __init__(
        self,
        dataset: Dataset,
        k: int,
        *,
        priority_seed: int = 0,
        priorities: Sequence[float] | None = None,
        engine: str = "vector",
        limits: Iterable[QueryLimit] = (),
    ):
        if k < 1:
            raise SchemaError(f"k must be at least 1, got {k}")
        self._dataset = dataset
        self._k = k
        if priorities is None:
            rng = np.random.default_rng(priority_seed)
            priority_array = rng.permutation(dataset.n).astype(np.float64)
        else:
            priority_array = np.asarray(priorities, dtype=np.float64)
            if priority_array.shape != (dataset.n,):
                raise SchemaError(
                    f"expected {dataset.n} priorities, got "
                    f"{priority_array.shape}"
                )
        # Stable sort by descending priority; ties broken by row index.
        order = np.argsort(-priority_array, kind="stable")
        if engine == "vector":
            matrix = _column_major_take(dataset.rows, order)
        else:
            matrix = dataset.rows[order]
        self._engine = make_engine(engine, matrix)
        self._limits = tuple(limits)
        self._stats = QueryStats()
        # Per-thread batched-evaluation context (see batch_context()).
        self._batch = threading.local()

    # ------------------------------------------------------------------
    # The public interface a crawler may rely on
    # ------------------------------------------------------------------
    @property
    def space(self) -> DataSpace:
        """The data space; its schema is public (the search form)."""
        return self._dataset.space

    @property
    def k(self) -> int:
        """The retrieval limit, assumed known to the crawler."""
        return self._k

    def run(self, query: Query) -> QueryResponse:
        """Answer one query, per the Section 1.1 contract.

        Raises
        ------
        QueryBudgetExhausted
            When an attached limit refuses the query.  The query is then
            *not* answered and not counted.
        """
        if query.space != self._dataset.space:
            raise SchemaError("query was built against a different data space")
        # Lean admission: the common unlimited server skips the loop
        # setup entirely -- no admission locks touched per query.
        if self._limits:
            for limit in self._limits:
                limit.admit()
        batch = self._batch
        evaluator = getattr(batch, "evaluator", None) or self._engine
        prof = profiling.active()
        if prof is None:
            rows, overflow = evaluator.top(query, self._k)
        else:
            start = profiling.clock()
            rows, overflow = evaluator.top(query, self._k)
            prof.record("server.engine_top", profiling.clock() - start)
        response = QueryResponse(tuple(rows), overflow)
        delta = getattr(batch, "stats_delta", None)
        if delta is not None:
            # Inside a batch epoch: buffer unlocked, merge at epoch end.
            delta.record_counts(
                overflow, len(response.rows), self._stats._phase
            )
        else:
            self._stats.record(response)
        return response

    @contextmanager
    def batch_context(self) -> Iterator[None]:
        """Share engine work across the :meth:`run` calls of one batch.

        Inside the ``with`` block, this thread's ``run()`` calls
        evaluate through one :class:`~repro.server.engines.BatchTopK`
        context, so sibling queries reuse per-(attribute, predicate)
        masks/candidate sets, and stats recording is buffered into an
        unlocked :class:`~repro.server.stats.StatsDelta` that merges
        atomically when the epoch closes -- one lock acquisition per
        battery instead of one per query.  Everything else about
        ``run`` -- admission order, responses, exceptions -- is
        untouched, and every observation point outside the epoch sees
        exactly the counters per-query recording would have produced,
        which is what keeps batched evaluation byte-identical to
        sequential calls.  The context is thread-local (concurrent
        sessions on other threads are unaffected) and re-entrant (a
        nested epoch joins the outer one).  What the context's
        ``carry_over()`` returns starts the thread's next epoch, so
        one crawl's consecutive batteries can share work too.
        """
        batch = self._batch
        if getattr(batch, "evaluator", None) is not None:
            yield  # nested epoch: keep the outer context
            return
        evaluator = getattr(batch, "kept", None) or self._engine.batch()
        batch.evaluator = evaluator
        delta = batch.stats_delta = StatsDelta()
        try:
            yield
        finally:
            batch.kept = evaluator.carry_over()
            batch.evaluator = None
            batch.stats_delta = None
            delta.flush_into(self._stats)

    def run_batch(self, queries: Sequence[Query]) -> list[QueryResponse]:
        """Answer a vector of sibling queries in one call.

        Exactly equivalent to ``[self.run(q) for q in queries]`` --
        per-query admission, per-query stats recording, identical
        responses, and a limit refusal raises at the same query it
        would have sequentially -- but the engine evaluates the batch
        through one shared context.

        Examples
        --------
        >>> from repro import DataSpace, TopKServer
        >>> from repro.datasets import random_dataset
        >>> from repro.query import slice_query
        >>> space = DataSpace.mixed([("color", 3)], [])
        >>> server = TopKServer(random_dataset(space, 30, seed=1), k=50)
        >>> responses = server.run_batch(
        ...     [slice_query(space, 0, value) for value in (1, 2, 3)]
        ... )
        >>> sum(len(r.rows) for r in responses)
        30
        >>> server.stats.queries
        3
        """
        with self.batch_context():
            return [self.run(query) for query in queries]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_batch"]  # threading.local does not pickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._batch = threading.local()

    def with_accounting(self, *, limits: Iterable[QueryLimit]) -> "TopKServer":
        """A shallow clone admitting against ``limits`` instead.

        The clone shares the (immutable) dataset and engine, and the
        stats, with the original.  This is the rewiring seam of the
        shared-state control plane (:mod:`repro.crawl.coordinator`):
        before a server ships to a process pool, its limits are
        replaced by shared proxies so every worker charges the one
        authoritative copy.
        """
        clone = copy.copy(self)
        # A shallow copy would share the thread-local batch state; give
        # the clone its own so an epoch on one never buffers (or
        # flushes) stats through the other.
        clone._batch = threading.local()
        clone._limits = tuple(limits)
        return clone

    # ------------------------------------------------------------------
    # Operator-side introspection (not available to crawlers)
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        """The hidden content -- for verification harnesses only."""
        return self._dataset

    @property
    def stats(self) -> QueryStats:
        """Server-side workload counters (the provider's burden)."""
        return self._stats

    def __repr__(self) -> str:
        return (
            f"TopKServer(n={self._dataset.n}, k={self._k}, "
            f"kind={self._dataset.space.kind.value})"
        )
