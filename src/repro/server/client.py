"""Client-side query layer: memoisation and cost accounting.

Because the server answers a repeated query identically (Section 1.1),
any sensible crawler caches responses locally -- re-consulting a cached
answer costs nothing.  :class:`CachingClient` makes this explicit:

* :meth:`CachingClient.run` sends a query to the server only on a cache
  miss; the *cost* of a crawl is the number of misses.
* :meth:`CachingClient.peek` consults the cache without ever issuing a
  query -- this is exactly the "lookup table" of slice-cover (Section
  3.2): preprocessing runs every slice query once, and extended-DFS later
  answers tree queries locally from those responses.

The client also powers resumable crawls: crawler algorithms are
deterministic, so re-running one over a warmed cache replays the prefix
of its query sequence for free and continues where the budget cut it
off (see ``examples/budgeted_crawl.py``).

The client is safe to share between threads: :meth:`CachingClient.run`
holds an internal lock across the miss path, so a query is issued to
the server *exactly once* no matter how many threads race on it --
concurrent duplicates are answered from the cache at zero cost, and
the cost accounting stays exact.  (Queries through one client are
therefore serialised; concurrent crawl *sessions* each use their own
client, as in :mod:`repro.crawl.executors`.)

A client (cache, history, stats and all) is also picklable, so it can
be shipped to a process-pool worker: the lock is rebuilt on load and
listeners, which may close over arbitrary state, are dropped
(:class:`~repro.crawl.executors.ProcessExecutor` documents the copy
semantics).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.exceptions import QueryBudgetExhausted
from repro.query.query import Query
from repro.server import profiling
from repro.server.limits import SimulatedClock
from repro.server.pickling import LocklessPickle
from repro.server.response import QueryResponse
from repro.server.server import TopKServer
from repro.server.stats import QueryStats, StatsDelta

__all__ = ["CachingClient", "PatientClient"]


class CachingClient(LocklessPickle):
    """Memoising front-end to a :class:`TopKServer`.

    Parameters
    ----------
    server:
        The hidden-database server to crawl.
    """

    def __init__(self, server: TopKServer):
        self._server = server
        self._cache: dict[Query, QueryResponse] = {}
        self._history: list[Query] = []
        self._listeners: list[Callable[[Query, QueryResponse], None]] = []
        self._stats = QueryStats()
        # Unlocked stats buffer of the active batch epoch, or None (the
        # common case); see batch().
        self._delta: StatsDelta | None = None
        # Held across the miss path so a query reaches the server at
        # most once even when threads race on the same cold query.
        self._lock = threading.RLock()

    def _pickle_lock(self):
        # The miss path is re-entrant for listeners that issue queries.
        return threading.RLock()

    def _pickle_trim(self, state: dict) -> dict:
        # Listeners are arbitrary closures; they do not survive the
        # trip (the cache and accounting do).  A mid-epoch pickle (not
        # a supported pattern) must not carry the buffer either.
        state["_listeners"] = []
        state["_delta"] = None
        return state

    # ------------------------------------------------------------------
    # Interface facts a crawler may rely on
    # ------------------------------------------------------------------
    @property
    def space(self):
        """The data space of the underlying server."""
        return self._server.space

    @property
    def k(self) -> int:
        """The server's retrieval limit."""
        return self._server.k

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def run(self, query: Query) -> QueryResponse:
        """Answer ``query``, issuing it to the server only once ever."""
        cached = self._cache.get(query)
        if cached is not None:
            prof = profiling.active()
            if prof is not None:
                prof.count("client.cache_hit")
            return cached
        with self._lock:
            cached = self._cache.get(query)
            if cached is not None:
                prof = profiling.active()
                if prof is not None:
                    prof.count("client.cache_hit")
                return cached
            prof = profiling.active()
            if prof is None:
                response = self._server.run(query)
            else:
                prof.count("client.cache_miss")
                start = profiling.clock()
                response = self._server.run(query)
                prof.record("client.server_wait", profiling.clock() - start)
            self._cache[query] = response
            self._history.append(query)
            delta = self._delta
            if delta is not None:
                # Inside a batch epoch: buffer unlocked, merge at the
                # epoch boundary (batch() holds the client lock, so
                # only this thread can reach the miss path).
                delta.record_counts(
                    response.overflow, len(response.rows), self._stats._phase
                )
            else:
                self._stats.record(response)
            for listener in self._listeners:
                listener(query, response)
        return response

    @contextmanager
    def batch(self) -> Iterator[None]:
        """One batch epoch: shared engine context, batched accounting.

        Inside the ``with`` block this thread holds the client lock
        once for the whole battery, the underlying server (when it is
        one) shares engine work across the misses through
        :meth:`~repro.server.server.TopKServer.batch_context`, and
        stats recording is buffered into a
        :class:`~repro.server.stats.StatsDelta` merged atomically when
        the epoch closes.  Sources without a batch seam (web sessions,
        adversaries, subspace views over them) get the identical epoch
        semantics minus the engine sharing, so accounting, profiling
        phases and exception points never depend on the source kind.
        Re-entrant: a nested epoch joins the outer one.
        """
        with self._lock:
            if self._delta is not None:
                yield  # nested epoch: keep the outer buffer
                return
            delta = StatsDelta()
            self._delta = delta
            batch_context = getattr(self._server, "batch_context", None)
            try:
                if batch_context is None:
                    yield
                else:
                    with batch_context():
                        yield
            finally:
                self._delta = None
                delta.flush_into(self._stats)

    def run_batch(self, queries: list[Query]) -> list[QueryResponse]:
        """Answer a vector of sibling queries, sharing engine work.

        Exactly equivalent to ``[self.run(q) for q in queries]`` --
        every cache probe, history append, stats recording and listener
        call happens per query, in order, so cost accounting and budget
        exhaustion behave identically -- but the batch runs under one
        :meth:`batch` epoch: the misses of the batch evaluate through
        one shared server context, and accounting merges once at the
        epoch boundary.  Sources without a server batch seam take the
        identical path minus the engine sharing, so ``--profile``
        tables match between batched and looped runs on every source.

        Examples
        --------
        >>> from repro import CachingClient, DataSpace, TopKServer
        >>> from repro.datasets import random_dataset
        >>> from repro.query import slice_query
        >>> space = DataSpace.mixed([("color", 3)], [])
        >>> client = CachingClient(
        ...     TopKServer(random_dataset(space, 30, seed=1), k=50)
        ... )
        >>> queries = [slice_query(space, 0, value) for value in (1, 2, 3)]
        >>> responses = client.run_batch(queries)
        >>> client.cost, client.run_batch(queries) == responses
        (3, True)
        """
        with self.batch():
            return [self.run(query) for query in queries]

    def peek(self, query: Query) -> QueryResponse | None:
        """The cached response for ``query``, or ``None`` -- never a query."""
        return self._cache.get(query)

    def _store_local(self, query: Query, response: QueryResponse) -> None:
        """Insert a locally-derived response (zero cost) into the cache.

        Used by subclasses that can answer some queries without the
        server -- e.g. the Section 1.3 attribute-dependency heuristic,
        which knows certain queries cover no valid point.
        """
        self._cache[query] = response

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def cost(self) -> int:
        """Number of distinct queries issued so far (the Problem 1 cost).

        Exact inside a batch epoch too: the epoch's unlocked buffer is
        added to the merged counters, so per-query cost deltas (the
        crawler's progress accounting) read identically with batching
        on or off.
        """
        # Read the merged counter first: the epoch clears the buffer
        # reference before merging, so this order can transiently lag
        # for a concurrent reader but never over-count.
        queries = self._stats.queries
        delta = self._delta
        return queries + (delta.queries if delta is not None else 0)

    @property
    def history(self) -> tuple[Query, ...]:
        """The issued queries, in order (cache hits excluded)."""
        return tuple(self._history)

    @property
    def stats(self) -> QueryStats:
        """Breakdown of issued queries (resolved/overflow, phases)."""
        return self._stats

    def begin_phase(self, name: str) -> None:
        """Attribute subsequent misses to a named cost phase."""
        self._stats.begin_phase(name)

    def end_phase(self) -> None:
        """Close the current cost phase."""
        self._stats.end_phase()

    def add_listener(
        self, listener: Callable[[Query, QueryResponse], None]
    ) -> None:
        """Register a callback invoked after every cache miss."""
        self._listeners.append(listener)

    def __repr__(self) -> str:
        return f"CachingClient(cost={self.cost}, cached={len(self._cache)})"


class PatientClient(CachingClient):
    """A client that sleeps through quota refusals and continues.

    Real hidden-database servers meter queries per identity per day;
    the paper's answer is to minimise the query count, and the
    deployment's answer to the remainder is patience: when a query is
    refused, sleep to the next day and re-issue it.  Because crawlers
    are deterministic and responses are cached, nothing is lost across
    the gap -- the crawl simply continues where the quota cut it off.

    Works over any refusal source that raises
    :class:`QueryBudgetExhausted`: a server-side
    :class:`~repro.server.limits.DailyRateLimit`, or an HTTP 429 from a
    :class:`~repro.web.adapter.WebSession`.

    Parameters
    ----------
    server:
        The query source (server, adversary, web session).
    clock:
        The simulated clock shared with the server's daily limits.
    max_days:
        Refuse to sleep more than this many times (``None`` = no cap);
        exceeding it re-raises the :class:`QueryBudgetExhausted`.
    """

    def __init__(
        self,
        server: TopKServer,
        clock: SimulatedClock,
        *,
        max_days: int | None = None,
    ):
        super().__init__(server)
        self._clock = clock
        self._max_days = max_days
        self._days_slept = 0

    @property
    def days_slept(self) -> int:
        """How many day boundaries the client has waited across."""
        return self._days_slept

    def run(self, query: Query) -> QueryResponse:
        """Answer ``query``, sleeping to the next day on refusals."""
        while True:
            try:
                return super().run(query)
            except QueryBudgetExhausted:
                if (
                    self._max_days is not None
                    and self._days_slept >= self._max_days
                ):
                    raise
                self._clock.sleep_until_next_day()
                self._days_slept += 1
