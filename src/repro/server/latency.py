"""Simulated network latency in front of a query source.

The simulated :class:`~repro.server.server.TopKServer` answers in
microseconds, but a real hidden database sits across the network: each
query is a round trip, and round trips -- not CPU -- dominate a crawl's
wall clock.  :class:`LatencySource` models that by sleeping a fixed
interval before forwarding each query, which is what makes the
sequential-vs-parallel comparison in
``benchmarks/bench_parallel_partitioned.py`` honest: worker threads
overlap the waits exactly as they would overlap real round trips.

The wrapper is stateless apart from its configuration, hence trivially
thread-safe, picklable whenever the wrapped source is, and transparent
to crawlers (it forwards ``space`` and ``k`` like
:class:`~repro.crawl.partition.SubspaceView` does).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.query.query import Query
from repro.server.response import QueryResponse

__all__ = ["LatencySource"]


class LatencySource:
    """Delay every forwarded query by a fixed round-trip time.

    Parameters
    ----------
    source:
        Any query source (server, client, view) exposing ``space``,
        ``k`` and ``run``.
    seconds:
        Simulated round-trip time per query.  Applied *before*
        forwarding, so a refused query (quota exception) still pays the
        trip, exactly like a real request that gets a 429 back.
    """

    def __init__(self, source, seconds: float):
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._source = source
        self._seconds = seconds

    @property
    def space(self):
        """The underlying data space; the wrapper is transparent."""
        return self._source.space

    @property
    def k(self) -> int:
        """The underlying retrieval limit."""
        return self._source.k

    @property
    def seconds(self) -> float:
        """The simulated round-trip time."""
        return self._seconds

    def run(self, query: Query) -> QueryResponse:
        """Sleep one round trip, then forward ``query``."""
        if self._seconds:
            time.sleep(self._seconds)
        return self._source.run(query)

    def batch_context(self):
        """Delegate the batch seam; latency applies per query regardless."""
        inner = getattr(self._source, "batch_context", None)
        if inner is None:
            return nullcontext()
        return inner()

    def __repr__(self) -> str:
        return f"LatencySource({self._source!r}, seconds={self._seconds})"
