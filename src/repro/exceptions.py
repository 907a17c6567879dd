"""Exception hierarchy for the hidden-database crawling library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the interesting cases:

* :class:`SchemaError` -- a data space, query, or dataset is malformed.
* :class:`InfeasibleCrawlError` -- the crawl provably cannot finish
  because some point of the data space holds more than ``k`` identical
  tuples (Problem 1 of the paper has no solution then; see Section 1.1).
* :class:`QueryBudgetExhausted` -- a query limit configured on the server
  or client was hit; the crawl may be resumed after the limit resets.
* :class:`AlgorithmInvariantError` -- an internal sanity check failed
  (for instance, a crawler exceeded its configured ``max_queries``); this
  always indicates a bug, never a property of the input.
* :class:`WorkerDeparted` -- a fleet worker left a running crawl; its
  in-flight work is re-queued, never lost (see
  :mod:`repro.crawl.rebalance`).
* :class:`RetryAfter` -- a service admission bound refused a submission;
  the job was *not* enqueued and may be resubmitted once the tenant's
  pending queue drains (see :mod:`repro.service.jobs`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "UnboundedDomainError",
    "InfeasibleCrawlError",
    "QueryBudgetExhausted",
    "AlgorithmInvariantError",
    "WorkerDeparted",
    "RetryAfter",
    "WebProtocolError",
]


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class SchemaError(ReproError, ValueError):
    """A data space, attribute, query or dataset violates the data model.

    Raised, for example, when a categorical value lies outside its
    domain ``[1, U]``, when a range predicate is applied to a categorical
    attribute, or when a mixed data space does not list its categorical
    attributes first (the paper's convention in Section 1.1).
    """


class UnboundedDomainError(SchemaError):
    """An operation needs finite attribute bounds but none are known.

    The ``binary-shrink`` baseline halves attribute extents, so it must
    know each numeric attribute's ``[lo, hi]`` bounds; its cost depends on
    the domain size, which is exactly the weakness Section 2.1 of the
    paper points out.  ``rank-shrink`` has no such requirement.
    """


class InfeasibleCrawlError(ReproError, RuntimeError):
    """The hidden database cannot be extracted in full.

    Problem 1 requires that no point of the data space holds more than
    ``k`` tuples: with ``k + 1`` identical tuples the server may forever
    withhold one of them.  Crawlers raise this error the moment they
    observe the proof -- a *point query* (every attribute pinned to a
    single value) that still overflows.  This mirrors the paper's remark
    that the Yahoo! Autos dataset cannot be crawled at ``k = 64`` because
    it contains more than 64 identical tuples (Section 6, Figure 12).
    """

    def __init__(self, message: str, *, point: tuple[int, ...] | None = None):
        super().__init__(message)
        #: The offending point of the data space, when known.
        self.point = point


class QueryBudgetExhausted(ReproError, RuntimeError):
    """A query budget or rate limit refused to admit another query.

    Attributes
    ----------
    issued:
        Number of queries admitted before the refusal.
    """

    def __init__(self, message: str, *, issued: int = 0):
        super().__init__(message)
        self.issued = issued


class AlgorithmInvariantError(ReproError, AssertionError):
    """An internal invariant of an algorithm was violated.

    Tests configure crawlers with ``max_queries`` derived from the
    Theorem 1 upper bounds; exceeding the cap means the implementation no
    longer enjoys its proven guarantee, and we fail loudly rather than
    loop.
    """


class WorkerDeparted(ReproError, RuntimeError):
    """A fleet worker left a running crawl (shutdown, preemption, kill).

    Raised *through* a worker's unit of work -- e.g. by a query source
    whose identity was revoked, or injected by a fault-tolerance
    harness -- to signal that the worker is gone, not that the unit is
    bad.  The stealing loop and the job service's fleet react by
    re-queueing the in-flight unit on the scheduler
    (:meth:`~repro.crawl.rebalance.WorkStealingScheduler.requeue`) and
    flushing the worker's unreturned lease headroom, so a
    departure costs wall-clock time only -- the crawl still completes
    with full sequential parity and exact budget accounting.
    """


class RetryAfter(ReproError, RuntimeError):
    """A tenant's pending-job queue is full; the submission was refused.

    The refusal is *clean*: nothing was enqueued, no budget was charged,
    and no store row was written.  Callers should wait for the tenant's
    queue to drain (``JobManager.wait_for_slot``) and resubmit.

    Attributes
    ----------
    tenant:
        The tenant whose bound refused the submission, when known.
    depth:
        Number of jobs pending or running for the tenant at refusal time.
    bound:
        The configured per-tenant admission bound.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        depth: int = 0,
        bound: int = 0,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.depth = depth
        self.bound = bound


class WebProtocolError(ReproError, RuntimeError):
    """The simulated web interface returned something unusable.

    Raised by the :mod:`repro.web` layer when a request is malformed
    (unknown parameter, non-integer value, inverted range) or when a
    page cannot be parsed back into structured data (missing search
    form, missing results table).  Carries the HTTP-like status code of
    the offending exchange when one applies.
    """

    def __init__(self, message: str, *, status: int | None = None):
        super().__init__(message)
        #: HTTP-like status code of the failed exchange, when known.
        self.status = status
