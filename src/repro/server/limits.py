"""Query limits: budgets and per-day quotas.

The paper motivates the cost metric with the observation that "most
systems have a control on how many queries can be submitted by the same
IP address within a period of time (e.g., a day)".  This module models
those controls so the examples can demonstrate budgeted, resumable
crawls:

* :class:`QueryBudget` -- a hard cap on total queries.
* :class:`DailyRateLimit` -- at most ``per_day`` queries per simulated
  day; combined with :class:`SimulatedClock`, a crawl can sleep to the
  next day and resume (the deterministic algorithms plus the response
  cache make resumption free).

All limits (and the clock) are thread-safe: admission is atomic, so
concurrent crawl sessions sharing one limit can never over-admit --
exactly ``per_day`` (or ``max_queries``) admissions succeed no matter
how many threads race on :meth:`QueryLimit.admit`.

Limits and the clock are also picklable (the lock is dropped and
rebuilt), so a limited server can be shipped to a process-pool worker.
Note the semantics of a plain pickled copy: each worker process admits
against its own *copy* of the limit -- cross-process admission is not
shared.  When admission must be globally exact across a process pool,
:mod:`repro.crawl.coordinator` moves the authoritative limit into a
coordinator process and hands the workers
:class:`~repro.crawl.coordinator.SharedLimitClient` proxies instead
(the process executor does exactly that whenever its sources carry
limits).

Every limit (and the clock) exposes ``state()`` / ``restore_state()``
-- a plain-dict snapshot of its counters -- which is how the
coordinator seeds its authoritative copy from a local object and
writes the final counts back after a crawl.

Leasing
-------
``admit()`` charges one query per call -- the right granularity in
process, and one *coordinator round trip* per query when the limit is
authoritative in a control-plane process.  :meth:`QueryLimit.lease`
amortises that: it admits up to ``n`` queries in one atomic call and
returns a :class:`LimitLease` the caller consumes locally
(:meth:`LimitLease.take`), returning whatever went unused via
:meth:`QueryLimit.release` when its unit of work completes.  Accounting
stays exact: a crawl that completes within its limits charges exactly
the queries it issued (leased-but-unused units come back), and a limit
that *refuses* a lease is terminally exhausted -- it reads fully
charged and later releases are void, exactly the state per-query
admission would have left it in.  :class:`QueryBudget` implements real
chunked leasing; limits without a natural chunk semantics (e.g. a
:class:`DailyRateLimit`, whose quota resets under the lessee's feet at
day boundaries) inherit the safe per-query default.
"""

from __future__ import annotations

import abc
import threading

from repro.exceptions import QueryBudgetExhausted
from repro.server.pickling import LocklessPickle

__all__ = [
    "QueryLimit",
    "LimitLease",
    "QueryBudget",
    "DailyRateLimit",
    "SimulatedClock",
]


class LimitLease:
    """A chunk of pre-admitted queries held locally by one client.

    Produced by :meth:`QueryLimit.lease`: ``granted`` queries are
    already charged against the limit, so the holder may issue that
    many without consulting it again -- :meth:`take` consumes one unit
    locally.  Whatever stays :attr:`unused` must go back through
    :meth:`QueryLimit.release` when the holder's unit of work ends, so
    the limit's counters read exactly the queries actually issued.

    Examples
    --------
    >>> budget = QueryBudget(10)
    >>> lease = budget.lease(4)
    >>> lease.take(), lease.take()
    (True, True)
    >>> budget.release(lease)   # 2 unused units flow back
    >>> budget.used
    2
    """

    __slots__ = ("granted", "consumed")

    def __init__(self, granted: int):
        self.granted = int(granted)
        self.consumed = 0

    @property
    def unused(self) -> int:
        """Units still held: granted but not consumed."""
        return self.granted - self.consumed

    def take(self) -> bool:
        """Consume one unit locally; ``False`` when the lease is dry."""
        if self.consumed >= self.granted:
            return False
        self.consumed += 1
        return True

    def __repr__(self) -> str:
        return f"LimitLease(granted={self.granted}, used={self.consumed})"


class QueryLimit(abc.ABC):
    """Admission control consulted by the server before each query."""

    @abc.abstractmethod
    def admit(self) -> None:
        """Account for one query, raising :class:`QueryBudgetExhausted`
        if it may not be issued."""

    def lease(self, n: int) -> LimitLease:
        """Admit up to ``n`` queries in one call; raise when none fit.

        The default implementation admits exactly one query per call
        (a degenerate lease), which keeps any :class:`QueryLimit`
        subclass correct under a leasing client at per-query
        granularity; limits with a safe chunk semantics override this
        (see :meth:`QueryBudget.lease`).
        """
        if n < 1:
            raise ValueError(f"lease size must be positive, got {n}")
        self.admit()
        return LimitLease(1)

    def release(self, lease: LimitLease) -> None:
        """Return a lease's unused units.  Default: nothing to return
        (the degenerate one-query lease is consumed by definition).
        Always idempotent: a released lease reads fully consumed, so a
        second release (an explicit call plus a finally-block flush)
        returns nothing twice."""
        lease.consumed = lease.granted


class QueryBudget(LocklessPickle, QueryLimit):
    """A hard cap on the total number of queries.

    >>> budget = QueryBudget(2)
    >>> budget.admit(); budget.admit()
    >>> budget.remaining
    0
    """

    def __init__(self, max_queries: int):
        if max_queries < 0:
            raise ValueError("max_queries must be non-negative")
        self._max = max_queries
        self._used = 0
        # Once an admission or lease has been *refused*, the budget is
        # terminally exhausted: releases of leased-but-unused units are
        # void, so it keeps reading fully charged -- exactly the state
        # per-query admission leaves behind.  refill() re-opens it.
        self._refused = False
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        """How many more queries the budget admits."""
        with self._lock:
            return self._max - self._used

    @property
    def used(self) -> int:
        """How many queries the budget has admitted."""
        with self._lock:
            return self._used

    def admit(self) -> None:
        with self._lock:
            if self._used >= self._max:
                self._refused = True
                raise QueryBudgetExhausted(
                    f"query budget of {self._max} exhausted", issued=self._used
                )
            self._used += 1

    def lease(self, n: int) -> LimitLease:
        """Atomically admit up to ``n`` queries as one chunk.

        Grants ``min(n, remaining)`` units (charged immediately) and
        raises :class:`~repro.exceptions.QueryBudgetExhausted` -- with
        the budget fully charged -- when nothing remains.  The one call
        replaces up to ``n`` :meth:`admit` round trips when the budget
        is authoritative in a coordinator process (see
        :class:`~repro.crawl.coordinator.SharedLimitClient`).
        """
        if n < 1:
            raise ValueError(f"lease size must be positive, got {n}")
        with self._lock:
            granted = min(n, self._max - self._used)
            if granted <= 0:
                self._refused = True
                raise QueryBudgetExhausted(
                    f"query budget of {self._max} exhausted", issued=self._used
                )
            self._used += granted
            return LimitLease(granted)

    def release(self, lease: LimitLease) -> None:
        """Return a lease's unused units to the budget.

        Idempotent (the lease reads fully consumed afterwards, so a
        double release returns nothing twice) and void once the budget
        has refused an admission (it is then terminally exhausted and
        keeps reading fully charged; see ``__init__``).
        """
        unused = lease.unused
        lease.consumed = lease.granted
        if unused <= 0:
            return
        with self._lock:
            if self._refused:
                return
            self._used = max(0, self._used - unused)

    def refill(self, extra: int) -> None:
        """Grow the budget (e.g. the operator raised the quota)."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        with self._lock:
            self._max += extra
            self._refused = False

    def state(self) -> dict:
        """A plain-dict snapshot of the budget's counters.

        Carries the terminal ``refused`` flag, so a snapshot of an
        exhausted budget restores with its void-release semantics
        intact -- and restoring a healthy snapshot clears it.
        """
        with self._lock:
            return {
                "max_queries": self._max,
                "used": self._used,
                "refused": self._refused,
            }

    def restore_state(self, state: dict) -> None:
        """Overwrite the counters from a :meth:`state` snapshot."""
        with self._lock:
            self._max = int(state["max_queries"])
            self._used = int(state["used"])
            self._refused = bool(state.get("refused", False))

    def restore_window(self, state: dict) -> bool:
        """Restore a :meth:`state` snapshot of the same window only.

        Same window: the snapshot has this budget's limit and was not
        refused, so its charge still counts.  A different limit or an
        exhausted window is the quota *reset*: the budget stands, since
        the old counters would refuse every query.  Returns whether the
        snapshot was restored.

        >>> budget = QueryBudget(10)
        >>> budget.restore_window({"max_queries": 10, "used": 4})
        True
        >>> budget.used
        4
        >>> budget.restore_window({"max_queries": 20, "used": 7})
        False
        """
        with self._lock:
            limit = int(state.get("max_queries", -1))
            if limit != self._max or state.get("refused", False):
                return False
            self._used = int(state["used"])
            self._refused = False
            return True


class SimulatedClock(LocklessPickle):
    """A trivially simple discrete clock counting whole days."""

    def __init__(self, day: int = 0):
        self._day = day
        self._lock = threading.Lock()

    @property
    def day(self) -> int:
        """The current simulated day index."""
        return self._day

    def sleep_until_next_day(self) -> int:
        """Advance to the next day and return its index (atomically)."""
        with self._lock:
            self._day += 1
            return self._day

    def state(self) -> dict:
        """A plain-dict snapshot of the clock."""
        with self._lock:
            return {"day": self._day}

    def restore_state(self, state: dict) -> None:
        """Overwrite the clock from a :meth:`state` snapshot."""
        with self._lock:
            self._day = int(state["day"])


class DailyRateLimit(LocklessPickle, QueryLimit):
    """At most ``per_day`` queries per simulated day.

    The limit resets whenever the attached clock reports a new day,
    modelling the per-IP daily quotas of real hidden-database servers.
    """

    def __init__(self, per_day: int, clock: SimulatedClock):
        if per_day < 1:
            raise ValueError("per_day must be positive")
        self._per_day = per_day
        self._clock = clock
        self._counted_day = clock.day
        self._used_today = 0
        self._lock = threading.Lock()

    @property
    def clock(self) -> SimulatedClock:
        """The clock whose day boundaries reset the quota."""
        return self._clock

    @property
    def used_today(self) -> int:
        """Queries spent against today's quota."""
        with self._lock:
            self._roll_over()
            return self._used_today

    @property
    def remaining_today(self) -> int:
        """Queries left in today's quota."""
        with self._lock:
            self._roll_over()
            return self._per_day - self._used_today

    def _roll_over(self) -> None:
        # Caller holds self._lock.
        if self._clock.day != self._counted_day:
            self._counted_day = self._clock.day
            self._used_today = 0

    def admit(self) -> None:
        with self._lock:
            self._roll_over()
            if self._used_today >= self._per_day:
                raise QueryBudgetExhausted(
                    f"daily quota of {self._per_day} queries exhausted on day "
                    f"{self._clock.day}",
                    issued=self._used_today,
                )
            self._used_today += 1

    def state(self) -> dict:
        """A plain-dict snapshot of today's quota counters."""
        with self._lock:
            return {
                "per_day": self._per_day,
                "counted_day": self._counted_day,
                "used_today": self._used_today,
            }

    def restore_state(self, state: dict) -> None:
        """Overwrite the counters from a :meth:`state` snapshot."""
        with self._lock:
            self._per_day = int(state["per_day"])
            self._counted_day = int(state["counted_day"])
            self._used_today = int(state["used_today"])
