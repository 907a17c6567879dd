"""Query accounting: the cost metric of Problem 1.

The cost of a crawl is the number of queries sent to the server (paper
Section 1.1: "the cost of an algorithm is the number of queries
issued").  :class:`QueryStats` tracks that number plus a breakdown that
the experiments report (how many queries resolved vs overflowed, tuples
shipped by the server, per-phase subtotals).

Recording is atomic (an internal lock guards every mutation), so a
server or client shared between concurrent crawl sessions keeps exact
totals -- ``queries == resolved + overflowed`` holds at every instant.
The lock is dropped on pickling and rebuilt on load, so stats ride
along when a server is shipped to a process-pool worker (see
:class:`~repro.crawl.executors.ProcessExecutor`).

Inside a batch epoch the per-query locked update is replaced by a
:class:`StatsDelta` -- a plain unlocked counter buffer owned by the
epoch's thread -- folded in with one :meth:`QueryStats.merge_counts`
call when the epoch closes.  Every observation point outside an epoch
(``state()``, write-back, checkpoints) therefore sees exactly the
counters per-query recording would have produced; concurrent readers
*during* an epoch may lag by at most the epoch's in-flight queries,
always by a consistent (queries, resolved, overflowed) triple.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.server.pickling import LocklessPickle
from repro.server.response import QueryResponse

__all__ = ["QueryStats", "StatsDelta"]


class StatsDelta:
    """Unlocked counter buffer for one batch epoch.

    Owned by exactly one thread (the epoch holder), so recording needs
    no lock; the aggregate ships through
    :meth:`QueryStats.merge_counts` once, when the epoch closes.  Phase
    attribution is captured per record (the owning stats' current
    phase), so the merged ``phase_costs`` equal what per-query locked
    recording would have written.
    """

    __slots__ = (
        "queries",
        "resolved",
        "overflowed",
        "tuples_returned",
        "phase_costs",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.resolved = 0
        self.overflowed = 0
        self.tuples_returned = 0
        self.phase_costs: dict[str, int] = {}

    def record_counts(
        self, overflow: bool, tuples: int, phase: str | None
    ) -> None:
        """Buffer one answered query (the epoch twin of ``record``)."""
        self.queries += 1
        if overflow:
            self.overflowed += 1
        else:
            self.resolved += 1
        self.tuples_returned += tuples
        if phase is not None:
            self.phase_costs[phase] = self.phase_costs.get(phase, 0) + 1

    def state(self) -> dict:
        """The buffered counters in :meth:`QueryStats.merge_counts` form."""
        return {
            "queries": self.queries,
            "resolved": self.resolved,
            "overflowed": self.overflowed,
            "tuples_returned": self.tuples_returned,
            "phase_costs": self.phase_costs,
        }

    def flush_into(self, stats: "QueryStats") -> None:
        """Fold the buffer into ``stats`` atomically; no-op when empty."""
        if self.queries:
            stats.merge_counts(self.state())


@dataclass
class QueryStats(LocklessPickle):
    """Mutable counters describing the queries seen so far.

    ``round_trips`` counts *coordinator* round trips, not queries: on a
    local crawl it stays 0, and after a shared-limit process crawl the
    control plane's write-back adds the fleet-wide number of admission
    calls that crossed the process boundary (the chatter lease batching
    exists to shrink; see :mod:`repro.crawl.coordinator`).
    """

    queries: int = 0
    resolved: int = 0
    overflowed: int = 0
    tuples_returned: int = 0
    round_trips: int = 0
    phase_costs: dict[str, int] = field(default_factory=dict)
    _phase: str | None = field(default=None, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, response: QueryResponse) -> None:
        """Account for one answered query (atomically)."""
        self.record_counts(response.overflow, len(response.rows))

    def record_counts(self, overflow: bool, tuples: int) -> None:
        """Account for one answered query given its bare counts.

        The response-free twin of :meth:`record`, for callers that hold
        only ``(overflow, len(rows))``.
        """
        with self._lock:
            self.queries += 1
            if overflow:
                self.overflowed += 1
            else:
                self.resolved += 1
            self.tuples_returned += tuples
            if self._phase is not None:
                self.phase_costs[self._phase] = (
                    self.phase_costs.get(self._phase, 0) + 1
                )

    def begin_phase(self, name: str) -> None:
        """Attribute subsequent queries to a named phase.

        Slice-cover, for instance, separates its ``slice-table``
        preprocessing cost from the ``traversal`` cost (Lemma 4 bounds
        the two terms separately).
        """
        with self._lock:
            self._phase = name
            self.phase_costs.setdefault(name, 0)

    def end_phase(self) -> None:
        """Stop attributing queries to a phase."""
        with self._lock:
            self._phase = None

    @property
    def current_phase(self) -> str | None:
        """The phase queries are currently attributed to, if any."""
        with self._lock:
            return self._phase

    def merge_counts(self, delta: dict) -> None:
        """Fold another stats snapshot's counters into this one.

        The batched twin of :meth:`record_counts`: a batch epoch's
        :class:`StatsDelta` lands here when the epoch closes, and the
        process backend folds each pool unit's ``state()``-shaped
        counts into the caller's stats as the unit's outcome arrives
        (see :class:`~repro.crawl.executors.PoolUnitRunner`).  A
        ``round_trips`` entry, when present, adds too.  Atomic, like
        every other mutation.
        """
        with self._lock:
            self.queries += int(delta["queries"])
            self.resolved += int(delta["resolved"])
            self.overflowed += int(delta["overflowed"])
            self.tuples_returned += int(delta["tuples_returned"])
            self.round_trips += int(delta.get("round_trips", 0))
            for phase, cost in delta["phase_costs"].items():
                self.phase_costs[phase] = (
                    self.phase_costs.get(phase, 0) + int(cost)
                )

    def snapshot(self) -> "QueryStats":
        """An independent, consistent copy of the current counters."""
        with self._lock:
            copy = QueryStats(
                queries=self.queries,
                resolved=self.resolved,
                overflowed=self.overflowed,
                tuples_returned=self.tuples_returned,
                round_trips=self.round_trips,
                phase_costs=dict(self.phase_costs),
            )
        return copy

    def state(self) -> dict:
        """A plain-dict snapshot of the counters (the wire form).

        A pool unit ships its server's counts home in this form, for
        :meth:`merge_counts` in the parent; :meth:`restore_state` reads
        it back.
        """
        with self._lock:
            return {
                "queries": self.queries,
                "resolved": self.resolved,
                "overflowed": self.overflowed,
                "tuples_returned": self.tuples_returned,
                "round_trips": self.round_trips,
                "phase_costs": dict(self.phase_costs),
            }

    def restore_state(self, state: dict) -> None:
        """Overwrite the counters from a :meth:`state` snapshot."""
        with self._lock:
            self.queries = int(state["queries"])
            self.resolved = int(state["resolved"])
            self.overflowed = int(state["overflowed"])
            self.tuples_returned = int(state["tuples_returned"])
            self.round_trips = int(state.get("round_trips", 0))
            self.phase_costs = dict(state["phase_costs"])

    def __str__(self) -> str:
        phases = (
            ", ".join(f"{k}={v}" for k, v in self.phase_costs.items())
            if self.phase_costs
            else "-"
        )
        return (
            f"{self.queries} queries ({self.resolved} resolved, "
            f"{self.overflowed} overflowed; phases: {phases})"
        )
