"""Adaptive rebalancing: work stealing over a partition plan's regions.

A static :class:`~repro.crawl.partition.PartitionPlan` fixes which
session crawls which regions before anything about the data is known,
so the slowest session dominates the wall clock.  This module provides
the scheduling layer that fixes that without touching the result:

* :class:`CostEstimator` -- per-region query-cost estimates, updated
  from the observed cost of every finished region (each region's cost
  is the exact :class:`~repro.server.stats.QueryStats`-backed query
  count of its crawl);
* :class:`WorkStealingScheduler` -- a thread-safe work queue per
  session; an idle worker first drains its own session's queue in plan
  order, then *steals* the tail region of the session with the largest
  estimated remaining cost.

Stealing never changes what is crawled, only *when* and *by which
worker*: a stolen region is still crawled against its own session's
source (its identity keeps paying the queries), and the executors file
every region's result under its original plan position, so the merged
:class:`~repro.crawl.partition.PartitionedResult` stays byte-identical
to the sequential executor's.  The scheduler's accounting is exact:
every region is handed out at most once, and the observed total cost
equals the sum of the per-region costs no matter how acquisitions and
completions interleave (a hypothesis property test drives arbitrary
schedules through it).

:class:`SubtreeScheduler` adds the second level introduced with
subtree sharding (:mod:`repro.crawl.sharding`): when no whole region is
left to take, an idle worker steals a *subquery* of a live region --
the next pending subtree shard of the region with the largest estimated
remaining cost.  Shard results carry their exact per-shard cost back to
the :class:`CostEstimator` (:meth:`CostEstimator.record_shard`), so the
"costliest live region" signal sharpens as the region progresses.  The
same invariants hold one level down: each shard is handed out at most
once, filed at its canonical position, and merged deterministically.

Both schedulers are *elastic*: a worker that leaves a running crawl
(:class:`~repro.exceptions.WorkerDeparted`) hands its acquired region
or shard back via ``requeue()`` -- the unit returns to the front of its
home queue, any surviving or newly joined worker picks it up, and the
exactly-once accounting is untouched.  Departures are bounded: past
``max_departures`` a departing unit is failed instead of requeued, so
a fleet whose every replacement departs ends instead of spinning.
Both also accept a ``completed`` map of pre-crawled region costs (a
resumed crawl's checkpoint), which enter the books as done without
ever being enqueued.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from repro.exceptions import AlgorithmInvariantError
from repro.query.query import Query

__all__ = [
    "RegionTask",
    "ShardTask",
    "RegionCompletion",
    "CostEstimator",
    "WorkStealingScheduler",
    "SubtreeScheduler",
]

#: A region's identity inside a plan: (session index, index in bundle).
RegionKey = tuple[int, int]


@dataclass(frozen=True)
class RegionTask:
    """One schedulable unit of work: a region at its plan position."""

    session: int
    index: int
    region: Query

    @property
    def key(self) -> RegionKey:
        """The region's (session, index) position in the plan."""
        return (self.session, self.index)

    @property
    def live_key(self) -> tuple:
        """Uniquely identifies this unit in live-progress bookkeeping."""
        return ("region", self.index)


@dataclass(frozen=True)
class ShardTask:
    """One schedulable subtree shard of a live region.

    Produced by :class:`SubtreeScheduler` after a region's
    :class:`~repro.crawl.sharding.RegionShardPlan` is published; the
    shard is crawled against *its own session's* source (the session's
    identity keeps paying the queries) and its result is filed at the
    shard's canonical position, so stealing subtrees changes wall-clock
    behaviour only, never the merged result.
    """

    session: int
    index: int
    region: Query
    shard: object  # a repro.crawl.sharding.SubtreeShard

    @property
    def key(self) -> RegionKey:
        """The owning region's (session, index) plan position."""
        return (self.session, self.index)

    @property
    def live_key(self) -> tuple:
        """Uniquely identifies this unit in live-progress bookkeeping."""
        return ("shard", self.index, self.shard.order)


class CostEstimator:
    """Per-region query-cost estimates for scheduling decisions.

    The estimate for a region is its *observed* cost once its crawl
    finished, else the running mean of all observed costs so far, else
    a flat 1.0.  Each scheduler owns one and feeds it the exact costs
    of finished regions and shards (and of a resumed crawl's completed
    regions).  All methods are thread-safe.
    """

    def __init__(self):
        self._observed: dict[RegionKey, int] = {}
        # Running sum of observed costs, so the fallback mean is O(1);
        # plans can have tens of thousands of regions (one per value of
        # a large categorical domain) and estimates sit on hot paths.
        self._observed_sum = 0
        # Exact per-shard feedback for *live* regions: (cost sum, shard
        # count) per region, fed by the subtree-sharding executors.
        self._shard_observed: dict[RegionKey, tuple[int, int]] = {}
        self._lock = threading.Lock()

    def record(self, key: RegionKey, cost: int) -> None:
        """Record the exact observed cost of a finished region.

        Supersedes any partial per-shard view of the region
        (:meth:`record_shard`): the shard tally is dropped, so a
        stale shard mean never outlives its region.
        """
        with self._lock:
            previous = self._observed.get(key)
            if previous is not None:
                self._observed_sum -= previous
            self._observed[key] = int(cost)
            self._observed_sum += int(cost)
            self._shard_observed.pop(key, None)

    def estimate(self, key: RegionKey) -> float:
        """The current cost estimate for the region at ``key``."""
        with self._lock:
            if key in self._observed:
                return float(self._observed[key])
            if self._observed:
                return self._observed_sum / len(self._observed)
            return 1.0

    def record_shard(self, key: RegionKey, cost: int) -> None:
        """Fold one subtree shard's exact cost into a live region.

        Called by the subtree-sharding executors as each shard of the
        region at ``key`` finishes, so stealing decisions about the
        *rest* of that region's shards rest on measured shard costs
        (see :meth:`shard_mean`) instead of a whole-region estimate.
        Once the region completes, :meth:`record` supersedes this
        partial view with the exact merged total.
        """
        with self._lock:
            total, count = self._shard_observed.get(key, (0, 0))
            self._shard_observed[key] = (total + int(cost), count + 1)

    def shard_mean(self, key: RegionKey) -> float | None:
        """Mean observed shard cost of a live region, if any finished."""
        with self._lock:
            total, count = self._shard_observed.get(key, (0, 0))
            if count == 0:
                return None
            return total / count

    def shard_observed(self, key: RegionKey) -> tuple[int, int]:
        """(cost sum, shard count) recorded so far for a live region."""
        with self._lock:
            return self._shard_observed.get(key, (0, 0))

    def observed(self) -> dict[RegionKey, int]:
        """A copy of the observed per-region costs."""
        with self._lock:
            return dict(self._observed)

    def total_observed(self) -> int:
        """Sum of all observed region costs."""
        with self._lock:
            return self._observed_sum

    def __repr__(self) -> str:
        with self._lock:
            observed = len(self._observed)
        return f"CostEstimator({observed} regions observed)"


class WorkStealingScheduler:
    """Thread-safe region scheduler with estimate-guided stealing.

    One FIFO queue per session holds the session's regions in plan
    order.  :meth:`acquire` serves a worker from its home session's
    queue first; when that queue is empty the worker steals the *tail*
    region of the victim with the largest estimated remaining queued
    cost -- splitting remaining work off the (estimated) slowest
    session, with ties broken by the lowest session index.

    Accounting invariants, enforced and exposed for tests:

    * a region is handed out at most once (acquire pops it);
    * :meth:`complete` and :meth:`fail` accept only regions currently
      in flight, so double completion is impossible;
    * when everything has drained, :meth:`total_observed_cost` equals
      the exact sum of the per-region costs reported to
      :meth:`complete`.

    Examples
    --------
    The worker protocol is acquire -> crawl -> complete (executors run
    one such loop per worker)::

        scheduler = WorkStealingScheduler(plan.bundles)
        while (task := scheduler.acquire(home_session)) is not None:
            result = crawl_the_region(task)     # any worker, any time
            scheduler.complete(task, result.cost)
        assert scheduler.done()
    """

    #: Exact per-queue estimate refreshes are skipped above this many
    #: queued regions: a plan can hold tens of thousands of regions
    #: (one per value of a large categorical domain), and an O(queued)
    #: walk per completion would dominate the crawl.  Beyond the limit
    #: the cached enqueue-time estimates stand in, which for a flat
    #: prior makes the victim simply the session with the most queued
    #: regions -- still the right coarse signal.
    _REFRESH_LIMIT = 512

    def __init__(
        self,
        bundles,
        completed: Mapping[RegionKey, int] | None = None,
    ):
        #: The scheduler's own estimator, fed every observed cost.
        self.estimator = CostEstimator()
        # Resume support: regions already crawled (e.g. restored from a
        # CrawlCheckpoint) are never enqueued -- they enter the books as
        # completed with their exact recorded costs, and the estimator
        # learns them up front so the first stealing decisions of the
        # resumed crawl start from measured reality.
        self._completed: dict[RegionKey, int] = {
            key: int(cost) for key, cost in dict(completed or {}).items()
        }
        for key, cost in self._completed.items():
            self.estimator.record(key, cost)
        self._queues: list[deque[RegionTask]] = [
            deque(
                RegionTask(session, index, region)
                for index, region in enumerate(bundle)
                if (session, index) not in self._completed
            )
            for session, bundle in enumerate(bundles)
        ]
        self._total = sum(len(q) for q in self._queues)
        #: Departures seen so far, and how many :meth:`requeue` takes
        #: back before it fails the departing unit instead: enough for
        #: every region to ride out a few kills, few enough that a
        #: fleet that never survives a unit terminates.
        self.departures = 0
        self.max_departures = 4 * (self._total + 1)
        self._in_flight: dict[RegionKey, int | None] = {}
        self._failed: set[RegionKey] = set()
        self._aborted = False
        self._steals: list[tuple[RegionKey, int | None]] = []
        self._lock = threading.Lock()
        # Per-session sums of the queued tasks' cached estimates, kept
        # incrementally so picking a victim is O(sessions) per acquire.
        self._cached_estimate: dict[RegionKey, float] = {}
        self._queued_cost: list[float] = []
        for queue in self._queues:
            total = 0.0
            for task in queue:
                value = self.estimator.estimate(task.key)
                self._cached_estimate[task.key] = value
                total += value
            self._queued_cost.append(total)

    @property
    def sessions(self) -> int:
        """Number of per-session queues."""
        return len(self._queues)

    @property
    def total_tasks(self) -> int:
        """Number of schedulable regions (pre-completed ones excluded)."""
        return self._total

    def acquire(
        self, worker_session: int | None = None, *, block: bool = True
    ) -> RegionTask | None:
        """Hand out the next region for a worker, or ``None`` when dry.

        ``worker_session`` is the worker's home session: its own queue
        is drained first (in plan order); afterwards the worker steals.
        ``None`` means the caller has no home queue (the job service's
        fleet, which serves many jobs) and always picks by estimate.
        ``block`` is accepted for signature parity with
        :meth:`SubtreeScheduler.acquire` (the job service's fleet polls
        with ``block=False``); this one-level scheduler never blocks,
        so the flag changes nothing.
        """
        with self._lock:
            if self._aborted:
                return None
            return self._acquire_region_locked(worker_session)

    def _acquire_region_locked(
        self, worker_session: int | None
    ) -> RegionTask | None:
        # Caller holds self._lock.
        if worker_session is not None and (
            0 <= worker_session < len(self._queues)
        ):
            own = self._queues[worker_session]
            if own:
                task = own.popleft()
                self._dequeued(task)
                self._in_flight[task.key] = worker_session
                return task
        victim = self._pick_victim()
        if victim is None:
            return None
        task = self._queues[victim].pop()
        self._dequeued(task)
        self._in_flight[task.key] = worker_session
        if worker_session is None or victim != worker_session:
            self._steals.append((task.key, worker_session))
        return task

    def _dequeued(self, task: RegionTask) -> None:
        # Caller holds self._lock.
        value = self._cached_estimate.pop(task.key, 0.0)
        session_cost = self._queued_cost[task.session] - value
        self._queued_cost[task.session] = max(0.0, session_cost)

    def _pick_victim(self) -> int | None:
        # Caller holds self._lock.
        best: int | None = None
        best_cost = -1.0
        for session, queue in enumerate(self._queues):
            if queue and self._queued_cost[session] > best_cost:
                best, best_cost = session, self._queued_cost[session]
        return best

    def _refresh_estimates(self) -> None:
        # Caller holds self._lock.  Exact refresh of the cached sums;
        # skipped on huge queues (see _REFRESH_LIMIT).
        if len(self._cached_estimate) > self._REFRESH_LIMIT:
            return
        for session, queue in enumerate(self._queues):
            total = 0.0
            for task in queue:
                value = self.estimator.estimate(task.key)
                self._cached_estimate[task.key] = value
                total += value
            self._queued_cost[session] = total

    def complete(self, task: RegionTask, cost: int) -> None:
        """Mark an in-flight region finished with its exact query cost.

        After :meth:`abort` the call degrades to a no-op for tasks the
        abort already wrote off -- a surviving worker reporting a
        result it was mid-crawl on must drain quietly, not crash.
        """
        with self._lock:
            if not self._check_in_flight(task):
                return
            del self._in_flight[task.key]
            self._completed[task.key] = int(cost)
        self.estimator.record(task.key, int(cost))
        with self._lock:
            self._refresh_estimates()

    def fail(self, task: RegionTask) -> None:
        """Mark an in-flight region as failed (its worker died on it)."""
        with self._lock:
            if not self._check_in_flight(task):
                return
            del self._in_flight[task.key]
            self._failed.add(task.key)

    def requeue(self, task: RegionTask) -> bool:
        """Return an in-flight region to the *front* of its home queue.

        The departed-worker contract: when a worker leaves a running
        crawl (:class:`~repro.exceptions.WorkerDeparted`), its acquired
        unit goes back to the scheduler instead of failing the session
        -- any surviving (or newly joined) worker picks it up next, and
        the crawl completes with full parity.  The task returns to the
        front of its own session's queue so plan order is preserved for
        that session's next acquirer.  Every call counts one departure;
        past :attr:`max_departures` the task is failed instead and
        ``False`` returned -- the caller files the failure.  Also
        returns ``False`` (dropping the task silently) when an abort
        already wrote the task off; raises
        :class:`~repro.exceptions.AlgorithmInvariantError` if the task
        was never in flight -- only an acquirer may hand work back.

        Examples
        --------
        ::

            task = scheduler.acquire(0)
            scheduler.requeue(task)            # the worker departed
            assert scheduler.acquire(0) == task  # another worker resumes
        """
        with self._lock:
            return self._requeue_locked(task)

    def _requeue_locked(self, task: RegionTask) -> bool:
        # Caller holds self._lock.
        if task.key not in self._in_flight:
            if self._aborted:
                return False
            raise AlgorithmInvariantError(
                f"region {task.key} is not in flight; only its acquirer "
                "may requeue it"
            )
        del self._in_flight[task.key]
        if not self._departed_locked():
            self._failed.add(task.key)
            return False
        self._queues[task.session].appendleft(task)
        value = self.estimator.estimate(task.key)
        self._cached_estimate[task.key] = value
        self._queued_cost[task.session] += value
        return True

    def _departed_locked(self) -> bool:
        # Caller holds self._lock.  Counts one departure; False once
        # the bound is spent.
        self.departures += 1
        return self.departures <= self.max_departures

    def _check_in_flight(self, task: RegionTask) -> bool:
        # Caller holds self._lock.  Returns False when the task should
        # be silently dropped (an abort wrote it off while its worker
        # was still crawling); raises on a genuine protocol violation.
        if task.key in self._in_flight:
            return True
        if self._aborted:
            return False
        raise AlgorithmInvariantError(
            f"region {task.key} is not in flight; a scheduler task "
            "may only be completed or failed once, by its acquirer"
        )

    def abort(self) -> None:
        """Discard all unfinished work so every worker drains out.

        The escape hatch for irrecoverable worker loss (a pool process
        dying without reporting back, which would otherwise leave its
        in-flight task blocking the drain forever): queued and
        in-flight regions are marked failed, and subsequent
        :meth:`acquire` calls return ``None``.  Completed regions keep
        their exact recorded costs, and surviving workers that report
        an aborted task afterwards are drained silently instead of
        tripping the exactly-once check.

        Idempotent and safe against concurrent workers: abort-on-abort
        is a no-op (the shared-limit drain calls it once per dead
        worker), and a worker racing :meth:`acquire` either gets a task
        the abort writes off or observes the aborted state and drains.

        Examples
        --------
        ::

            task = scheduler.acquire(0)
            scheduler.abort()
            scheduler.abort()               # no-op, still aborted
            scheduler.complete(task, 5)     # silently dropped
            assert scheduler.acquire(0) is None
        """
        with self._lock:
            if self._aborted:
                return
            self._abort_locked()

    def _abort_locked(self) -> None:
        # Caller holds self._lock.
        self._aborted = True
        for queue in self._queues:
            while queue:
                self._failed.add(queue.pop().key)
        self._failed.update(self._in_flight)
        self._in_flight.clear()
        self._cached_estimate.clear()
        self._queued_cost = [0.0] * len(self._queues)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def remaining(self) -> int:
        """Regions not yet completed or failed (queued + in flight)."""
        with self._lock:
            queued = sum(len(q) for q in self._queues)
            return queued + len(self._in_flight)

    def done(self) -> bool:
        """``True`` once every region has completed or failed."""
        return self.remaining() == 0

    def completed_costs(self) -> dict[RegionKey, int]:
        """Exact observed cost per completed region."""
        with self._lock:
            return dict(self._completed)

    def failed_keys(self) -> set[RegionKey]:
        """Plan positions of regions whose crawl raised."""
        with self._lock:
            return set(self._failed)

    def total_observed_cost(self) -> int:
        """Sum of the completed regions' costs -- exact, by construction."""
        with self._lock:
            return sum(self._completed.values())

    def steals(self) -> list[tuple[RegionKey, int | None]]:
        """Every steal that happened: (region key, thief's session)."""
        with self._lock:
            return list(self._steals)

    def __repr__(self) -> str:
        with self._lock:
            queued = sum(len(q) for q in self._queues)
            return (
                f"WorkStealingScheduler({self._total} regions: "
                f"{queued} queued, {len(self._in_flight)} in flight, "
                f"{len(self._completed)} done, {len(self._failed)} failed, "
                f"{len(self._steals)} steals)"
            )


class _LiveRegion:
    """A region whose shard plan is published but not yet merged."""

    __slots__ = ("task", "plan", "pending", "in_flight", "results", "failed")

    def __init__(self, task: RegionTask, plan, pending):
        self.task = task
        self.plan = plan
        self.pending = pending
        self.in_flight = 0
        self.results: dict[int, object] = {}
        self.failed = False


@dataclass(frozen=True)
class RegionCompletion:
    """Everything needed to merge a finished region's shard results.

    Returned by :meth:`SubtreeScheduler.publish` (zero-shard plans) and
    :meth:`SubtreeScheduler.complete_shard` (when the last shard of a
    region lands).  Exactly one worker receives it; that worker calls
    :func:`~repro.crawl.sharding.merge_region_shards` and then reports
    the merged cost via :meth:`SubtreeScheduler.complete_region`.
    """

    task: RegionTask
    plan: object  # a repro.crawl.sharding.RegionShardPlan
    results: tuple  # shard CrawlResults in canonical shard order


class SubtreeScheduler(WorkStealingScheduler):
    """Two-level work stealing: whole regions first, then subtrees.

    The region layer behaves exactly like
    :class:`WorkStealingScheduler`: a worker drains its home session's
    queue in plan order, then steals the tail region of the costliest
    session.  Acquiring a region means *presplitting* it
    (:func:`~repro.crawl.sharding.presplit_region`); the resulting plan
    is handed back via :meth:`publish`, which turns the region *live*
    and exposes its subtree shards.  Only when no whole region is left
    to take does a worker fall through to the subtree layer and steal
    the next shard of the **costliest live region** -- the region with
    the largest estimated remaining shard cost, measured from the exact
    costs of its already-finished shards
    (:meth:`CostEstimator.record_shard`) and falling back to the
    region-level estimate divided by its shard count.

    :meth:`acquire` blocks while work may still appear (a presplit in
    flight can publish new shards); it returns ``None`` only when every
    region has been merged or failed.  Pass ``block=False`` for a
    non-blocking poll (a caller, like the job service's fleet, that
    must not park on one scheduler).
    """

    def __init__(
        self,
        bundles,
        completed: Mapping[RegionKey, int] | None = None,
    ):
        super().__init__(bundles, completed)
        self._cond = threading.Condition(self._lock)
        self._live: dict[RegionKey, _LiveRegion] = {}
        self._merging: set[RegionKey] = set()

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(
        self, worker_session: int | None = None, *, block: bool = True
    ) -> RegionTask | ShardTask | None:
        """The next region or shard for a worker; ``None`` when done.

        Preference order: the worker's own region queue, then a stolen
        whole region, then a shard of the costliest live region.  With
        ``block=True`` (workers) the call waits whenever the queues are
        momentarily empty but presplits in flight may still publish
        shards; with ``block=False`` (a caller polling several
        schedulers) it returns ``None`` immediately in that situation.
        """
        with self._cond:
            while True:
                # The fast path out for workers woken by (or racing) an
                # abort: everything is written off, so return without
                # consulting the queue state -- a waiter blocked in
                # wait() is guaranteed to observe this on wake-up.
                if self._aborted:
                    return None
                task = self._acquire_region_locked(worker_session)
                if task is not None:
                    return task
                shard = self._acquire_shard_locked(worker_session)
                if shard is not None:
                    return shard
                if self._drained_locked() or not block:
                    return None
                self._cond.wait()

    def _acquire_shard_locked(
        self, worker_session: int | None
    ) -> ShardTask | None:
        # Caller holds self._lock.  Victim: largest estimated remaining
        # shard cost; ties broken by the lowest region key.
        best_key: RegionKey | None = None
        best_score = -1.0
        for key, live in self._live.items():
            if live.failed or not live.pending:
                continue
            mean = self.estimator.shard_mean(key)
            if mean is None:
                mean = self.estimator.estimate(key) / max(
                    1, len(live.plan.shards)
                )
            score = mean * len(live.pending)
            if (
                best_key is None
                or score > best_score
                or (score == best_score and key < best_key)
            ):
                best_key, best_score = key, score
        if best_key is None:
            return None
        live = self._live[best_key]
        task = live.pending.popleft()
        live.in_flight += 1
        if worker_session is None or best_key[0] != worker_session:
            self._steals.append((best_key, worker_session))
        return task

    def _drained_locked(self) -> bool:
        # Caller holds self._lock.
        if any(self._queues):
            return False
        return not (self._in_flight or self._live or self._merging)

    # ------------------------------------------------------------------
    # Region lifecycle
    # ------------------------------------------------------------------
    def publish(self, task: RegionTask, plan) -> RegionCompletion | None:
        """File a presplit region's shard plan and expose its shards.

        Returns a :class:`RegionCompletion` immediately when the plan
        carries no shards (the trunk was the whole crawl) -- the caller
        then merges and reports via :meth:`complete_region` as usual.
        """
        with self._cond:
            if task.key not in self._in_flight:
                if self._aborted:
                    return None  # written off mid-presplit; drain out
                raise AlgorithmInvariantError(
                    f"region {task.key} is not in flight; only its "
                    "acquirer may publish a shard plan"
                )
            del self._in_flight[task.key]
            if plan.shards:
                pending = deque(
                    ShardTask(task.session, task.index, task.region, shard)
                    for shard in plan.shards
                )
                self._live[task.key] = _LiveRegion(task, plan, pending)
                self._cond.notify_all()
                return None
            self._merging.add(task.key)
            self._cond.notify_all()
            return RegionCompletion(task=task, plan=plan, results=())

    def complete_shard(
        self, task: ShardTask, result
    ) -> RegionCompletion | None:
        """File one shard's result; exact cost feeds the estimator.

        Returns the region's :class:`RegionCompletion` when this was
        its last outstanding shard (and the region did not fail).
        """
        self.estimator.record_shard(task.key, result.cost)
        with self._cond:
            live = self._live.get(task.key)
            if live is None or task.shard.order in live.results:
                if self._aborted and live is None:
                    return None  # region written off; drain out
                raise AlgorithmInvariantError(
                    f"shard {task.shard.order} of region {task.key} is "
                    "not in flight; a shard may only be completed once"
                )
            live.in_flight -= 1
            live.results[task.shard.order] = result
            if live.failed:
                if live.in_flight == 0 and not live.pending:
                    del self._live[task.key]
                self._cond.notify_all()
                return None
            if live.pending or live.in_flight > 0:
                self._cond.notify_all()
                return None
            del self._live[task.key]
            self._merging.add(task.key)
            self._cond.notify_all()
            return RegionCompletion(
                task=live.task,
                plan=live.plan,
                results=tuple(
                    live.results[order]
                    for order in range(len(live.plan.shards))
                ),
            )

    def complete_region(self, key: RegionKey, cost: int) -> None:
        """Record a merged region's exact total cost (after the merge).

        After :meth:`abort` the call is silently dropped: the abort
        already wrote the pending merge off as failed, and recording a
        completed cost for a failed key would corrupt the accounting a
        surviving worker reads.
        """
        with self._cond:
            if self._aborted:
                self._cond.notify_all()
                return
            self._merging.discard(key)
            self._completed[key] = int(cost)
            self._cond.notify_all()
        self.estimator.record(key, int(cost))
        with self._lock:
            self._refresh_estimates()

    def complete(self, task: RegionTask, cost: int) -> None:
        """Region-level completion (inherited path), plus a wake-up."""
        super().complete(task, cost)
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def fail(self, task) -> None:
        """Mark a region (presplit) or shard task as failed.

        A shard failure fails its whole region: the region's queued
        shards are dropped, in-flight siblings are drained silently,
        and the region is never merged.
        """
        if isinstance(task, ShardTask):
            with self._cond:
                live = self._live.get(task.key)
                if live is None:
                    if self._aborted:
                        return  # region written off; drain out
                    raise AlgorithmInvariantError(
                        f"shard {task.shard.order} of region {task.key} "
                        "is not in flight"
                    )
                live.in_flight -= 1
                self._fail_live_locked(task.key, live)
            return
        super().fail(task)
        with self._cond:
            self._cond.notify_all()

    def _fail_live_locked(self, key: RegionKey, live: _LiveRegion) -> None:
        # Caller holds self._cond and has already retired the shard.
        live.pending.clear()
        if not live.failed:
            live.failed = True
            self._failed.add(key)
        if live.in_flight == 0:
            del self._live[key]
        self._cond.notify_all()

    def fail_region(self, key: RegionKey) -> None:
        """Mark a region failed after its merge step raised."""
        with self._cond:
            self._merging.discard(key)
            self._failed.add(key)
            self._cond.notify_all()

    def requeue(self, task) -> bool:
        """Hand a departed worker's region *or shard* back to the queue.

        A region (pre-presplit) returns to the front of its home queue
        exactly as in the base class.  A shard returns to the front of
        its live region's pending deque, so the next acquirer resumes
        the region where the departed worker left it.  Either way,
        waiters blocked in :meth:`acquire` are notified -- requeued work
        is new work.  A shard of a region a sibling failure already
        wrote off is drained silently (``False``), mirroring
        :meth:`fail`'s drain semantics; past :attr:`max_departures` the
        shard fails its region like :meth:`fail` (``False``).
        """
        if not isinstance(task, ShardTask):
            with self._cond:
                self._cond.notify_all()
                return self._requeue_locked(task)
        with self._cond:
            live = self._live.get(task.key)
            if live is None:
                if self._aborted:
                    return False
                raise AlgorithmInvariantError(
                    f"shard {task.shard.order} of region {task.key} is "
                    "not in flight; only its acquirer may requeue it"
                )
            live.in_flight -= 1
            if live.failed:
                # A sibling shard already failed the whole region; the
                # returned shard drains like a late completion would.
                if live.in_flight == 0 and not live.pending:
                    del self._live[task.key]
                self._cond.notify_all()
                return False
            if not self._departed_locked():
                self._fail_live_locked(task.key, live)
                return False
            live.pending.appendleft(task)
            self._cond.notify_all()
            return True

    def abort(self) -> None:
        """Discard all unfinished work and wake every blocked worker.

        Extends :meth:`WorkStealingScheduler.abort` one level down:
        live regions (published shard plans) and pending merges are
        failed too, and waiters blocked in :meth:`acquire` are notified
        so they observe the aborted state and return ``None``.
        Idempotent like the base class -- a repeated abort only
        re-notifies the waiters, it never re-fails anything.
        """
        with self._cond:
            if not self._aborted:
                self._abort_locked()
                self._failed.update(self._live)
                self._live.clear()
                self._failed.update(self._merging)
                self._merging.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def remaining(self) -> int:
        """Regions not yet merged or failed (any lifecycle stage)."""
        with self._lock:
            queued = sum(len(q) for q in self._queues)
            return (
                queued
                + len(self._in_flight)
                + len(self._live)
                + len(self._merging)
            )

    def __repr__(self) -> str:
        with self._lock:
            queued = sum(len(q) for q in self._queues)
            return (
                f"SubtreeScheduler({self._total} regions: {queued} queued, "
                f"{len(self._in_flight)} presplitting, "
                f"{len(self._live)} live, {len(self._merging)} merging, "
                f"{len(self._completed)} done, {len(self._failed)} failed, "
                f"{len(self._steals)} steals)"
            )
