"""Work stealing over a partition plan's regions, then their subtrees.

A static :class:`~repro.crawl.partition.PartitionPlan` fixes which
session crawls which regions before anything about the data is known,
so the slowest session dominates the wall clock.
:class:`WorkStealingScheduler` fixes that without touching the result:
it keeps a thread-safe work queue per session, and an idle worker first
drains its own session's queue in plan order, then *steals* the tail
region of the longest queue, and last a subtree shard of a live region.

The longest queue is the whole region-level signal: a region's query
cost is known only once its crawl has finished, so queued regions all
look alike, and the session with the most of them has the most left.

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

Under subtree sharding (:mod:`repro.crawl.sharding`) the same scheduler
works one level down: a region taken is presplit and *published*, and
when no whole region is left to take, an idle worker steals a
*subquery* of a live region -- the next pending subtree shard of the
live region with the most estimated shard cost left, scored by the
exact costs of its finished shards.  The same invariants hold one level
down: each shard is handed out at most once, filed at its canonical
position, and merged deterministically.  Only a sharded crawl waits in
:meth:`WorkStealingScheduler.acquire` (``block=True``): a presplit in
flight can still publish shards, while an unsharded queue that ran dry
stays dry.

The scheduler is *elastic*: a worker that leaves a running crawl
(:class:`~repro.exceptions.WorkerDeparted`) hands its acquired region
or shard back via ``requeue()`` -- the unit returns to the front of its
queue, any surviving or newly joined worker picks it up, and the
exactly-once accounting is untouched.  Departures are bounded: past
``max_departures`` a departing unit is failed instead of requeued, so
a fleet whose every replacement departs ends instead of spinning.  It
also accepts a ``completed`` map of pre-crawled region costs (a
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
    "WorkStealingScheduler",
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

    Produced by :class:`WorkStealingScheduler` after a region's
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

    Returned by :meth:`WorkStealingScheduler.publish` (zero-shard plans) and
    :meth:`WorkStealingScheduler.complete_shard` (when the last shard of a
    region lands).  Exactly one worker receives it; that worker calls
    :func:`~repro.crawl.sharding.merge_region_shards` and then reports
    the merged cost via :meth:`WorkStealingScheduler.complete_region`.
    """

    task: RegionTask
    plan: object  # a repro.crawl.sharding.RegionShardPlan
    results: tuple  # shard CrawlResults in canonical shard order


class WorkStealingScheduler:
    """Thread-safe two-level work stealing: whole regions, then subtrees.

    One FIFO queue per session holds the session's regions in plan
    order.  :meth:`acquire` serves a worker from its home session's
    queue first; when that queue is empty the worker steals the *tail*
    region of the queue holding the most regions -- splitting remaining
    work off the session with the most left, with ties broken by the
    lowest session index.

    A region is either crawled whole and reported with
    :meth:`complete`, or, under subtree sharding, *presplit*
    (:func:`~repro.crawl.sharding.presplit_region`) and its plan handed
    back via :meth:`publish`, which turns the region *live* and exposes
    its subtree shards.  Only when no whole region is left to take does
    a worker fall through to the subtree layer and take the next shard
    of the **costliest live region** -- the region whose pending shards
    times its mean finished-shard cost is largest (before any of its
    shards finishes: the mean completed-region cost, or 1.0 before the
    first, divided by its shard count), ties broken by the lowest
    region key.  A crawl that never publishes never has a live region,
    so its scheduling is the region layer's alone.

    Accounting invariants, enforced and exposed for tests:

    * a region (and a shard) is handed out at most once (acquire pops
      it);
    * :meth:`complete` and :meth:`fail` accept only units currently in
      flight, so double completion is impossible;
    * when everything has drained, :meth:`total_observed_cost` equals
      the exact sum of the per-region costs reported to
      :meth:`complete` and :meth:`complete_region`.

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

    def __init__(
        self,
        bundles,
        completed: Mapping[RegionKey, int] | None = None,
    ):
        # Resume support: regions already crawled (e.g. restored from a
        # CrawlCheckpoint) are never enqueued -- they enter the books as
        # completed with their exact recorded costs, so the shard layer's
        # mean completed-region cost starts from them.
        self._completed: dict[RegionKey, int] = {
            key: int(cost) for key, cost in dict(completed or {}).items()
        }
        # Running sum of self._completed's values, so the shard layer's
        # fallback mean is O(1) per live region.
        self._completed_sum = sum(self._completed.values())
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
        # Regions handed out and not yet completed, published or failed.
        self._in_flight: dict[RegionKey, int | None] = {}
        # Published regions with shards outstanding, and regions whose
        # last shard landed but whose merge has not been reported yet.
        self._live: dict[RegionKey, _LiveRegion] = {}
        self._merging: set[RegionKey] = set()
        self._failed: set[RegionKey] = set()
        self._aborted = False
        self._steals: list[tuple[RegionKey, int | None]] = []
        self._cond = threading.Condition(threading.Lock())

    @property
    def sessions(self) -> int:
        """Number of per-session queues."""
        return len(self._queues)

    @property
    def total_tasks(self) -> int:
        """Number of schedulable regions (pre-completed ones excluded)."""
        return self._total

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(
        self, worker_session: int | None = None, *, block: bool = False
    ) -> RegionTask | ShardTask | None:
        """The next region or shard for a worker, or ``None``.

        Preference order: the worker's home queue (``worker_session``,
        drained in plan order), then a stolen whole region, then a
        shard of the costliest live region.  ``worker_session=None``
        means the caller has no home queue (the job service's fleet,
        which serves many jobs) and always steals.

        With ``block=False`` the call returns ``None`` as soon as there
        is nothing to take.  With ``block=True`` it waits while the
        queues are momentarily empty but units are still in flight --
        a presplit may publish shards, a departing worker may hand its
        unit back -- and returns ``None`` only once every region has
        completed, merged or failed (or the scheduler was aborted).
        Only a sharded crawl needs to block: without presplits, a dry
        queue stays dry for every worker still pulling.
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
                if task is None:
                    task = self._acquire_shard_locked(worker_session)
                if task is not None:
                    return task
                if not block or self._drained_locked():
                    return None
                self._cond.wait()

    def _acquire_region_locked(
        self, worker_session: int | None
    ) -> RegionTask | None:
        # Caller holds self._cond.
        if worker_session is not None and (
            0 <= worker_session < len(self._queues)
        ):
            own = self._queues[worker_session]
            if own:
                task = own.popleft()
                self._in_flight[task.key] = worker_session
                return task
        # A steal (the home queue, if any, is empty): the tail of the
        # longest queue, the lowest session on ties (max keeps the first).
        victim = max(self._queues, key=len, default=None)
        if not victim:
            return None
        task = victim.pop()
        self._in_flight[task.key] = worker_session
        self._steals.append((task.key, worker_session))
        return task

    def _acquire_shard_locked(
        self, worker_session: int | None
    ) -> ShardTask | None:
        # Caller holds self._cond.  Victim: largest estimated remaining
        # shard cost; ties broken by the lowest region key.
        best_key: RegionKey | None = None
        best_score = -1.0
        region_mean = (
            self._completed_sum / len(self._completed)
            if self._completed
            else 1.0
        )
        for key, live in self._live.items():
            if live.failed or not live.pending:
                continue
            if live.results:
                costs = [result.cost for result in live.results.values()]
                mean = sum(costs) / len(costs)
            else:
                # A live region has at least one shard (see publish).
                mean = region_mean / len(live.plan.shards)
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
        # Caller holds self._cond.
        if any(self._queues):
            return False
        return not (self._in_flight or self._live or self._merging)

    # ------------------------------------------------------------------
    # Region lifecycle
    # ------------------------------------------------------------------
    def complete(self, task: RegionTask, cost: int) -> None:
        """Mark an in-flight region finished with its exact query cost.

        After :meth:`abort` the call degrades to a no-op for tasks the
        abort already wrote off -- a surviving worker reporting a
        result it was mid-crawl on must drain quietly, not crash.
        """
        with self._cond:
            if not self._check_in_flight(task):
                return
            del self._in_flight[task.key]
            self._record_locked(task.key, cost)
            self._cond.notify_all()

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
            self._cond.notify_all()
            if plan.shards:
                pending = deque(
                    ShardTask(task.session, task.index, task.region, shard)
                    for shard in plan.shards
                )
                self._live[task.key] = _LiveRegion(task, plan, pending)
                return None
            self._merging.add(task.key)
            return RegionCompletion(task=task, plan=plan, results=())

    def complete_shard(
        self, task: ShardTask, result
    ) -> RegionCompletion | None:
        """File one shard's result; its exact cost scores the region.

        Returns the region's :class:`RegionCompletion` when this was
        its last outstanding shard (and the region did not fail).
        """
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
            self._cond.notify_all()
            if live.failed:
                self._drop_if_drained_locked(task.key, live)
                return None
            if live.pending or live.in_flight > 0:
                return None
            del self._live[task.key]
            self._merging.add(task.key)
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
            self._cond.notify_all()
            if self._aborted:
                return
            self._merging.discard(key)
            self._record_locked(key, cost)

    def _record_locked(self, key: RegionKey, cost: int) -> None:
        # Caller holds self._cond.
        cost = int(cost)
        self._completed_sum += cost - self._completed.get(key, 0)
        self._completed[key] = cost

    # ------------------------------------------------------------------
    # Failure and departure
    # ------------------------------------------------------------------
    def fail(self, task: RegionTask | ShardTask) -> None:
        """Mark an in-flight region (or presplit) or shard as failed.

        A shard failure fails its whole region: the region's queued
        shards are dropped, in-flight siblings are drained silently,
        and the region is never merged.
        """
        with self._cond:
            if isinstance(task, ShardTask):
                live = self._live_of_locked(task, "")
                if live is not None:
                    live.in_flight -= 1
                    self._fail_live_locked(task.key, live)
                return
            if not self._check_in_flight(task):
                return
            del self._in_flight[task.key]
            self._failed.add(task.key)
            self._cond.notify_all()

    def fail_region(self, key: RegionKey) -> None:
        """Mark a region failed after its merge step raised."""
        with self._cond:
            self._merging.discard(key)
            self._failed.add(key)
            self._cond.notify_all()

    def requeue(self, task: RegionTask | ShardTask) -> bool:
        """Hand a departed worker's region or shard back for another.

        The departed-worker contract: when a worker leaves a running
        crawl (:class:`~repro.exceptions.WorkerDeparted`), its acquired
        unit goes back to the scheduler instead of failing the session
        -- any surviving (or newly joined) worker picks it up next, and
        the crawl completes with full parity.  A region returns to the
        front of its own session's queue, so plan order is preserved
        for that session's next acquirer; a shard returns to the front
        of its live region's pending shards.  Every call counts one
        departure; past :attr:`max_departures` the unit is failed
        instead and ``False`` returned -- the caller files the failure.

        Also returns ``False`` (dropping the unit silently) when an
        abort, or a sibling shard's failure, already wrote it off;
        raises :class:`~repro.exceptions.AlgorithmInvariantError` if
        the unit was never in flight -- only an acquirer may hand work
        back.

        Examples
        --------
        ::

            task = scheduler.acquire(0)
            scheduler.requeue(task)            # the worker departed
            assert scheduler.acquire(0) == task  # another worker resumes
        """
        with self._cond:
            self._cond.notify_all()
            if isinstance(task, ShardTask):
                live = self._live_of_locked(
                    task, "; only its acquirer may requeue it"
                )
                if live is None:
                    return False
                live.in_flight -= 1
                if live.failed:
                    # A sibling shard already failed the whole region;
                    # the returned shard drains like a late completion.
                    self._drop_if_drained_locked(task.key, live)
                    return False
                if not self._departed_locked():
                    self._fail_live_locked(task.key, live)
                    return False
                live.pending.appendleft(task)
                return True
            if task.key not in self._in_flight:
                if self._aborted:
                    return False
                raise AlgorithmInvariantError(
                    f"region {task.key} is not in flight; only its "
                    "acquirer may requeue it"
                )
            del self._in_flight[task.key]
            if not self._departed_locked():
                self._failed.add(task.key)
                return False
            self._queues[task.session].appendleft(task)
            return True

    def _departed_locked(self) -> bool:
        # Caller holds self._cond.  Counts one departure; False once
        # the bound is spent.
        self.departures += 1
        return self.departures <= self.max_departures

    def _check_in_flight(self, task: RegionTask) -> bool:
        # Caller holds self._cond.  Returns False when the task should
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

    def _live_of_locked(
        self, task: ShardTask, hint: str
    ) -> _LiveRegion | None:
        # Caller holds self._cond.  The shard's live region; None when
        # an abort wrote the region off, raising on a protocol error.
        live = self._live.get(task.key)
        if live is None and not self._aborted:
            raise AlgorithmInvariantError(
                f"shard {task.shard.order} of region {task.key} is not "
                f"in flight{hint}"
            )
        return live

    def _fail_live_locked(self, key: RegionKey, live: _LiveRegion) -> None:
        # Caller holds self._cond and has already retired the shard.
        live.pending.clear()
        if not live.failed:
            live.failed = True
            self._failed.add(key)
        self._drop_if_drained_locked(key, live)
        self._cond.notify_all()

    def _drop_if_drained_locked(self, key: RegionKey, live) -> None:
        # Caller holds self._cond.  A failed region leaves the books
        # once its last in-flight shard has reported back.
        if live.in_flight == 0 and not live.pending:
            del self._live[key]

    def abort(self) -> None:
        """Discard all unfinished work so every worker drains out.

        The escape hatch for irrecoverable worker loss (a pool process
        dying without reporting back, which would otherwise leave its
        in-flight unit blocking the drain forever): queued, in-flight,
        live and merging regions are marked failed, waiters blocked in
        :meth:`acquire` wake up, and subsequent :meth:`acquire` calls
        return ``None``.  Completed regions keep their exact recorded
        costs, and surviving workers that report an aborted unit
        afterwards are drained silently instead of tripping the
        exactly-once check.

        Idempotent and safe against concurrent workers: abort-on-abort
        only re-notifies the waiters, and a worker racing
        :meth:`acquire` either gets a task the abort writes off or
        observes the aborted state and drains.

        Examples
        --------
        ::

            task = scheduler.acquire(0)
            scheduler.abort()
            scheduler.abort()               # no-op, still aborted
            scheduler.complete(task, 5)     # silently dropped
            assert scheduler.acquire(0) is None
        """
        with self._cond:
            self._cond.notify_all()
            if self._aborted:
                return
            self._aborted = True
            for queue in self._queues:
                while queue:
                    self._failed.add(queue.pop().key)
            for written_off in (self._in_flight, self._live, self._merging):
                self._failed.update(written_off)
                written_off.clear()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def remaining(self) -> int:
        """Regions not yet completed, merged or failed (any stage)."""
        with self._cond:
            queued = sum(len(q) for q in self._queues)
            return (
                queued
                + len(self._in_flight)
                + len(self._live)
                + len(self._merging)
            )

    def done(self) -> bool:
        """``True`` once every region has completed or failed."""
        return self.remaining() == 0

    def completed_costs(self) -> dict[RegionKey, int]:
        """Exact observed cost per completed region."""
        with self._cond:
            return dict(self._completed)

    def failed_keys(self) -> set[RegionKey]:
        """Plan positions of regions whose crawl raised."""
        with self._cond:
            return set(self._failed)

    def total_observed_cost(self) -> int:
        """Sum of the completed regions' costs -- exact, by construction."""
        with self._cond:
            return self._completed_sum

    def steals(self) -> list[tuple[RegionKey, int | None]]:
        """Every steal that happened: (region key, thief's session)."""
        with self._cond:
            return list(self._steals)

    def __repr__(self) -> str:
        with self._cond:
            queued = sum(len(q) for q in self._queues)
            return (
                f"WorkStealingScheduler({self._total} regions: "
                f"{queued} queued, {len(self._in_flight)} in flight, "
                f"{len(self._live)} live, {len(self._merging)} merging, "
                f"{len(self._completed)} done, {len(self._failed)} failed, "
                f"{len(self._steals)} steals)"
            )
