"""The crawl runtime: one transport-agnostic drive loop for every backend.

The paper's optimality argument is about *which queries* a crawl issues,
never about *where* they run.  The execution layer has three backends
(sequential, thread, process), each with or without rebalancing (and,
when stealing, subtree sharding), and the dispatch logic for all of
them lives here, once.  It
owns the **session lifecycle state machine** over
:class:`~repro.crawl.rebalance.RegionTask` /
:class:`~repro.crawl.rebalance.ShardTask` units -- acquire, run,
complete / publish / merge, fail, abort-drain -- plus the aggregator and
estimator feedback, parameterised by one small protocol and one sink:

:class:`UnitRunner`
    *How one unit of work executes* on a substrate: crawl a region,
    presplit it, crawl one subtree shard.  The in-process backends use
    :class:`LocalUnitRunner` over the caller's sources; the process
    backend and the job service use
    :class:`~repro.crawl.executors.PoolUnitRunner`, whose blocking calls
    ship each unit to a pool worker running a :class:`LocalUnitRunner`
    over its unpickled source copies.
:class:`GridSink`
    *Where outcomes go*: the parent files each one straight into the
    result grid as it lands.

Two pull loops cover every backend x feature combination; in each, a
parent thread asks for its own next unit and waits on the runner:

* :func:`drive_session` -- static dispatch: one session's bundle in
  plan order (every backend without rebalancing);
* :func:`drive_stealing` -- the work-stealing loop, one-level
  (:class:`~repro.crawl.rebalance.WorkStealingScheduler`) or two-level
  (:class:`~repro.crawl.rebalance.SubtreeScheduler`), run by the
  pooled backends' workers.

Subtree sharding lives in the stealing loop alone: under
``shard_subtrees=N`` :func:`drive_stealing` presplits every region it
takes into at most ``N`` shards, so idle workers can take the shards of
a heavy region.  Static dispatch crawls each region whole -- its
shards would run one after another on the thread that took the region,
which buys nothing.  Because sharding is result-invariant (an exact
prefix decomposition; see :mod:`repro.crawl.sharding`), either way
yields the same merged bytes.

Determinism contract: nothing in this module may influence *what* a
region crawl computes -- only when and where it runs.  Every unit files
its result at its plan position, failures are ranked by lowest plan
position after a full drain, and the merge in
:class:`~repro.crawl.executors.CrawlExecutor` stays byte-identical to
the sequential reference.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Mapping, Sequence

from repro.crawl import profiling
from repro.crawl.base import (
    Crawler,
    CrawlResult,
    ProgressAggregator,
    ProgressPoint,
)
from repro.crawl.partition import PartitionPlan, _crawl_region
from repro.crawl.rebalance import (
    RegionCompletion,
    RegionKey,
    RegionTask,
    ShardTask,
    SubtreeScheduler,
    WorkStealingScheduler,
)
from repro.crawl.sharding import (
    crawl_shard,
    merge_region_shards,
    presplit_region,
)
from repro.exceptions import WorkerDeparted

__all__ = [
    "AggregatorFeed",
    "UnitRunner",
    "LocalUnitRunner",
    "GridSink",
    "crawl_region_unit",
    "requeue_departed",
    "run_region",
    "drive_session",
    "drive_stealing",
    "steal_setup",
]

#: One recorded failure: the region's plan position and its exception
#: (:data:`~repro.crawl.rebalance.RegionKey` is the position type).
Failure = tuple[RegionKey, Exception]


class AggregatorFeed:
    """Per-session progress and terminal-state bookkeeping.

    Translates region-level progress samples into the session-level
    absolute (queries, tuples) points a
    :class:`~repro.crawl.base.ProgressAggregator` expects, tolerating
    regions of one session running concurrently (after a steal).  Also
    marks sessions ``done`` when their last region lands and ``failed``
    when a region crawl raises, so aggregator snapshots never show a
    dead worker as in-flight.

    Examples
    --------
    Executors build one feed per run and thread it through the drive
    loops; a monitor only ever talks to the aggregator::

        feed = AggregatorFeed(aggregator, plan)
        feed.region_finished(0, 0, result)  # a 7-query, 40-row region
        aggregator.totals()  # -> ProgressPoint(7, 40)
    """

    def __init__(
        self, aggregator: ProgressAggregator | None, plan: PartitionPlan
    ):
        self._aggregator = aggregator
        self._lock = threading.Lock()
        self._done = [[0, 0] for _ in plan.bundles]
        # Live points keyed by the unit's live_key -- a region and the
        # subtree shards split off it report independently.
        self._live: list[dict[tuple, ProgressPoint]] = [
            {} for _ in plan.bundles
        ]
        self._outstanding = [len(bundle) for bundle in plan.bundles]
        if aggregator is not None:
            for session, bundle in enumerate(plan.bundles):
                if not bundle:
                    aggregator.mark_done(session)

    def listener(
        self, task: RegionTask | ShardTask
    ) -> Callable[[ProgressPoint], None] | None:
        """The progress listener to attach to ``task``'s crawler."""
        if self._aggregator is None:
            return None

        def report(point: ProgressPoint) -> None:
            # The aggregator call stays under the feed lock: computing
            # the total and publishing it must be atomic, or a stale
            # total from a preempted worker could overwrite a newer one
            # (regions of one session run concurrently after a steal).
            with self._lock:
                self._live[task.session][task.live_key] = point
                self._aggregator.report(
                    task.session, self._session_total(task.session)
                )

        return report

    def _session_total(self, session: int) -> ProgressPoint:
        # Caller holds self._lock.
        queries, tuples = self._done[session]
        for point in self._live[session].values():
            queries += point.queries
            tuples += point.tuples
        return ProgressPoint(queries, tuples)

    def region_finished(
        self, session: int, index: int, result: CrawlResult
    ) -> None:
        """Fold a region's merged result, clearing its live units.

        With subtree sharding, a region's trunk and each of its shards
        report live points under separate keys; once the region merges,
        every key of that region (``live_key[1] == index``) is replaced
        by the exact merged totals.
        """
        if self._aggregator is None:
            return
        with self._lock:
            live = self._live[session]
            for key in [k for k in live if k[1] == index]:
                del live[key]
            self._done[session][0] += result.cost
            self._done[session][1] += len(result.rows)
            self._outstanding[session] -= 1
            # Atomic with the total's computation; see listener().
            self._aggregator.report(session, self._session_total(session))
            if self._outstanding[session] == 0:
                self._aggregator.mark_done(session)

    def failed_session(self, session: int) -> None:
        """Mark ``session`` failed (a region or shard of it raised)."""
        if self._aggregator is None:
            return
        self._aggregator.mark_failed(session)

    def cancelled(self, session: int) -> None:
        """Mark a session the executor abandoned before running it.

        A no-op for sessions already terminal (e.g. an empty bundle
        marked done at construction).
        """
        if self._aggregator is None:
            return
        if not self._aggregator.state(session).terminal:
            self._aggregator.mark_cancelled(session)


# ----------------------------------------------------------------------
# The backend protocol: how a unit runs, where its outcome goes
# ----------------------------------------------------------------------
class UnitRunner(abc.ABC):
    """How one unit of work executes on a backend's substrate.

    The drive loops never touch sources, crawlers or caches directly;
    they hand each acquired unit to a runner.  A runner must be safe to
    call from several workers at once (the in-process backends share
    one across their worker threads).

    Examples
    --------
    The built-in :class:`LocalUnitRunner` covers every backend; a test
    double only needs the three unit methods::

        class Recording(UnitRunner):
            def region(self, task):
                return crawl_somehow(task)
            def presplit(self, task, max_shards):
                raise NotImplementedError
            def shard(self, task):
                raise NotImplementedError
    """

    @abc.abstractmethod
    def region(self, task: RegionTask) -> CrawlResult:
        """Crawl one whole region."""

    @abc.abstractmethod
    def presplit(self, task: RegionTask, max_shards: int):
        """Presplit one region into a trunk + subtree shard plan."""

    @abc.abstractmethod
    def shard(self, task: ShardTask) -> CrawlResult:
        """Crawl one subtree shard of a presplit region."""

    def region_boundary(self) -> None:
        """Hook fired after each unit completes or fails.

        The lease-batching seam: the process backend's pool workers
        return unused :class:`~repro.server.limits.LimitLease` chunks
        to the shared-limit control plane here, so admission headroom
        never idles in a worker past the unit that leased it.
        In-process backends need nothing (they share the limit objects
        by reference) and inherit this no-op.
        """


class LocalUnitRunner(UnitRunner):
    """Run units against in-memory sources, one fresh crawler per unit.

    The one runner that crawls: the parent's worker threads run it over
    the caller's sources (with live progress listeners wired to an
    :class:`AggregatorFeed`), and each process pool worker builds one
    over its unpickled source copies (no feed -- progress advances when
    the unit's result reaches the parent).  ``stubs`` are the
    shared-limit stubs the sources admit through (see
    :mod:`repro.crawl.coordinator`); the region boundary flushes them.

    Examples
    --------
    ::

        runner = LocalUnitRunner(
            sources, Hybrid, allow_partial=False, feed=feed
        )
        result = runner.region(RegionTask(0, 0, region))
    """

    def __init__(
        self,
        sources: Sequence,
        crawler_factory: Callable[..., Crawler],
        allow_partial: bool,
        *,
        feed: AggregatorFeed | None = None,
        stubs: Sequence = (),
    ):
        self._sources = sources
        self._factory = crawler_factory
        self._allow_partial = allow_partial
        self._feed = feed
        self._stubs = tuple(stubs)

    def _listener(self, task):
        if self._feed is None:
            return None
        return self._feed.listener(task)

    def region(self, task: RegionTask) -> CrawlResult:
        """Crawl one whole region against its session's source."""
        prof = profiling.active()
        start = profiling.clock() if prof is not None else 0.0
        try:
            return _crawl_region(
                self._sources[task.session],
                task.region,
                crawler_factory=self._factory,
                allow_partial=self._allow_partial,
                listener=self._listener(task),
            )
        finally:
            if prof is not None:
                prof.record("runtime.region", profiling.clock() - start)

    def presplit(self, task: RegionTask, max_shards: int):
        """Presplit one region; the trunk's progress reports live."""
        prof = profiling.active()
        start = profiling.clock() if prof is not None else 0.0
        try:
            return presplit_region(
                self._sources[task.session],
                task.region,
                crawler_factory=self._factory,
                allow_partial=self._allow_partial,
                max_shards=max_shards,
                listener=self._listener(task),
            )
        finally:
            if prof is not None:
                prof.record("runtime.presplit", profiling.clock() - start)

    def shard(self, task: ShardTask) -> CrawlResult:
        """Crawl one subtree shard against its session's source."""
        prof = profiling.active()
        start = profiling.clock() if prof is not None else 0.0
        try:
            return crawl_shard(
                self._sources[task.session],
                task.region,
                task.shard,
                allow_partial=self._allow_partial,
                listener=self._listener(task),
            )
        finally:
            if prof is not None:
                prof.record("runtime.shard", profiling.clock() - start)

    def region_boundary(self) -> None:
        """Return the stubs' leased headroom to the control plane."""
        for stub in self._stubs:
            stub.flush()


class GridSink:
    """Where a drive loop files unit outcomes: the grid, failures ranked.

    Owns the mutable result grid and failure list the executor's
    deterministic merge consumes, plus the :class:`AggregatorFeed`
    that keeps live progress truthful.  The executors build one per
    crawl and the job service one per job.  Thread-safe: the worker
    threads of every pooled backend file through one instance,
    whichever substrate ran the unit.

    Examples
    --------
    ::

        sink = GridSink(plan, feed)
        drive_session(0, plan.bundles[0], runner, sink)
        sink.grid[0][0]      # the region's CrawlResult
        sink.failures        # [] on success

    ``completed`` pre-files already-crawled results (a resumed crawl's
    checkpoint) into the grid -- they advance the progress totals but
    never fire ``on_region``, which is the checkpoint-writer callback
    invoked (thread-safely, by whichever worker files the region) for
    every *newly* completed region.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        feed: AggregatorFeed,
        completed: Mapping[RegionKey, CrawlResult] | None = None,
        on_region: Callable[[RegionKey, CrawlResult], None] | None = None,
    ):
        self.grid: list[list[CrawlResult | None]] = [
            [None] * len(bundle) for bundle in plan.bundles
        ]
        self.failures: list[Failure] = []
        self.feed = feed
        self._on_region = on_region
        self._lock = threading.Lock()
        for (session, index), result in sorted((completed or {}).items()):
            self.grid[session][index] = result
            self.feed.region_finished(session, index, result)

    def region_done(self, key: RegionKey, result: CrawlResult) -> None:
        """File the result and advance the session's progress totals."""
        session, index = key
        self.grid[session][index] = result
        self.feed.region_finished(session, index, result)
        if self._on_region is not None:
            self._on_region(key, result)

    def region_failed(
        self, key: RegionKey, session: int, exc: Exception
    ) -> None:
        """Record the failure and mark the session failed."""
        with self._lock:
            self.failures.append((key, exc))
        self.feed.failed_session(session)


# ----------------------------------------------------------------------
# The drive loops: the one session lifecycle state machine
# ----------------------------------------------------------------------
def crawl_region_unit(task: RegionTask, runner: UnitRunner):
    """Crawl one whole region unit and *raise* on failure.

    The raising core of :func:`run_region`: crawl ``task``'s region
    through ``runner`` and return the
    :class:`~repro.crawl.parallel.CrawlResult`.  The runner's region
    boundary is always flushed, success or failure, so leased budget
    headroom never outlives the attempt.  Callers that must distinguish
    failure *kinds* (the job service treats :class:`WorkerDeparted` as
    retriable, everything else as a region failure) use this directly;
    drive loops that only need pass/fail wrap it via :func:`run_region`.

    When the profiling seam (:mod:`repro.crawl.profiling`) is active,
    ``runtime.region_unit`` times the whole attempt and
    :class:`LocalUnitRunner` records the ``runtime.region`` crawl inside
    it.  Timers only read wall clocks around the existing calls; the
    queries issued and the result returned are identical with profiling
    on or off.
    """
    prof = profiling.active()
    start = profiling.clock() if prof is not None else 0.0
    try:
        return runner.region(task)
    finally:
        runner.region_boundary()
        if prof is not None:
            prof.record("runtime.region_unit", profiling.clock() - start)


def run_region(task: RegionTask, runner: UnitRunner, sink: GridSink) -> bool:
    """Run one whole region end to end and file its outcome.

    The smallest complete unit of work the runtime knows: crawl
    ``task``'s region through ``runner``, file the outcome into
    ``sink``, and flush the runner's region boundary.  Returns whether
    the region succeeded; the failure is filed, never raised.  Static
    dispatch (:func:`drive_session`) bottoms out here.

    Examples
    --------
    ::

        ok = run_region(RegionTask(0, 0, region), runner, sink)
    """
    try:
        result = crawl_region_unit(task, runner)
    except Exception as exc:  # noqa: BLE001 - filed, never raised
        sink.region_failed(task.key, task.session, exc)
        return False
    sink.region_done(task.key, result)
    return True


def requeue_departed(scheduler, task, sink: GridSink, exc) -> bool:
    """Hand a departed worker's unit back, or file it as given up.

    Every drive shape (and the job service's fleet) treats
    :class:`~repro.exceptions.WorkerDeparted` the same way: the worker
    is gone, not the unit, so the unit goes back to the scheduler.  The
    scheduler bounds the departures it takes back; past the bound it
    fails the unit and this files a ``WorkerDeparted`` saying so, which
    is how a fleet whose every replacement departs ends loudly.
    Returns whether the unit was requeued.
    """
    if scheduler.requeue(task):
        return True
    if scheduler.departures > scheduler.max_departures:
        gave_up = WorkerDeparted(
            f"{exc}; giving up after {scheduler.departures} departures"
        )
        sink.region_failed(task.key, task.session, gave_up)
    return False


def drive_session(
    session: int,
    bundle: Sequence,
    runner: UnitRunner,
    sink: GridSink,
    skip: frozenset[RegionKey] = frozenset(),
) -> bool:
    """Static dispatch: crawl one session's regions in plan order.

    Stops at the session's first failure (later regions of a failed
    session are never crawled -- exactly the sequential semantics) and
    reports whether the whole bundle succeeded.  Each region crawls
    whole.  ``skip`` holds plan positions a resumed crawl already
    completed (pre-filed into the sink by the executor); they are never
    re-crawled.

    Examples
    --------
    One thread per session is the whole static dispatch of both pooled
    backends::

        for session in range(plan.sessions):
            pool.submit(
                drive_session, session, plan.bundles[session],
                runner, sink,
            )
    """
    for index, region in enumerate(bundle):
        if (session, index) in skip:
            continue
        if not run_region(RegionTask(session, index, region), runner, sink):
            return False
    return True


def _finish_completion(
    scheduler: SubtreeScheduler,
    completion: RegionCompletion,
    sink: GridSink,
) -> None:
    """Merge a drained region's shards and file the result."""
    task = completion.task
    try:
        result = merge_region_shards(completion.plan, completion.results)
    except Exception as exc:  # noqa: BLE001 - re-raised after the drain
        scheduler.fail_region(task.key)
        sink.region_failed(task.key, task.session, exc)
        return
    scheduler.complete_region(task.key, result.cost)
    sink.region_done(task.key, result)


def _transition(
    scheduler,
    task: RegionTask | ShardTask,
    payload,
    sink: GridSink,
    presplit: bool,
) -> bool:
    """Advance the state machine after one unit ran successfully.

    ``payload`` is the unit's output (a :class:`CrawlResult`, or a
    region's shard plan when ``presplit``).  Returns whether a
    region-level boundary was crossed (a region completed or merged).
    """
    if isinstance(task, ShardTask):
        completion = scheduler.complete_shard(task, payload)
    elif presplit:
        completion = scheduler.publish(task, payload)
    else:
        scheduler.complete(task, payload.cost)
        sink.region_done(task.key, payload)
        return True
    if completion is not None:
        _finish_completion(scheduler, completion, sink)
        return True
    return False


def drive_stealing(
    scheduler,
    home_session: int | None,
    runner: UnitRunner,
    sink: GridSink,
    shard_subtrees: int | None = None,
) -> bool:
    """One worker's work-stealing pull loop, any runner.

    Drains the scheduler until it runs dry: acquire the next unit
    (own-session regions first, then stolen regions, then -- under a
    :class:`~repro.crawl.rebalance.SubtreeScheduler` -- subtree shards
    of the costliest live region), execute it through ``runner``, and
    advance the scheduler's state machine (complete / publish /
    merge-on-last-shard / fail).  With ``shard_subtrees=N`` (which needs
    the :class:`~repro.crawl.rebalance.SubtreeScheduler` that
    :func:`steal_setup` builds for it) every region taken is presplit
    into at most ``N`` shards; whichever worker lands a region's last
    shard performs the deterministic merge and files the result at the
    region's plan position.

    Returns ``True`` when the loop ran the scheduler dry, ``False``
    when the worker *departed* mid-crawl: a unit that raises
    :class:`~repro.exceptions.WorkerDeparted` goes through
    :func:`requeue_departed` (back to the surviving fleet, or failed
    once the scheduler's departure bound is spent), and the loop
    returns so the transport can replace the worker.  Either way the
    runner's region boundary runs in a ``finally``, so a runner holding
    leased budget headroom always returns it -- budget accounting stays
    exact on every exit path, including hard failures.

    Examples
    --------
    ::

        scheduler = WorkStealingScheduler(plan.bundles)
        drive_stealing(scheduler, home_session=0, runner=runner,
                       sink=sink)
        assert scheduler.done()
    """
    presplit = shard_subtrees is not None
    try:
        while True:
            task = scheduler.acquire(home_session)
            if task is None:
                return True
            try:
                if isinstance(task, ShardTask):
                    payload = runner.shard(task)
                elif presplit:
                    payload = runner.presplit(task, shard_subtrees)
                else:
                    payload = runner.region(task)
            except WorkerDeparted as exc:
                requeue_departed(scheduler, task, sink, exc)
                return False
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                scheduler.fail(task)
                sink.region_failed(task.key, task.session, exc)
                runner.region_boundary()
                continue
            if _transition(scheduler, task, payload, sink, presplit):
                runner.region_boundary()
    finally:
        runner.region_boundary()


def steal_setup(
    plan: PartitionPlan,
    shard_subtrees: int | None = None,
    completed: Mapping[RegionKey, int] | None = None,
) -> tuple[WorkStealingScheduler, int]:
    """Build the right scheduler for a rebalanced run.

    Returns ``(scheduler, upper)``: a two-level
    :class:`~repro.crawl.rebalance.SubtreeScheduler` under
    ``shard_subtrees=N`` (subtree shards expose more parallelism than
    whole regions alone, so ``upper`` -- the number of workers the plan
    can keep busy -- grows to at least ``N``), otherwise a plain
    :class:`~repro.crawl.rebalance.WorkStealingScheduler`.  The one
    place that decides between one- and two-level stealing, so the
    transports cannot drift apart in how they wire the loops.
    ``completed`` maps a resumed crawl's already-finished plan
    positions to their costs; the scheduler never queues them but
    seeds its estimator from their true costs.
    """
    if shard_subtrees is not None:
        scheduler: WorkStealingScheduler = SubtreeScheduler(
            plan.bundles, completed
        )
        return scheduler, max(1, scheduler.total_tasks, shard_subtrees)
    scheduler = WorkStealingScheduler(plan.bundles, completed)
    return scheduler, max(1, scheduler.total_tasks)
