"""The crawl runtime: one transport-agnostic drive loop for every backend.

The paper's optimality argument is about *which queries* a crawl issues,
never about *where* they run.  The execution layer has three backends
(sequential, thread, process), each times rebalancing and subtree
sharding, and the dispatch logic for all of them lives here, once.  It
owns the **session lifecycle state machine** over
:class:`~repro.crawl.rebalance.RegionTask` /
:class:`~repro.crawl.rebalance.ShardTask` units -- acquire, run,
complete / publish / merge, fail, abort-drain -- plus the aggregator and
estimator feedback, parameterised by two small protocols:

:class:`UnitRunner`
    *How one unit of work executes* on a substrate: crawl a region,
    presplit it, crawl one subtree shard.  The in-process backends use
    :class:`LocalUnitRunner` over the caller's sources; the process
    backend and the job service use
    :class:`~repro.crawl.executors.PoolUnitRunner`, which ships each
    unit to a pool worker running a :class:`LocalUnitRunner` over its
    unpickled source copies.
:class:`ResultSink`
    *Where outcomes go*: the parent files them straight into the result
    grid (:class:`GridSink`); a pool worker batches them for the return
    trip (:class:`BatchSink`).

Three drive shapes cover every backend x feature combination:

* :func:`drive_session` -- static dispatch: one session's bundle in
  plan order (every backend without rebalancing);
* :func:`drive_stealing` -- the work-stealing loop, one-level
  (:class:`~repro.crawl.rebalance.WorkStealingScheduler`) or two-level
  (:class:`~repro.crawl.rebalance.SubtreeScheduler`), run by the
  thread backend's workers;
* :func:`drive_futures` -- the parent-side dispatcher for transports
  whose unit execution returns futures (the process backend's
  rebalanced mode).

:class:`ShardPolicy` decides which regions are presplit into subtree
shards and how finely -- uniformly (the classic ``shard_subtrees=N``)
or adaptively (``"auto"``: only regions whose estimated cost exceeds
the fleet's fair share).  Because sharding is result-invariant (an
exact prefix decomposition; see :mod:`repro.crawl.sharding`), any
policy yields the same merged bytes.

Determinism contract: nothing in this module may influence *what* a
region crawl computes -- only when and where it runs.  Every unit files
its result at its plan position, failures are ranked by lowest plan
position after a full drain, and the merge in
:class:`~repro.crawl.executors.CrawlExecutor` stays byte-identical to
the sequential reference.
"""

from __future__ import annotations

import abc
import math
import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
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
    CostEstimator,
    RegionCompletion,
    RegionKey,
    RegionTask,
    ShardTask,
    SubtreeScheduler,
    WorkStealingScheduler,
)
from repro.crawl.sharding import (
    DEFAULT_MAX_SHARDS,
    crawl_shard,
    merge_region_shards,
    presplit_region,
)
from repro.exceptions import WorkerDeparted

__all__ = [
    "AggregatorFeed",
    "UnitRunner",
    "LocalUnitRunner",
    "ResultSink",
    "GridSink",
    "BatchSink",
    "ShardPolicy",
    "crawl_region_unit",
    "requeue_departed",
    "run_region",
    "drive_session",
    "drive_stealing",
    "drive_futures",
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
        flush unused :class:`~repro.server.limits.LimitLease` chunks
        and buffered stats back to the shared-limit control plane here,
        so admission headroom never idles in a worker past the unit
        that leased it.  In-process backends need nothing (they share
        the limit objects by reference) and inherit this no-op.
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
        """Return leased headroom and land buffered stats of the stubs."""
        for stub in self._stubs:
            stub.flush()


class ResultSink(abc.ABC):
    """Where a drive loop files unit outcomes.

    Exactly two implementations exist -- :class:`GridSink` in the
    parent, :class:`BatchSink` in pool workers -- and the drive loops
    cannot tell them apart, which is what makes one loop serve both
    in-process and cross-process transports.
    """

    @abc.abstractmethod
    def region_done(self, key: RegionKey, result: CrawlResult) -> None:
        """File one region's (merged) result at its plan position."""

    @abc.abstractmethod
    def region_failed(
        self, key: RegionKey, session: int, exc: Exception
    ) -> None:
        """Record a region (or shard) failure at its plan position."""


class GridSink(ResultSink):
    """The parent-side sink: results into the grid, failures ranked.

    Owns the mutable result grid and failure list the executor's
    deterministic merge consumes, plus the :class:`AggregatorFeed`
    that keeps live progress truthful.  Thread-safe: worker threads of
    the in-process backends all file through one instance.

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

    def file_batch(
        self,
        results: list[tuple[RegionKey, CrawlResult]],
        failures: list[Failure],
        *,
        update_feed: bool = True,
    ) -> None:
        """Fold a pool worker's returned batch into the grid.

        ``update_feed=False`` files without touching the aggregator
        feed -- for failures with no region of their own to attribute
        (a dead worker, an empty bundle).
        """
        for key, result in results:
            if update_feed:
                self.region_done(key, result)
            else:
                self.grid[key[0]][key[1]] = result
        for key, exc in failures:
            if update_feed:
                self.region_failed(key, key[0], exc)
            else:
                with self._lock:
                    self.failures.append((key, exc))


class BatchSink(ResultSink):
    """The pool-worker sink: batch results for the return trip.

    A static process session runs its whole bundle in one pool task;
    its outcomes accumulate here and pickle back as one batch, which
    the parent files with :meth:`GridSink.file_batch`.

    Examples
    --------
    ::

        sink = BatchSink()
        drive_session(0, bundle, runner, sink)
        results, failures = sink.batch
    """

    def __init__(self):
        self._results: list[tuple[RegionKey, CrawlResult]] = []
        self._failures: list[Failure] = []

    def region_done(self, key: RegionKey, result: CrawlResult) -> None:
        """Batch the result."""
        self._results.append((key, result))

    def region_failed(
        self, key: RegionKey, session: int, exc: Exception
    ) -> None:
        """Batch the failure."""
        self._failures.append((key, exc))

    @property
    def batch(
        self,
    ) -> tuple[list[tuple[RegionKey, CrawlResult]], list[Failure]]:
        """The worker's return payload: (completed results, failures)."""
        return self._results, self._failures


# ----------------------------------------------------------------------
# Shard policy: which regions presplit, and how finely
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPolicy:
    """Which regions are presplit into subtree shards, and how finely.

    ``budgets`` maps a region's plan position to its ``max_shards``
    target; regions absent from the map crawl whole.  Policies are
    plain data (picklable into pool workers) and -- because subtree
    sharding is result-invariant -- *any* policy produces the same
    merged bytes; the policy only decides where scheduling effort is
    spent.

    Examples
    --------
    The classic fixed target presplits every region; the adaptive
    planner spends shards only on regions estimated to exceed the
    fleet's fair share::

        uniform = ShardPolicy.uniform(plan, 8)
        auto = ShardPolicy.adaptive(plan, estimator, workers=4)
        auto.budget_for((0, 0))   # int target, or None (crawl whole)
    """

    budgets: Mapping[RegionKey, int]

    def budget_for(self, key: RegionKey) -> int | None:
        """The region's shard target, or ``None`` to crawl it whole."""
        return self.budgets.get(key)

    @property
    def max_budget(self) -> int:
        """The largest per-region shard target (0 when none presplit)."""
        return max(self.budgets.values(), default=0)

    @property
    def sharded(self) -> bool:
        """Whether any region is presplit under this policy."""
        return bool(self.budgets)

    @classmethod
    def uniform(cls, plan: PartitionPlan, max_shards: int) -> "ShardPolicy":
        """Presplit every region to the same ``max_shards`` target."""
        if max_shards < 1:
            raise ValueError(
                f"shard_subtrees must be positive, got {max_shards}"
            )
        budgets = {
            (session, index): max_shards
            for session, bundle in enumerate(plan.bundles)
            for index in range(len(bundle))
        }
        return cls(budgets)

    @classmethod
    def adaptive(
        cls,
        plan: PartitionPlan,
        estimator: CostEstimator | None,
        workers: int,
        *,
        target: int = DEFAULT_MAX_SHARDS,
    ) -> "ShardPolicy":
        """Presplit only regions estimated above the fleet's fair share.

        The fair share is ``total estimated cost / workers``: a region
        below it cannot be the straggler, so splitting it buys nothing
        and costs presplit overhead.  A region above it gets a shard
        target proportional to how many fair shares it spans (capped at
        ``target``), so the fleet can spread exactly the regions that
        would otherwise serialise the crawl.  With a fresh (flat)
        estimator and at least as many regions as workers, *nothing*
        is presplit -- whole-region stealing already balances that.
        """
        estimator = estimator if estimator is not None else CostEstimator()
        estimates = {
            (session, index): estimator.estimate((session, index))
            for session, bundle in enumerate(plan.bundles)
            for index in range(len(bundle))
        }
        total = sum(estimates.values())
        if not estimates or total <= 0:
            return cls({})
        fair_share = total / max(1, workers)
        budgets = {
            key: max(2, min(target, math.ceil(estimate / fair_share)))
            for key, estimate in estimates.items()
            if estimate > fair_share
        }
        return cls(budgets)

    @classmethod
    def resolve(
        cls,
        shard_subtrees: "int | str | None",
        plan: PartitionPlan,
        estimator: CostEstimator | None,
        workers: int,
    ) -> "ShardPolicy | None":
        """Map an executor's ``shard_subtrees`` argument to a policy.

        ``None`` disables sharding, an ``int`` is the uniform target,
        and ``"auto"`` selects the estimator-driven adaptive planner.
        Raises :class:`ValueError` for anything else.
        """
        if shard_subtrees is None:
            return None
        if shard_subtrees == "auto":
            return cls.adaptive(plan, estimator, workers)
        if isinstance(shard_subtrees, bool) or not isinstance(
            shard_subtrees, int
        ):
            raise ValueError(
                "shard_subtrees must be a positive int, 'auto' or None, "
                f"got {shard_subtrees!r}"
            )
        return cls.uniform(plan, shard_subtrees)


# ----------------------------------------------------------------------
# The drive loops: the one session lifecycle state machine
# ----------------------------------------------------------------------
def crawl_region_unit(task: RegionTask, runner: UnitRunner, budget=None):
    """Crawl one region unit and *raise* on failure.

    The raising core of :func:`run_region`: crawl ``task``'s region
    through ``runner`` -- as a whole, or presplit into ``budget``-sized
    subtree shards and merged back byte-identically -- and return the
    :class:`~repro.crawl.parallel.CrawlResult`.  The runner's region
    boundary is always flushed, success or failure, so leased budget
    headroom never outlives the attempt.  Callers that must distinguish
    failure *kinds* (the job service treats :class:`WorkerDeparted` as
    retriable, everything else as a region failure) use this directly;
    drive loops that only need pass/fail wrap it via :func:`run_region`.

    When the profiling seam (:mod:`repro.crawl.profiling`) is active,
    ``runtime.region_unit`` times the whole attempt; the finer phases
    (``runtime.region`` / ``runtime.presplit`` / ``runtime.shard``,
    recorded by :class:`LocalUnitRunner`, and ``runtime.merge`` by
    :func:`~repro.crawl.sharding.merge_region_shards`) are recorded at
    the seams every drive shape shares.  Timers only read wall clocks
    around the existing calls; the queries issued and the result
    returned are identical with profiling on or off.
    """
    prof = profiling.active()
    start = profiling.clock() if prof is not None else 0.0
    try:
        if budget is None:
            return runner.region(task)
        plan = runner.presplit(task, budget)
        results = [
            runner.shard(
                ShardTask(task.session, task.index, task.region, shard)
            )
            for shard in plan.shards
        ]
        return merge_region_shards(plan, results)
    finally:
        runner.region_boundary()
        if prof is not None:
            prof.record("runtime.region_unit", profiling.clock() - start)


def run_region(
    task: RegionTask,
    runner: UnitRunner,
    sink: ResultSink,
    policy: ShardPolicy | None = None,
) -> bool:
    """Run one region end to end locally (presplit+merge if budgeted).

    The smallest complete unit of work the runtime knows: crawl
    ``task``'s region through ``runner`` (as a whole, or -- when
    ``policy`` budgets the region -- presplit into subtree shards and
    merged back byte-identically), file the outcome into ``sink``, and
    flush the runner's region boundary.  Returns whether the region
    succeeded; the failure is filed, never raised.  Static dispatch
    (:func:`drive_session`) bottoms out here.

    Examples
    --------
    One region, no sharding::

        ok = run_region(RegionTask(0, 0, region), runner, sink)
    """
    budget = policy.budget_for(task.key) if policy is not None else None
    try:
        result = crawl_region_unit(task, runner, budget)
    except Exception as exc:  # noqa: BLE001 - filed, never raised
        sink.region_failed(task.key, task.session, exc)
        return False
    sink.region_done(task.key, result)
    return True


def requeue_departed(scheduler, task, sink: ResultSink, exc) -> bool:
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
    sink: ResultSink,
    policy: ShardPolicy | None = None,
    skip: frozenset[RegionKey] = frozenset(),
) -> bool:
    """Static dispatch: crawl one session's regions in plan order.

    Stops at the session's first failure (later regions of a failed
    session are never crawled -- exactly the sequential semantics) and
    reports whether the whole bundle succeeded.  With a
    :class:`ShardPolicy`, budgeted regions go through the sharded unit
    of work (presplit, shards in canonical order, merge) -- same
    result, same failure semantics.  ``skip`` holds plan positions a
    resumed crawl already completed (pre-filed into the sink by the
    executor); they are never re-crawled.

    Examples
    --------
    One worker per session is the whole static thread backend::

        for session in range(plan.sessions):
            pool.submit(
                drive_session, session, plan.bundles[session],
                runner, sink,
            )
    """
    for index, region in enumerate(bundle):
        if (session, index) in skip:
            continue
        task = RegionTask(session, index, region)
        if not run_region(task, runner, sink, policy):
            return False
    return True


def _finish_completion(
    scheduler: SubtreeScheduler,
    completion: RegionCompletion,
    sink: ResultSink,
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
    sink: ResultSink,
    presplit: bool,
) -> bool:
    """Advance the state machine after one unit ran successfully.

    ``payload`` is the unit's output (a :class:`CrawlResult`, or a
    shard plan when ``presplit``).  Returns whether a region-level
    boundary was crossed (a region completed or merged).
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
    sink: ResultSink,
    policy: ShardPolicy | None = None,
) -> bool:
    """One worker's work-stealing drive loop, any transport.

    Drains the scheduler until it runs dry: acquire the next unit
    (own-session regions first, then stolen regions, then -- under a
    :class:`~repro.crawl.rebalance.SubtreeScheduler` -- subtree shards
    of the costliest live region), execute it through ``runner``, and
    advance the scheduler's state machine (complete / publish /
    merge-on-last-shard / fail).  Whichever worker lands a region's
    last shard performs the deterministic merge and files the result at
    the region's plan position.

    Returns ``True`` when the loop ran the scheduler dry, ``False``
    when the worker *departed* mid-crawl: a unit that raises
    :class:`~repro.exceptions.WorkerDeparted` goes through
    :func:`requeue_departed` (back to the surviving fleet, or failed
    once the scheduler's departure bound is spent), and the loop
    returns so the transport can replace the worker.  Either way the
    runner's region boundary runs in a ``finally``, so a runner holding
    leased budget headroom or buffered stats always flushes them --
    budget accounting stays exact on every exit path, including hard
    failures.

    Examples
    --------
    ::

        scheduler = WorkStealingScheduler(plan.bundles)
        drive_stealing(scheduler, home_session=0, runner=runner,
                       sink=sink)
        assert scheduler.done()
    """
    try:
        while True:
            task = scheduler.acquire(home_session)
            if task is None:
                return True
            if isinstance(task, ShardTask):
                try:
                    payload = runner.shard(task)
                except WorkerDeparted as exc:
                    requeue_departed(scheduler, task, sink, exc)
                    return False
                except Exception as exc:  # noqa: BLE001 - re-raised by run()
                    scheduler.fail(task)
                    sink.region_failed(task.key, task.session, exc)
                    runner.region_boundary()
                    continue
                if _transition(
                    scheduler, task, payload, sink, presplit=False
                ):
                    runner.region_boundary()
                continue
            budget = (
                policy.budget_for(task.key) if policy is not None else None
            )
            try:
                if budget is None:
                    payload = runner.region(task)
                else:
                    payload = runner.presplit(task, budget)
            except WorkerDeparted as exc:
                requeue_departed(scheduler, task, sink, exc)
                return False
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                scheduler.fail(task)
                sink.region_failed(task.key, task.session, exc)
                runner.region_boundary()
                continue
            if _transition(
                scheduler, task, payload, sink, presplit=budget is not None
            ):
                runner.region_boundary()
    finally:
        runner.region_boundary()


def drive_futures(
    scheduler,
    submit: Callable[[RegionTask | ShardTask, int | None], Future],
    sink: ResultSink,
    workers: int,
    policy: ShardPolicy | None = None,
) -> None:
    """Parent-side dispatch over a future-returning transport.

    The same state machine as :func:`drive_stealing`, driven from a
    single dispatcher thread: units are acquired non-blockingly (the
    dispatcher is the only acquirer, so an empty poll really means
    nothing is runnable yet), shipped through ``submit`` (which returns
    a future -- e.g. :meth:`~repro.crawl.executors.PoolUnitRunner.
    submit`), and transitioned as their futures land.  ``submit``
    receives the unit and its shard budget (``None`` = crawl the region
    whole, an int = presplit it that finely).  A unit whose future
    raises :class:`~repro.exceptions.WorkerDeparted` goes through
    :func:`requeue_departed`, so the scheduler's departure bound ends
    a fleet that never survives.

    Used by the process backend's rebalanced mode, where the pool
    workers cannot see the parent's scheduler.

    Examples
    --------
    ::

        runner = PoolUnitRunner(pool, allow_partial=False)
        drive_futures(scheduler, runner.submit, sink, workers=4)
    """
    in_flight: dict[Future, RegionTask | ShardTask] = {}

    def submit_next() -> bool:
        task = scheduler.acquire(block=False)
        if task is None:
            return False
        if isinstance(task, ShardTask) or policy is None:
            budget = None
        else:
            budget = policy.budget_for(task.key)
        in_flight[submit(task, budget)] = task
        return True

    for _ in range(workers):
        if not submit_next():
            break
    while in_flight:
        done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
        for future in done:
            task = in_flight.pop(future)
            try:
                payload = future.result()
            except WorkerDeparted as exc:
                # The refill below re-dispatches a requeued unit to a
                # surviving pool slot.
                requeue_departed(scheduler, task, sink, exc)
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                scheduler.fail(task)
                sink.region_failed(task.key, task.session, exc)
            else:
                presplit = (
                    policy is not None
                    and not isinstance(task, ShardTask)
                    and policy.budget_for(task.key) is not None
                )
                _transition(scheduler, task, payload, sink, presplit)
            while len(in_flight) < workers and submit_next():
                pass


def steal_setup(
    plan: PartitionPlan,
    estimator: CostEstimator | None,
    policy: ShardPolicy | None,
    completed: Mapping[RegionKey, int] | None = None,
) -> tuple[WorkStealingScheduler, int]:
    """Build the right scheduler for a rebalanced run.

    Returns ``(scheduler, upper)``: a two-level
    :class:`~repro.crawl.rebalance.SubtreeScheduler` whenever the
    policy presplits anything (subtree shards expose more parallelism
    than whole regions alone, so ``upper`` -- the number of workers the
    plan can keep busy -- grows accordingly), otherwise a plain
    :class:`~repro.crawl.rebalance.WorkStealingScheduler`.  The one
    place that decides between one- and two-level stealing, so the
    transports cannot drift apart in how they wire the loops.
    ``completed`` maps a resumed crawl's already-finished plan
    positions to their costs; the scheduler never queues them but
    seeds its estimator from their true costs.
    """
    if policy is not None and policy.sharded:
        scheduler: WorkStealingScheduler = SubtreeScheduler(
            plan.bundles, estimator, completed
        )
        upper = max(1, scheduler.total_tasks, policy.max_budget)
        return scheduler, upper
    scheduler = WorkStealingScheduler(plan.bundles, estimator, completed)
    return scheduler, max(1, scheduler.total_tasks)
