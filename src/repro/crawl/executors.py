"""Pluggable crawl transports: sequential, thread and process.

A partitioned crawl is a grid of region crawls -- ``plan.bundles[s][i]``
-- each of which is a pure function of (session source, region): a
fresh crawler with a fresh response cache is built per region (see
:func:`~repro.crawl.partition._crawl_region`), and the sources are
deterministic.  Every executor in this module exploits that purity: it
may run the grid in any order, on any substrate, and the merged
:class:`~repro.crawl.partition.PartitionedResult` -- rows ordered by
plan position, costs summed, progress canonically interleaved -- is
byte-identical to the sequential executor's.

The dispatch logic itself lives in :mod:`repro.crawl.runtime`: one
transport-agnostic drive loop (static sessions, work stealing, or
futures dispatch) over :class:`~repro.crawl.runtime.UnitRunner` /
:class:`~repro.crawl.runtime.ResultSink` protocols.  This module only
supplies the transports -- how workers are spawned, how a unit's code
reaches them, and whether sources are shared or copied:

:class:`SequentialExecutor`
    One region after another, in plan order, in the calling thread.
    The reference the others are tested against.
:class:`ThreadExecutor`
    A thread pool in the parent process; sources are shared by
    reference.  Wins on latency-bound sessions: threads overlap the
    per-query round trips.
:class:`ProcessExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor`; sources and the
    crawler factory are pickled once into each worker (the serving
    stack's lock-dropping ``__getstate__`` paths make servers, clients
    and limits picklable).  Wins on CPU-bound simulated workloads,
    where the GIL caps the thread backend at a single core.  When a
    source stack carries a server-side limit, the limits, clocks and
    stats move into a shared-state control plane
    (:mod:`repro.crawl.coordinator`) with lease-batched exactly-once
    admission across the whole pool -- real budgets on the multi-core
    backend, decided by the sources themselves rather than a flag.

Adaptive rebalancing
--------------------
``rebalance=True`` replaces static session dispatch with the
:class:`~repro.crawl.rebalance.WorkStealingScheduler`: an idle worker
steals the tail region of the session with the largest estimated
remaining cost (estimates start from a prior and are updated with the
exact observed cost of every finished region).  A stolen region is
still crawled against *its own session's* source -- its identity keeps
paying the queries -- and its result is filed under its original plan
position, so rebalancing changes wall-clock behaviour only, never the
result.  The one caveat: a source-side *limit* (budget, daily quota)
fires by cumulative query order, which stealing reorders -- parity with
the sequential executor is guaranteed for crawls that complete within
their limits.

Subtree sharding
----------------
``shard_subtrees=N`` drops the unit of scheduling below the region:
regions are *presplit* (:func:`~repro.crawl.sharding.presplit_region`)
into a trunk plus independently crawlable subtree shards, and with
``rebalance=True`` the
:class:`~repro.crawl.rebalance.SubtreeScheduler` lets idle workers
steal whole regions first and then *subqueries of the costliest live
region* -- the only lever that helps when a single heavy region
dominates the plan.  ``shard_subtrees="auto"`` switches from the fixed
per-region target to the estimator-driven
:meth:`~repro.crawl.runtime.ShardPolicy.adaptive` planner, which
presplits only regions whose estimated cost exceeds the fleet's fair
share.  Whichever worker completes a region's last shard splices the
results back in canonical order
(:func:`~repro.crawl.sharding.merge_region_shards`), so the merged
result remains byte-identical to the unsharded sequential executor's
on every backend, under every policy.

Failure semantics (all backends): every region is drained before a
failure propagates, and the exception of the lowest (session, region)
plan position is raised -- except the sequential executor, which stops
at the first failure exactly as it always did.  With
``allow_partial=True`` a budget-interrupted region yields a partial
result instead and the merge is marked incomplete.
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import io
import os
import pickle
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.crawl.base import Crawler, CrawlResult
from repro.crawl.coordinator import (
    LimitCoordinator,
    carries_limits,
    lease_chunk_for_plan,
)
from repro.crawl.partition import (
    PartitionedResult,
    PartitionPlan,
    _check_sources,
    _merge_session_results,
)
from repro.crawl.rebalance import RegionKey, RegionTask, ShardTask
from repro.crawl.runtime import (
    AggregatorFeed,
    BatchSink,
    GridSink,
    LocalUnitRunner,
    ShardPolicy,
    crawl_region_unit,
    drive_futures,
    drive_session,
    drive_stealing,
    steal_setup,
)
from repro.crawl.spec import CrawlSpec
from repro.exceptions import SchemaError, WorkerDeparted

__all__ = [
    "CrawlExecutor",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "default_workers",
    "pickle_payload",
]


def default_workers(sessions: int) -> int:
    """A sensible worker count: one per session, capped at 4x the CPUs.

    Sessions are typically latency-bound, not CPU-bound, so
    oversubscribing the cores is fine; the cap only guards against
    absurd plans.
    """
    return max(1, min(sessions, 4 * (os.cpu_count() or 1)))


def _completed_costs(
    completed: Mapping[RegionKey, CrawlResult],
) -> dict[RegionKey, int]:
    """Exact per-region costs of a resumed crawl's pre-filed results.

    What the schedulers need from a checkpoint: the keys are excluded
    from the queues, the costs seed the stealing estimator with truth
    instead of priors.
    """
    return {key: result.cost for key, result in completed.items()}


class CrawlExecutor(abc.ABC):
    """Runs a partition plan's region grid and merges deterministically.

    Subclasses implement :meth:`_execute` -- the *transport*: spawn
    workers on some substrate and point them at the runtime's drive
    loops (:mod:`repro.crawl.runtime`), which own all scheduling
    semantics.  :meth:`run` owns validation, shard-policy resolution,
    the deterministic merge, and the drain-then-raise failure contract.

    Examples
    --------
    Pick a backend by registry name and crawl a plan; whatever backend
    runs, the merged result is byte-identical::

        from repro import CrawlSpec, TopKServer, make_executor
        from repro import partition_space

        plan = partition_space(dataset.space, 4)
        sources = [TopKServer(dataset, k=64) for _ in range(4)]
        spec = CrawlSpec(
            executor="process", max_workers=4,
            rebalance=True, shard_subtrees=8,
        )
        executor = make_executor(spec=spec)
        merged = executor.run(sources, plan, spec)
        assert merged.complete
    """

    #: Registry name of the backend; subclasses override.
    name: str = "executor"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be positive, got {max_workers}"
            )
        self._max_workers = max_workers

    def _workers(self, upper: int) -> int:
        """The effective worker count, capped at ``upper`` tasks."""
        workers = self._max_workers
        if workers is None:
            workers = default_workers(upper)
        return max(1, min(workers, upper))

    def _policy_fleet(self, plan: PartitionPlan, rebalance: bool) -> int:
        """Concurrency the adaptive shard planner should assume.

        The fair-share rule only makes sense against workers that can
        actually *take* a heavy region's shards: without work stealing
        a presplit region's shards are crawled serially by its own
        session's worker, so static dispatch reports a fleet of 1 and
        ``shard_subtrees="auto"`` correctly presplits nothing.
        Single-worker backends override this to 1 outright.
        """
        if not rebalance:
            return 1
        return self._workers(
            max(1, sum(len(bundle) for bundle in plan.bundles))
        )

    def _check_spec(self, spec: CrawlSpec) -> None:
        """Reject a spec whose backend half disagrees with this instance."""
        if spec.executor is not None and spec.executor != self.name:
            raise ValueError(
                f"spec names executor {spec.executor!r} but run() was "
                f"called on the {self.name!r} backend; build the "
                "executor with make_executor(spec=spec) so they cannot "
                "disagree"
            )
        if (
            spec.max_workers is not None
            and spec.max_workers != self._max_workers
        ):
            raise ValueError(
                f"spec asks for max_workers={spec.max_workers} but this "
                f"executor was built with {self._max_workers}; build it "
                "with make_executor(spec=spec) so they cannot disagree"
            )

    def run(
        self,
        sources: Sequence,
        plan: PartitionPlan,
        spec: CrawlSpec | None = None,
    ) -> PartitionedResult:
        """Crawl every region of ``plan`` and merge deterministically.

        Parameters
        ----------
        sources:
            One query source per bundle, exactly as for
            :func:`~repro.crawl.partition.crawl_partitioned`.
        plan:
            The partition plan; the unit of scheduling is one region
            (or, with ``spec.shard_subtrees``, one subtree shard of
            one).
        spec:
            The crawl configuration, a
            :class:`~repro.crawl.spec.CrawlSpec` (default: a default
            spec).  Its *run half* is consumed here; the field
            semantics are documented on the spec.  A spec whose
            ``executor`` or ``max_workers`` disagrees with this
            instance is rejected -- build the instance with
            :func:`make_executor(spec=spec) <make_executor>` so the
            two cannot disagree.

        Raises
        ------
        SchemaError
            If ``sources`` does not match ``plan.sessions``, or a
            ``completed`` key lies outside the plan.
        QueryBudgetExhausted
            When a limit fires and ``allow_partial`` is ``False`` (the
            exception of the lowest failing plan position, after every
            worker drained).
        """
        spec = spec if spec is not None else CrawlSpec()
        self._check_spec(spec)
        _check_sources(sources, plan)
        aggregator = spec.aggregator
        if aggregator is not None and aggregator.sessions != plan.sessions:
            raise ValueError(
                f"aggregator tracks {aggregator.sessions} sessions but "
                f"the plan has {plan.sessions}"
            )
        completed = dict(spec.completed or {})
        for session, index in completed:
            if not (
                0 <= session < plan.sessions
                and 0 <= index < len(plan.bundles[session])
            ):
                raise SchemaError(
                    f"completed region ({session}, {index}) lies outside "
                    f"the plan"
                )
        policy = ShardPolicy.resolve(
            spec.shard_subtrees,
            plan,
            spec.estimator,
            self._policy_fleet(plan, spec.rebalance),
        )
        feed = AggregatorFeed(aggregator, plan)
        sink = GridSink(plan, feed, completed, spec.on_region)
        self._execute(sources, plan, sink, spec, policy, completed)
        if sink.failures:
            sink.failures.sort(key=lambda failure: failure[0])
            raise sink.failures[0][1]
        return _merge_session_results(
            plan, tuple(tuple(session) for session in sink.grid)
        )

    @abc.abstractmethod
    def _execute(
        self,
        sources: Sequence,
        plan: PartitionPlan,
        sink: GridSink,
        spec: CrawlSpec,
        policy: ShardPolicy | None,
        completed: Mapping[RegionKey, CrawlResult],
    ) -> None:
        """Spawn workers and point them at the runtime's drive loops."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self._max_workers})"


class SequentialExecutor(CrawlExecutor):
    """The reference backend: plan order, in the calling thread.

    ``rebalance`` is accepted and ignored -- with a single worker there
    is nothing to steal, and the scheduler would hand out exactly the
    plan order anyway.  Stops at the first failure, like the original
    sequential :func:`~repro.crawl.partition.crawl_partitioned`.
    """

    name = "sequential"

    def _policy_fleet(self, plan, rebalance):
        # One worker: no region can be the straggler relative to a
        # fleet, so the adaptive shard planner must presplit nothing.
        return 1

    def _execute(self, sources, plan, sink, spec, policy, completed):
        runner = LocalUnitRunner(
            sources, spec.crawler_factory, spec.allow_partial, feed=sink.feed
        )
        skip = frozenset(completed)
        for session in range(plan.sessions):
            ok = drive_session(
                session, plan.bundles[session], runner, sink, policy, skip
            )
            if not ok:
                # Stopping at the first failure abandons the remaining
                # sessions; mark them cancelled so aggregator snapshots
                # never show a never-started session as running.
                for later in range(session + 1, plan.sessions):
                    sink.feed.cancelled(later)
                return


class ThreadExecutor(CrawlExecutor):
    """One worker thread per session; work stealing when rebalancing.

    Without ``rebalance`` the pool runs one static
    :func:`~repro.crawl.runtime.drive_session` per session; with it,
    ``max_workers`` threads run the shared
    :func:`~repro.crawl.runtime.drive_stealing` loop (worker ``j``
    calls session ``j % sessions`` home).  Sources are shared by
    reference, so limits and stats are exact without any coordination.

    The rebalanced pool is *elastic*: a worker whose loop departs
    (:class:`~repro.exceptions.WorkerDeparted`) has already re-queued
    its in-flight unit, and the parent submits a replacement worker in
    its place; a worker that dies outside the loop's own unit handling
    aborts the scheduler (so surviving workers run dry instead of
    blocking forever on a shard that will never land) and ranks its
    failure after every real region failure.
    """

    name = "thread"

    def _execute(self, sources, plan, sink, spec, policy, completed):
        runner = LocalUnitRunner(
            sources, spec.crawler_factory, spec.allow_partial, feed=sink.feed
        )
        if not spec.rebalance:
            workers = self._workers(plan.sessions)
            skip = frozenset(completed)
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="crawl-session"
            ) as pool:
                tasks = [
                    pool.submit(
                        drive_session,
                        session,
                        plan.bundles[session],
                        runner,
                        sink,
                        policy,
                        skip,
                    )
                    for session in range(plan.sessions)
                ]
                for task in tasks:
                    task.result()
            return
        scheduler, upper = steal_setup(
            plan, spec.estimator, policy, _completed_costs(completed)
        )
        workers = self._workers(upper)
        # An injected departure fault may fire on every unit; cap the
        # replacement submissions so a pathological runner cannot spin
        # the pool forever.  Each real unit can cost at most a few
        # departures before some worker survives long enough to run it.
        max_spawns = 4 * (workers + scheduler.total_tasks)
        aborted = False
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="crawl-steal"
        ) as pool:

            def spawn(worker: int):
                return pool.submit(
                    drive_stealing,
                    scheduler,
                    worker % plan.sessions,
                    runner,
                    sink,
                    policy,
                )

            pending = {spawn(worker) for worker in range(workers)}
            spawned = workers
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        ran_dry = future.result()
                    except Exception as exc:  # noqa: BLE001 - see run()
                        # A hard failure outside the loop's own unit
                        # handling: abort so siblings blocked on a live
                        # region's condition run dry, and rank this
                        # failure after every real region failure.
                        scheduler.abort()
                        aborted = True
                        sink.file_batch(
                            [],
                            [((plan.sessions, 0), exc)],
                            update_feed=False,
                        )
                        continue
                    if ran_dry or aborted:
                        continue
                    if spawned < max_spawns:
                        pending.add(spawn(spawned))
                        spawned += 1
                    elif not pending:
                        # Every worker departed and the replacement
                        # budget is spent: abort so the failure is loud
                        # instead of a half-filled grid.
                        scheduler.abort()
                        aborted = True
                        sink.file_batch(
                            [],
                            [
                                (
                                    (plan.sessions, 0),
                                    WorkerDeparted(
                                        "every replacement worker "
                                        "departed; giving up after "
                                        f"{spawned} spawns"
                                    ),
                                )
                            ],
                            update_feed=False,
                        )
        if aborted:
            for session in range(plan.sessions):
                sink.feed.cancelled(session)


# ----------------------------------------------------------------------
# Process transport: per-worker source copies, units over pickle
# ----------------------------------------------------------------------
_WORKER_SOURCES: tuple | None = None
_WORKER_FACTORY: Callable[..., Crawler] | None = None
_WORKER_STUBS: list = []


#: Arrays smaller than this skip content hashing in the payload
#: de-duplicator: the digest would cost more than the bytes it saves.
_DEDUP_MIN_BYTES = 256


def _same_array(array):
    """Unpickle hook of the payload de-duplicator: identity."""
    return array


class _PayloadPickler(pickle.Pickler):
    """Pickler that serialises content-equal numpy arrays once.

    Per-session sources are typically built from one dataset, so their
    engines hold *distinct but content-equal* tuple matrices (each
    ``dataset.rows[order]`` is a fresh array).  Plain pickling ships
    every copy; this pickler hashes large arrays and reduces
    duplicates to a memo reference to the first occurrence, so N
    sessions over one dataset ship one matrix.  Safe because engine
    matrices are immutable by contract -- sharing one unpickled array
    between the worker's source copies changes no response.
    """

    def __init__(self, buffer):
        super().__init__(buffer, protocol=pickle.DEFAULT_PROTOCOL)
        self._seen: dict[tuple, object] = {}

    def reducer_override(self, obj):
        if type(obj) is np.ndarray and obj.nbytes >= _DEDUP_MIN_BYTES:
            key = (
                obj.dtype.str,
                obj.shape,
                hashlib.sha256(np.ascontiguousarray(obj).tobytes()).digest(),
            )
            canonical = self._seen.setdefault(key, obj)
            if canonical is not obj:
                # Pickling the canonical array as an argument hits the
                # stream's memo: a few bytes instead of a full copy.
                return (_same_array, (canonical,))
        return NotImplemented


def pickle_payload(sources, crawler_factory, stubs=()) -> bytes:
    """Pickle ``(sources, crawler_factory, stubs)`` in one stream.

    One stream matters: pickle memoisation preserves object identity
    *within* a payload, so the shared-limit stubs referenced by the
    source clones unpickle as the very objects in the ``stubs`` tuple --
    flushing those flushes the sources' leases.  The stream is written
    by :class:`_PayloadPickler`, so content-equal engine matrices ship
    once, and the engines' derived caches (row tuples, lazy indexes)
    are trimmed by their pickle hooks -- the payload carries data, not
    rebuildable state.  Raises a :class:`TypeError` naming the usual
    culprit (a lambda factory) when anything in the payload refuses to
    pickle.
    """
    try:
        buffer = io.BytesIO()
        _PayloadPickler(buffer).dump(
            (tuple(sources), crawler_factory, tuple(stubs))
        )
        return buffer.getvalue()
    except Exception as exc:
        raise TypeError(
            "the process executor needs picklable sources and a "
            "picklable crawler_factory (a class or functools.partial, "
            f"not a lambda): {exc}"
        ) from exc


def _process_init(payload: bytes) -> None:
    """Pool initializer: unpickle the sources once per worker process.

    The payload also carries the coordinator's shared-limit stubs
    (empty unless the sources carry limits); pickled in one stream with
    the sources, the unpickled stubs are exactly the objects the source
    clones reference, so the worker's runners can flush leases and
    buffered stats at every unit boundary.
    """
    global _WORKER_SOURCES, _WORKER_FACTORY, _WORKER_STUBS
    _WORKER_SOURCES, _WORKER_FACTORY, stubs = pickle.loads(payload)
    _WORKER_STUBS = list(stubs)


def _flush_worker_stubs() -> None:
    """Return leases / land buffered stats for this worker's stubs."""
    for stub in _WORKER_STUBS:
        stub.flush()


def _worker_runner(allow_partial: bool) -> LocalUnitRunner:
    """This pool worker's runner over its unpickled source copies."""
    assert _WORKER_SOURCES is not None and _WORKER_FACTORY is not None
    return LocalUnitRunner(
        _WORKER_SOURCES,
        _WORKER_FACTORY,
        allow_partial,
        flush=_flush_worker_stubs if _WORKER_STUBS else None,
    )


def _pool_session(
    session: int,
    bundle,
    allow_partial: bool,
    policy,
    skip: frozenset = frozenset(),
):
    """Wire form of :func:`~repro.crawl.runtime.drive_session`."""
    sink = BatchSink()
    drive_session(
        session, bundle, _worker_runner(allow_partial), sink, policy, skip
    )
    return sink.batch


def _pool_region(session: int, index: int, region, allow_partial: bool):
    """Crawl one region in a pool worker, against the worker's copy.

    Goes through :func:`~repro.crawl.runtime.crawl_region_unit`, whose
    region-boundary flush returns leased budget headroom on every exit
    path -- an idle pool worker must never sit on charged units.
    """
    return crawl_region_unit(
        RegionTask(session, index, region), _worker_runner(allow_partial)
    )


def _pool_presplit(
    session: int, index: int, region, allow_partial: bool, max_shards: int
):
    """Presplit one region in a pool worker; the plan pickles back."""
    runner = _worker_runner(allow_partial)
    try:
        return runner.presplit(RegionTask(session, index, region), max_shards)
    finally:
        runner.region_boundary()


def _pool_shard(session: int, index: int, region, shard, allow_partial: bool):
    """Crawl one subtree shard in a pool worker.

    The shard may run in a different worker than its region's presplit
    did; both crawl deterministic *copies* of the session source, so
    the responses -- and therefore the results -- are identical.  Like
    the other wire functions it flushes the worker's stubs on exit.
    """
    runner = _worker_runner(allow_partial)
    try:
        return runner.shard(ShardTask(session, index, region, shard))
    finally:
        runner.region_boundary()


class ProcessExecutor(CrawlExecutor):
    """Region crawls on a process pool, for CPU-bound simulated engines.

    Sources and the crawler factory are pickled once and shipped to
    each worker via the pool initializer (so per-task overhead is a few
    integers, not a dataset).  Requires the serving stack's picklable
    paths: servers, clients, limits and engines all drop their locks on
    pickle and rebuild them on load.  Cache listeners do not survive
    the trip, and each worker crawls its own *copy* of the sources.

    Copies would admit a limit once per worker, so whenever a source
    stack carries a server-side limit
    (:func:`~repro.crawl.coordinator.carries_limits`) the authoritative
    limits, clocks and server stats move into a coordinator process
    (:mod:`repro.crawl.coordinator`) for the crawl: every worker admits
    through a thin proxy with **lease-batched** exactly-once semantics
    (budget chunks sized from the estimator's per-region cost
    estimates, or ``lease_chunk`` explicitly), and the caller's
    original limit objects read the exact charged totals -- and the
    fleet's coordinator ``round_trips`` -- after the crawl (also after
    an exhaustion failure).  Limit-free crawls start no coordinator.

    Without ``rebalance``, one pool task per session preserves the
    thread backend's dispatch shape.  With ``rebalance``, the parent
    runs the runtime's futures dispatcher
    (:func:`~repro.crawl.runtime.drive_futures`), always picking from
    the session with the largest estimated remaining cost.

    Progress reporting is completion-grained: the aggregator sees a
    session advance when a region (or, without rebalancing, a bundle)
    finishes, not per query.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        mp_context=None,
        lease_chunk: int | None = None,
    ):
        super().__init__(max_workers)
        self._mp_context = mp_context
        if lease_chunk is not None and lease_chunk < 1:
            raise ValueError(
                f"lease_chunk must be positive, got {lease_chunk}"
            )
        self._lease_chunk = lease_chunk
        #: Bytes of the last payload shipped to the pool initializer.
        self.payload_bytes = 0

    def _workers(self, upper: int) -> int:
        """Default to the core count, not the thread executor's 4x cap.

        Oversubscription pays off for latency-bound threads; worker
        *processes* exist for CPU-bound work, where anything beyond the
        cores adds only spawn time and a per-worker copy of the
        sources.
        """
        workers = self._max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(workers, upper))

    def _payload(self, sources, crawler_factory, stubs=()) -> bytes:
        payload = pickle_payload(sources, crawler_factory, stubs)
        # Operator-side introspection: the bytes shipped per worker at
        # pool start-up (benchmarks gate this; see bench_hot_path.py).
        self.payload_bytes = len(payload)
        return payload

    def _execute(self, sources, plan, sink, spec, policy, completed):
        workers = self._workers(self._pool_upper(plan, spec.rebalance, policy))
        with contextlib.ExitStack() as stack:
            stubs = ()
            if carries_limits(sources):
                coordinator = stack.enter_context(
                    LimitCoordinator(mp_context=self._mp_context)
                )
                # Unwinds after the pool below has drained, before the
                # coordinator shuts down: the caller's limit objects
                # read the exact charge, even after an exhaustion.
                stack.callback(coordinator.writeback)
                sources = coordinator.share_sources(sources)
                chunk = self._lease_chunk
                if chunk is None:
                    chunk = coordinator.clamp_lease_chunk(
                        lease_chunk_for_plan(plan, spec.estimator), workers
                    )
                coordinator.set_lease_chunk(chunk)
                stubs = coordinator.shared_stubs()
            payload = self._payload(sources, spec.crawler_factory, stubs)
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=self._mp_context,
                    initializer=_process_init,
                    initargs=(payload,),
                )
            )
            if spec.rebalance:
                self._drain_rebalanced(
                    pool, workers, plan, sink, spec, policy, completed
                )
            else:
                self._drain_static(
                    pool, plan, sink, spec.allow_partial, policy, completed
                )

    @staticmethod
    def _pool_upper(plan, rebalance, policy) -> int:
        """How many pool workers the plan can possibly keep busy."""
        if rebalance:
            upper = sum(len(bundle) for bundle in plan.bundles)
            if policy is not None:
                upper = max(upper, policy.max_budget)
            return max(1, upper)
        return max(1, plan.sessions)

    def _drain_static(
        self, pool, plan, sink, allow_partial, policy, completed
    ):
        """One pool task per session, each a worker-side session loop.

        Not folded into the futures dispatcher: stealing reorders the
        queries, and a limit fires by cumulative query order, so the
        two dispatch shapes exhaust a budget at different points.
        """
        skip = frozenset(completed)
        tasks = {
            pool.submit(
                _pool_session,
                session,
                plan.bundles[session],
                allow_partial,
                policy,
                skip,
            ): session
            for session in range(plan.sessions)
        }
        for future, session in tasks.items():
            bundle = plan.bundles[session]
            try:
                results, failures = future.result()
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                if bundle:
                    sink.region_failed((session, 0), session, exc)
                else:
                    # An empty bundle has no region to attribute a pool
                    # failure to (its session is already marked done).
                    sink.file_batch(
                        [], [((session, 0), exc)], update_feed=False
                    )
                continue
            sink.file_batch(results, failures)

    def _drain_rebalanced(
        self, pool, workers, plan, sink, spec, policy, completed
    ):
        """Parent-side futures dispatch over the pool.

        The pool workers cannot see the parent's scheduler, so the
        parent runs :func:`~repro.crawl.runtime.drive_futures`: it is
        the only dispatcher, acquiring units non-blockingly and
        shipping each to the pool as its own future.  A unit raising
        :class:`~repro.exceptions.WorkerDeparted` is re-queued by the
        dispatcher and re-submitted to a surviving pool slot.
        """
        scheduler, _ = steal_setup(
            plan, spec.estimator, policy, _completed_costs(completed)
        )
        allow_partial = spec.allow_partial

        def submit(task, budget):
            if isinstance(task, ShardTask):
                return pool.submit(
                    _pool_shard,
                    task.session,
                    task.index,
                    task.region,
                    task.shard,
                    allow_partial,
                )
            if budget is not None:
                return pool.submit(
                    _pool_presplit,
                    task.session,
                    task.index,
                    task.region,
                    allow_partial,
                    budget,
                )
            return pool.submit(
                _pool_region,
                task.session,
                task.index,
                task.region,
                allow_partial,
            )

        drive_futures(scheduler, submit, sink, workers, policy)


#: Backend registry, keyed by the CLI's ``--executor`` names.
EXECUTORS: dict[str, type[CrawlExecutor]] = {
    "sequential": SequentialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(
    name: str | None = None,
    *,
    max_workers: int | None = None,
    spec: CrawlSpec | None = None,
) -> CrawlExecutor:
    """Build a backend by registry name (see :data:`EXECUTORS`).

    With ``spec=`` the backend half of a
    :class:`~repro.crawl.spec.CrawlSpec` drives construction: the
    registry name comes from ``spec.executor`` (explicit ``name`` wins,
    ``"thread"`` if neither is set), ``spec.max_workers`` fills in when
    ``max_workers`` is not given, and backend-specific knobs ride along
    -- today ``spec.lease_chunk`` reaches the process backend's
    constructor, which has no other spec-able home.

    Examples
    --------
    ::

        spec = CrawlSpec(executor="process", max_workers=4, lease_chunk=8)
        executor = make_executor(spec=spec)
        merged = executor.run(sources, plan, spec)
    """
    if spec is not None:
        if name is None:
            name = spec.executor or "thread"
        if max_workers is None:
            max_workers = spec.max_workers
    elif name is None:
        raise TypeError("make_executor() needs a name or a spec")
    try:
        cls = EXECUTORS[name]
    except KeyError:
        known = ", ".join(sorted(EXECUTORS))
        raise ValueError(
            f"unknown executor {name!r}; expected one of: {known}"
        ) from None
    if (
        spec is not None
        and spec.lease_chunk is not None
        and cls is ProcessExecutor
    ):
        return cls(max_workers=max_workers, lease_chunk=spec.lease_chunk)
    return cls(max_workers=max_workers)
