"""Pluggable crawl transports: sequential, thread and process.

A plan runs through :func:`~repro.crawl.partition.crawl_partitioned`,
which runs ``EXECUTORS[spec.executor or "sequential"]()`` over it: the
:class:`~repro.crawl.spec.CrawlSpec` alone says which backend runs and
on how many workers, and an executor instance carries no setting of
its own (bar the process backend's ``lease_chunk`` tuning knob).

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
transport-agnostic work-stealing pull loop over the
:class:`~repro.crawl.runtime.UnitRunner` protocol, filing into a
:class:`~repro.crawl.runtime.GridSink`.  Both pooled backends run that
loop on parent threads through one :meth:`CrawlExecutor._execute`; a
backend supplies only the runner the loop calls -- how a unit's code
reaches a worker, and whether sources are shared or copied:

:class:`SequentialExecutor`
    One region after another, in plan order, in the calling thread.
    The reference the others are tested against.
:class:`ThreadExecutor`
    A thread pool in the parent process; sources are shared by
    reference.  Wins on latency-bound sessions: threads overlap the
    per-query round trips.
:class:`ProcessExecutor`
    A :class:`WorkerPool` of processes, one per parent thread, each
    thread waiting on the unit it handed over; sources and the crawler
    factory are pickled once into each worker (the serving
    stack's lock-dropping ``__getstate__`` paths make servers, clients
    and limits picklable).  Wins on CPU-bound simulated workloads,
    where the GIL caps the thread backend at a single core.  Each
    unit's server counts come home with its outcome, so the caller's
    ``server.stats`` are exact.  When a source stack carries a
    server-side limit, the limits and clocks move into a shared-state
    control plane (:mod:`repro.crawl.coordinator`) with lease-batched
    exactly-once admission across the whole pool -- real budgets on
    the multi-core backend, decided by the sources themselves rather
    than a flag.

Work stealing
-------------
The pooled backends always dispatch through the
:class:`~repro.crawl.rebalance.WorkStealingScheduler`: each worker
drains its home session's regions in plan order, and an idle worker
steals the tail region of the session with the most regions still
queued (a region's cost is known only once it has been crawled, so
queued regions are told apart by count alone).  A stolen region is
still crawled against *its own session's* source -- its identity keeps
paying the queries -- and its result is filed under its original plan
position, so stealing changes wall-clock behaviour only, never the
result.  The one caveat: a source-side *limit* (budget, daily quota)
fires by cumulative query order, which stealing reorders -- parity with
the sequential executor is guaranteed for crawls that complete within
their limits.

Subtree sharding
----------------
``shard_subtrees=N`` drops the pooled backends' unit of scheduling
below the region: each region a worker takes is *presplit*
(:func:`~repro.crawl.sharding.presplit_region`) into a trunk plus at
most ``N`` independently crawlable subtree shards, and the same
:class:`~repro.crawl.rebalance.WorkStealingScheduler` lets idle workers
steal whole regions first and then *subqueries of the costliest live
region* -- the only lever that helps when a single heavy region
dominates the plan.  Whichever worker completes a region's last shard
splices the results back in canonical order
(:func:`~repro.crawl.sharding.merge_region_shards`), so the merged
result remains byte-identical to the unsharded sequential executor's.
With a single worker no one could take the shards, so the sequential
reference crawls every region whole and ignores ``shard_subtrees``.

Failure rule (every backend and the job service): a run raises the
exception of the lowest failing (session, region) plan position.  The
pooled backends drain the rest of the plan first -- a worker cannot
know that no failure at a lower position is still to come -- and file
every other region that lands.  The sequential reference visits
positions in order, so it stops at that same position.

Stop rule: every unit completes or raises.  A limit that runs out
raises :class:`~repro.exceptions.QueryBudgetExhausted` under the
failure rule; the regions that landed first stay filed through
``on_region`` (a checkpoint, the job store), so a resumed run crawls
only the rest.
"""

from __future__ import annotations

import abc
import contextlib
import functools
import hashlib
import io
import itertools
import os
import pickle
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

from repro.crawl.base import CrawlResult
from repro.crawl.coordinator import (
    DEFAULT_LEASE_CHUNK,
    LimitCoordinator,
    _server_stats,
    carries_limits,
    clamp_lease_chunk,
    set_lease_chunk,
)
from repro.crawl.partition import (
    PartitionedResult,
    PartitionPlan,
    _check_sources,
    _merge_session_results,
)
from repro.crawl.rebalance import RegionTask, ShardTask, WorkStealingScheduler
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    crawl_region_unit,
    drive_stealing,
)
from repro.crawl.spec import CrawlSpec
from repro.exceptions import SchemaError, WorkerDeparted
from repro.server.stats import QueryStats

__all__ = [
    "CrawlExecutor",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PoolUnitRunner",
    "WorkerPool",
    "EXECUTORS",
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


class CrawlExecutor(abc.ABC):
    """Runs a partition plan's region grid and merges deterministically.

    :meth:`run` owns validation, the deterministic merge, and the
    lowest-position failure rule;
    :meth:`_execute` points parent threads at the runtime's stealing
    loop (:mod:`repro.crawl.runtime`), which owns all scheduling
    semantics.  A backend supplies only :meth:`_runner` -- the
    *transport* that loop hands each unit to.

    Examples
    --------
    The spec names the backend and its worker count; whatever backend
    runs, the merged result is byte-identical::

        from repro import CrawlSpec, TopKServer, crawl_partitioned
        from repro import partition_space

        plan = partition_space(dataset.space, 4)
        sources = [TopKServer(dataset, k=64) for _ in range(4)]
        spec = CrawlSpec(
            executor="process", max_workers=4, shard_subtrees=8
        )
        merged = crawl_partitioned(sources, plan, spec)
        assert merged.complete
    """

    #: Registry name of the backend; subclasses override.
    name: str = "executor"

    def _workers(self, upper: int, spec: CrawlSpec) -> int:
        """``spec.max_workers`` (or the default), capped at ``upper``."""
        workers = spec.max_workers or default_workers(upper)
        return max(1, min(workers, upper))

    def _check_spec(self, spec: CrawlSpec) -> None:
        """Reject a spec that names another backend than this one."""
        if spec.executor is not None and spec.executor != self.name:
            raise ValueError(
                f"spec names executor {spec.executor!r} but run() was "
                f"called on the {self.name!r} backend; run the plan "
                "with crawl_partitioned(sources, plan, spec) so they "
                "cannot disagree"
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
            (or, on a pooled backend with ``spec.shard_subtrees``, one
            subtree shard of one).
        spec:
            The crawl configuration, a
            :class:`~repro.crawl.spec.CrawlSpec` (default: a default
            spec); the field semantics are documented on the spec.
            A spec whose ``executor`` names another backend is
            rejected -- :func:`~repro.crawl.partition.crawl_partitioned`
            picks the instance from the spec, so the two cannot
            disagree.

        Raises
        ------
        SchemaError
            If ``sources`` does not match ``plan.sessions``, or a
            ``completed`` key lies outside the plan.
        QueryBudgetExhausted
            When a limit fires (the exception of the lowest failing
            plan position, after every worker drained).
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
        feed = AggregatorFeed(aggregator, plan)
        sink = GridSink(plan, feed, completed, spec.on_region)
        self._execute(sources, plan, sink, spec, completed)
        if sink.failures:
            sink.failures.sort(key=lambda failure: failure[0])
            raise sink.failures[0][1]
        return _merge_session_results(
            plan, tuple(tuple(session) for session in sink.grid)
        )

    @contextlib.contextmanager
    def _runner(self, sources, plan, spec, workers, feed):
        """The unit runner the stealing loop calls, live for one crawl.

        In-process by default: one :class:`~repro.crawl.runtime.
        LocalUnitRunner` over the caller's sources, shared by reference
        (so limits and stats are exact without any coordination), with
        live progress wired to ``feed``.  A backend that moves units
        elsewhere overrides this and tears its transport down on exit.
        """
        yield LocalUnitRunner(sources, spec.crawler_factory, feed=feed)

    def _execute(self, sources, plan, sink, spec, completed):
        """Run the grid on parent threads pulling units through a runner.

        The worker threads run the shared
        :func:`~repro.crawl.runtime.drive_stealing` loop (worker ``j``
        calls session ``j % sessions`` home), presplitting regions into
        stealable shards under ``shard_subtrees``.

        The fleet is *elastic*: a worker whose loop departs
        (:class:`~repro.exceptions.WorkerDeparted`) has already
        re-queued its in-flight unit, and a replacement worker takes
        its place -- the scheduler's departure bound fails units once a
        fleet keeps departing, so replacements run dry instead of
        spinning.  A worker that dies outside the loop's own unit
        handling aborts the scheduler (so surviving workers run dry
        instead of blocking forever on a shard that will never land)
        and ranks its failure after every real region failure.
        """
        # A checkpoint's regions enter the books as done with their
        # exact costs and never enter the queues.
        scheduler = WorkStealingScheduler(
            plan.bundles,
            {key: result.cost for key, result in completed.items()},
        )
        # Shards expose more parallelism than whole regions alone.
        upper = max(1, scheduler.total_tasks, spec.shard_subtrees or 1)
        workers = self._workers(upper, spec)
        aborted = False
        spawned = itertools.count()
        with self._runner(sources, plan, spec, workers, sink.feed) as runner:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="crawl-steal"
            ) as pool:

                def spawn():
                    return pool.submit(
                        drive_stealing,
                        scheduler,
                        next(spawned) % plan.sessions,
                        runner,
                        sink,
                        spec.shard_subtrees,
                    )

                pending = {spawn() for _ in range(workers)}
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            ran_dry = future.result()
                        except Exception as exc:  # noqa: BLE001 - see run()
                            # A hard failure outside the loop's own
                            # unit handling: abort so siblings blocked
                            # on a live region's condition run dry.  It
                            # has no region: the position past the plan
                            # ranks it after every region failure.
                            scheduler.abort()
                            aborted = True
                            sink.failures.append(((plan.sessions, 0), exc))
                            continue
                        if not (ran_dry or aborted):
                            pending.add(spawn())
        if aborted:
            for session in range(plan.sessions):
                sink.feed.cancelled(session)


class SequentialExecutor(CrawlExecutor):
    """The reference backend: plan order, in the calling thread.

    Crawls every region whole through
    :func:`~repro.crawl.runtime.crawl_region_unit`, session by session,
    and ignores ``shard_subtrees`` -- with a single worker there is
    nothing to steal.  Visiting positions in order, it stops at the
    first failure, which is the lowest failing plan position the
    pooled backends raise too; the sessions after it are marked
    cancelled.
    """

    name = "sequential"

    def _execute(self, sources, plan, sink, spec, completed):
        with self._runner(sources, plan, spec, 1, sink.feed) as runner:
            for session, bundle in enumerate(plan.bundles):
                for index, region in enumerate(bundle):
                    if (session, index) in completed:
                        continue
                    task = RegionTask(session, index, region)
                    try:
                        result = crawl_region_unit(task, runner)
                    except Exception as exc:  # noqa: BLE001 - see run()
                        sink.region_failed(task.key, session, exc)
                        # Never started: aggregator snapshots must not
                        # show the later sessions as running.
                        for later in range(session + 1, plan.sessions):
                            sink.feed.cancelled(later)
                        return
                    sink.region_done(task.key, result)


class ThreadExecutor(CrawlExecutor):
    """Worker threads over the caller's sources, shared by reference.

    Runs :meth:`CrawlExecutor._execute` with the default in-process
    runner: ``spec.max_workers`` elastic
    :func:`~repro.crawl.runtime.drive_stealing` threads.  Wins on
    latency-bound sessions: the threads overlap the per-query round
    trips, and limits and stats are exact without any coordination.
    """

    name = "thread"


# ----------------------------------------------------------------------
# Process transport: per-worker source copies, units over pickle
# ----------------------------------------------------------------------
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
            # Hash the bytes in the array's own memory order, so a
            # column-major matrix is copied once, not twice, and key on
            # that order, so only an array of the same layout can stand
            # in for another.
            key = (
                obj.dtype.str,
                obj.shape,
                obj.flags.fnc,
                hashlib.sha256(obj.tobytes(order="A")).digest(),
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


#: Payload tickets, drawn in the parent: one counter for every pool,
#: so a ticket names one payload for the life of the process and a
#: resubmitted service job (new sources, fresh crawler state) never
#: hits a stale worker-side cache entry.
_TICKETS = itertools.count(1)

#: This pool worker's unpickled ``(sources, factory, stubs)`` payloads
#: by ticket, least recently used first.
_PAYLOADS: OrderedDict[int, tuple] = OrderedDict()
_PAYLOAD_LIMIT = 16


def _cached_payload(ticket: int, payload: bytes | None) -> tuple:
    """This worker's ``(sources, factory, stubs)`` for ``ticket``.

    Unpickles ``payload`` once per worker.  Also the initializer of a
    pool built with a payload, which fills the cache before the first
    unit.  Pickled in one stream with the sources, the unpickled stubs
    are exactly the objects the source clones reference, so flushing
    them returns the leases those sources hold.
    """
    entry = _PAYLOADS.get(ticket)
    if entry is None:
        entry = _PAYLOADS[ticket] = pickle.loads(payload)
        while len(_PAYLOADS) > _PAYLOAD_LIMIT:
            _PAYLOADS.popitem(last=False)
    else:
        _PAYLOADS.move_to_end(ticket)
    return entry


def _pool_unit(
    ticket: int,
    payload: bytes | None,
    task: RegionTask | ShardTask,
    max_shards: int | None,
) -> tuple[object, list[dict], list[int]]:
    """Run one unit in a pool worker; outcome and counts pickle back.

    A region crawls whole (``max_shards`` is ``None``) or is presplit
    into at most that many shards; a shard crawls its subtree.  The
    shard may run in another worker than its region's presplit did:
    both crawl deterministic copies of the session source, so the
    results are identical.  The region boundary returns the worker's
    leased headroom on every exit path -- an idle pool worker must
    never sit on charged units.

    Returns ``(outcome, counts, admitted)``.  ``outcome`` is the unit's
    result, or the exception it raised: returned, not raised, so that a
    failed unit's queries count too.  ``counts`` holds the ``state()``
    of each distinct server stats object of the session's source copy,
    in :func:`~repro.crawl.coordinator._server_stats` order, and
    ``admitted`` the admissions each shared-limit stub granted, in
    stub order.  Both are zeroed before the unit runs, because a
    cached payload serves many units: the counts are this unit's alone.
    """
    sources, factory, stubs = _cached_payload(ticket, payload)
    runner = LocalUnitRunner(sources, factory, stubs=stubs)
    stats = _server_stats(sources[task.session])
    zero = QueryStats().state()
    for each in stats:
        each.restore_state(zero)
    for stub in stubs:
        stub.admitted = 0
    try:
        if isinstance(task, ShardTask):
            outcome = runner.shard(task)
        elif max_shards is None:
            outcome = runner.region(task)
        else:
            outcome = runner.presplit(task, max_shards)
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        # Returned rather than raised, the exception would leave the
        # worker's traceback behind: a note carries it home.
        exc.add_note("".join(traceback.format_exception(exc)).rstrip())
        outcome = exc
    finally:
        runner.region_boundary()
    counts = [each.state() for each in stats]
    return outcome, counts, [stub.admitted for stub in stubs]


class WorkerPool:
    """A process pool made on first use and replaced when a worker dies.

    With ``payload`` (from :func:`pickle_payload`), the pool
    initializer unpickles it once per worker under :attr:`ticket`, so
    units run against it carry a few integers; without one, each
    :class:`PoolUnitRunner` ships its own payload with every unit.  A
    dead worker breaks a :class:`~concurrent.futures.
    ProcessPoolExecutor` for good: :meth:`replace` retires it, and the
    next :meth:`current` starts a fresh one.

    Examples
    --------
    ::

        pool = WorkerPool(4)
        payload = pickle_payload(sources, Hybrid)
        runner = PoolUnitRunner(pool, sources, payload=payload)
        result = crawl_region_unit(task, runner)
        pool.shutdown()
    """

    def __init__(
        self, max_workers: int, *, payload: bytes | None = None
    ):
        #: Ticket of the installed payload (``None`` without one).
        self.ticket: int | None = None
        initargs: tuple = ()
        if payload is not None:
            self.ticket = next(_TICKETS)
            initargs = (self.ticket, payload)
        self._make = functools.partial(
            ProcessPoolExecutor,
            max_workers=max_workers,
            initializer=_cached_payload if initargs else None,
            initargs=initargs,
        )
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    def current(self) -> ProcessPoolExecutor:
        """The live pool, started on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = self._make()
            return self._pool

    def replace(self, broken: ProcessPoolExecutor) -> None:
        """Retire ``broken`` unless a racing caller already did."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = None
        broken.shutdown(wait=False)

    def shutdown(self) -> None:
        """Wait for the live pool's tasks, then stop its workers."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class PoolUnitRunner(UnitRunner):
    """Run units on a :class:`WorkerPool`, one pool task per unit.

    The blocking :meth:`region` / :meth:`presplit` / :meth:`shard` ship
    a unit and wait for its outcome, so the stealing loop and
    :func:`~repro.crawl.runtime.crawl_region_unit` run a unit through
    the pool as they would in-process.  In the worker, a
    :class:`~repro.crawl.runtime.LocalUnitRunner` crawls the unit and
    flushes the stubs before the result leaves, so this runner's own
    region boundary has nothing to do.

    ``sources`` are the parent's copies of what the payload carries.
    Each unit's server counts come home with its outcome (see
    :func:`_pool_unit`) and are folded into the stats of
    ``sources[task.session]`` before the result returns or the unit's
    exception is re-raised, so the caller's ``server.stats`` read what
    the pool answered, on every backend path.

    ``credit``, when given, receives each landed unit's admission
    counts before its result returns: the process executor passes
    :meth:`~repro.crawl.coordinator.LimitCoordinator.credit`, so the
    caller's budget tracks the fleet's charge mid-crawl.

    ``payload`` rides along with every unit and is unpickled once per
    worker under this runner's own ticket; without it, units run
    against the pool's installed payload.  A blocking call whose pool
    broke under it retires the pool and raises
    :class:`~repro.exceptions.WorkerDeparted`, so the caller requeues
    the unit onto a fresh pool.
    """

    def __init__(
        self,
        pool: WorkerPool,
        sources: Sequence,
        *,
        payload: bytes | None = None,
        credit: Callable[[list[int]], None] | None = None,
    ):
        if payload is None and pool.ticket is None:
            raise ValueError("the pool has no installed payload; pass one")
        ticket = pool.ticket if payload is None else next(_TICKETS)
        self._pool = pool
        self._sources = sources
        self._args = (ticket, payload)
        self._credit = credit

    def _wait(self, task, max_shards):
        pool = self._pool.current()
        try:
            outcome, counts, admitted = pool.submit(
                _pool_unit, *self._args, task, max_shards
            ).result()
        except BrokenProcessPool as exc:
            self._pool.replace(pool)
            raise WorkerDeparted(
                f"process pool worker died mid-unit: {exc}"
            ) from exc
        stats = _server_stats(self._sources[task.session])
        for each, delta in zip(stats, counts, strict=True):
            each.merge_counts(delta)
        if self._credit is not None:
            self._credit(admitted)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def region(self, task: RegionTask) -> CrawlResult:
        """Crawl one whole region in a pool worker."""
        return self._wait(task, None)

    def presplit(self, task: RegionTask, max_shards: int):
        """Presplit one region in a pool worker; the plan pickles back."""
        return self._wait(task, max_shards)

    def shard(self, task: ShardTask) -> CrawlResult:
        """Crawl one subtree shard in a pool worker."""
        return self._wait(task, None)


class ProcessExecutor(CrawlExecutor):
    """Region crawls on a process pool, for CPU-bound simulated engines.

    Sources and the crawler factory are pickled once and shipped to
    each worker via the pool initializer of a :class:`WorkerPool` (so
    per-task overhead is a few integers, not a dataset).  Requires the
    serving stack's picklable paths: servers, clients, limits and
    engines all drop their locks on pickle and rebuild them on load.
    Cache listeners do not survive the trip, and each worker crawls its
    own *copy* of the sources.  Server stats need no sharing: each
    unit's counts come home with its outcome and land in the caller's
    own ``server.stats`` (a :class:`PoolUnitRunner` folds them in), so
    they read the sequential totals -- failed units included.

    Copies would admit a limit once per worker, so whenever a source
    stack carries a server-side limit
    (:func:`~repro.crawl.coordinator.carries_limits`) the authoritative
    limits and clocks move into a coordinator process
    (:mod:`repro.crawl.coordinator`) for the crawl: every worker admits
    through a thin proxy with **lease-batched** exactly-once semantics
    (budget chunks of :data:`~repro.crawl.coordinator.DEFAULT_LEASE_CHUNK`
    units, clamped against the remaining budget, or ``lease_chunk``
    explicitly).  Each unit's admissions reach the caller's budget as
    the unit lands, so a checkpoint written per region stores the
    charge so far; after the crawl (also after an exhaustion failure)
    the caller's original limit objects read the exact charged totals
    -- and their servers' stats the fleet's coordinator
    ``round_trips``.  Limit-free crawls
    start no coordinator.

    Dispatch is the thread backend's: :meth:`CrawlExecutor._execute`
    runs the same stealing loop on parent threads, one per pool worker,
    and only the runner differs -- a :class:`PoolUnitRunner`, whose
    blocking calls each wait on one pool task.  Every region is filed
    (``on_region``, progress, failure ranking) as it lands.  A pool
    worker that dies breaks the pool: the runner replaces it and
    raises :class:`~repro.exceptions.WorkerDeparted`, so the loop
    requeues the unit onto the fresh pool, exactly as for a departed
    thread worker.

    Progress reporting is completion-grained: the aggregator sees a
    session advance when a region finishes, not per query.
    """

    name = "process"

    def __init__(self, *, lease_chunk: int | None = None):
        if lease_chunk is not None and lease_chunk < 1:
            raise ValueError(
                f"lease_chunk must be positive, got {lease_chunk}"
            )
        self._lease_chunk = lease_chunk
        #: Bytes of the last payload shipped to the pool initializer.
        self.payload_bytes = 0

    def _workers(self, upper: int, spec: CrawlSpec) -> int:
        """Default to the core count, not the thread executor's 4x cap.

        Oversubscription pays off for latency-bound threads; worker
        *processes* exist for CPU-bound work, where anything beyond the
        cores adds only spawn time and a per-worker copy of the
        sources.
        """
        workers = spec.max_workers or os.cpu_count() or 1
        return max(1, min(workers, upper))

    @contextlib.contextmanager
    def _runner(self, sources, plan, spec, workers, feed):
        """A :class:`PoolUnitRunner` over a started pool of ``workers``.

        The pool, and the limit coordinator when the sources carry
        limits, live until the stealing loop has drained; ``feed`` is
        unused, because progress advances as results reach the parent.
        """
        with contextlib.ExitStack() as stack:
            stubs = ()
            credit = None
            if carries_limits(sources):
                coordinator = stack.enter_context(LimitCoordinator())
                # Unwinds after the pool below has drained, before the
                # coordinator shuts down: the caller's limit objects
                # read the exact charge, even after an exhaustion.
                stack.callback(coordinator.writeback)
                sources = coordinator.share_sources(sources)
                stubs = coordinator.shared_stubs()
                credit = coordinator.credit
                chunk = self._lease_chunk
                if chunk is None:
                    chunk = clamp_lease_chunk(
                        stubs, DEFAULT_LEASE_CHUNK, workers
                    )
                set_lease_chunk(stubs, chunk)
            payload = pickle_payload(sources, spec.crawler_factory, stubs)
            # Operator-side introspection: the bytes shipped per worker at
            # pool start-up (benchmarks gate this; see bench_hot_path.py).
            self.payload_bytes = len(payload)
            pool = WorkerPool(workers, payload=payload)
            stack.callback(pool.shutdown)
            # Start the pool from this thread, before any drive-loop
            # thread exists: forked from a drive-loop thread instead,
            # each worker peaks several megabytes higher.
            pool.current().submit(int).result()
            yield PoolUnitRunner(pool, sources, credit=credit)


#: Backend registry, keyed by the CLI's ``--executor`` names.
EXECUTORS: dict[str, type[CrawlExecutor]] = {
    "sequential": SequentialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}
