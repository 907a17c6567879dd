"""The job server's scheduling core: one fleet, many tenants, fairness.

A :class:`JobManager` runs a fixed fleet of worker threads over every
active job at once.  Each job keeps its own
:class:`~repro.crawl.rebalance.WorkStealingScheduler` (regions in plan
order, longest-queue stealing *within* the job) and its own
:class:`~repro.crawl.runtime.GridSink`; the manager's dispatch loop
round-robins **across tenants** on top of them: every time a worker
asks for work, the next tenant in rotation that has an acquirable
region gets the slot.  A tenant running ten jobs and a tenant running
one therefore drain at the same per-tenant rate -- the fairness
contract -- and a tenant whose budget is exhausted merely fails *its
own* regions (the per-tenant limits of
:class:`~repro.crawl.coordinator.TenantLimitRegistry` admit
independently), never stalling anyone else's.

Three layers extend that core:

* **Backends.**  The fleet threads are the *dispatch* plane; where a
  region unit actually crawls is the job's runner.  ``thread`` uses a
  :class:`~repro.crawl.runtime.LocalUnitRunner` (the unit crawls
  inline on the fleet thread), ``process`` a
  :class:`~repro.crawl.executors.PoolUnitRunner` over the manager's
  one shared :class:`~repro.crawl.executors.WorkerPool` -- per-tenant
  limits rehosted on a
  :class:`~repro.crawl.coordinator.LimitCoordinator` so admission
  stays exactly-once and lease-batched across OS processes.  Both
  commit through the same parent-side store seam, one transaction per
  region, so kill-and-restart re-issues zero queries regardless of
  backend.

* **Admission control.**  ``max_pending`` bounds each tenant's pending
  + running jobs; :meth:`JobManager.submit` refuses past the bound
  with a structured :class:`~repro.exceptions.RetryAfter` (nothing
  written, nothing charged).  Integer job ``priority`` folds into
  dispatch as strict priority *between* classes and tenant
  round-robin *within* a class.

* **Elasticity.**  A unit that raises
  :class:`~repro.exceptions.WorkerDeparted` (a killed pool worker, an
  injected fault) is re-queued at the front of its home session --
  never lost, never re-charged -- until the job scheduler's departure
  bound gives up on it.  A dead pool worker also gets the pool
  replaced.

Regions execute through the runtime's
:func:`~repro.crawl.runtime.crawl_region_unit` on either backend --
the same unit of work every batch executor bottoms out in -- so a
job's stored output
is byte-identical to the standalone crawl of the same spec.  Completed
regions stream into the :class:`~repro.service.store.ResultStore`
(rows plus the tenant's exact charge, one transaction per region), and
a job resubmitted after a server death resumes from the store with its
committed regions pre-filed: zero queries re-issued.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import threading
from dataclasses import dataclass

from repro.crawl.base import CrawlResult
from repro.crawl.coordinator import (
    DEFAULT_LEASE_CHUNK,
    LimitCoordinator,
    TenantLimitRegistry,
    clamp_lease_chunk,
    set_lease_chunk,
)
from repro.crawl.executors import PoolUnitRunner, WorkerPool, pickle_payload
from repro.crawl.partition import (
    PartitionedResult,
    PartitionPlan,
    _merge_session_results,
    partition_space,
)
from repro.crawl.rebalance import RegionKey, WorkStealingScheduler
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    crawl_region_unit,
    requeue_departed,
)
from repro.crawl.spec import CrawlSpec
from repro.exceptions import RetryAfter, WorkerDeparted
from repro.service.store import ResultStore
from repro.server.server import TopKServer

__all__ = [
    "JobManager",
    "JobState",
    "JobStatus",
    "BACKENDS",
    "rotation_order",
]

#: Fleet size when the caller does not choose one.
DEFAULT_FLEET = 4

#: Where a job's region units crawl (the dispatch plane is always the
#: manager's thread fleet).
BACKENDS = ("thread", "process")


def rotation_order(tenants: list[str], cursor: int) -> list[str]:
    """Tenants in round-robin order, starting at ``cursor``.

    The pure core of the dispatch rotation: ``tenants`` is one
    priority class's tenants in first-submission order, ``cursor`` the
    class's rotation state, and the result is the order in which the
    next free worker offers them the slot.  Serving the tenant at
    offset ``i`` advances the cursor *past* it
    (``cursor % n + i + 1``), which is what bounds any tenant's wait
    to one full rotation -- the starvation-freedom contract the
    property tests pin down.
    """
    if not tenants:
        return []
    start = cursor % len(tenants)
    return [
        tenants[(start + offset) % len(tenants)]
        for offset in range(len(tenants))
    ]


class JobState(enum.Enum):
    """One job's lifecycle state.

    ``PENDING`` (submitted, no region started yet) -> ``RUNNING`` ->
    one of the terminal states: ``DONE`` (every region committed),
    ``FAILED`` (a region raised; the lowest failing plan position's
    error is kept) or ``CANCELLED``.  The running/terminal split
    mirrors :class:`~repro.crawl.base.SessionState`, lifted from one
    session to one job.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """``True`` once the job can no longer make progress."""
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
        )


@dataclass(frozen=True)
class JobStatus:
    """One job's externally visible status snapshot.

    ``regions_done`` / ``cost`` / ``tuples`` count the regions
    *committed to the store* -- exactly the progress that survives a
    kill -- and ``error`` carries a failed job's first (lowest plan
    position) failure message.  ``priority`` is the job's admission
    class (higher is served strictly first).
    """

    job_id: int
    tenant: str
    name: str
    state: JobState
    regions_done: int
    regions_total: int
    cost: int
    tuples: int
    error: str | None = None
    priority: int = 0


@dataclass(eq=False)
class _Job:
    """Manager-internal live state of one active job."""

    job_id: int
    tenant: str
    name: str
    plan: PartitionPlan
    scheduler: WorkStealingScheduler
    sink: GridSink
    runner: UnitRunner
    priority: int = 0
    state: JobState = JobState.PENDING
    error: str | None = None


class JobManager:
    """A shared worker fleet multiplexing many tenants' crawl jobs.

    Construction starts ``workers`` daemon threads; :meth:`submit`
    hands them jobs, :meth:`shutdown` drains them (each finishes its
    in-flight region, nothing else starts).  ``backend`` picks where
    region units crawl (``thread`` or ``process``; a job spec's
    ``executor`` overrides per job), and ``max_pending`` bounds
    each tenant's pending + running jobs (``None`` = unbounded).  All
    public methods are thread-safe.

    Examples
    --------
    Two tenants share the fleet but not their budgets::

        registry = TenantLimitRegistry()
        registry.register("acme", budget=500)
        registry.register("umbrella", budget=80)
        with ResultStore("crawl.db") as store:
            manager = JobManager(store, registry, workers=4)
            job = manager.submit(
                "acme", dataset, k=64, name="demo",
                spec=CrawlSpec(max_workers=2),
            )
            manager.wait(job)
            manager.shutdown()
    """

    def __init__(
        self,
        store: ResultStore,
        registry: TenantLimitRegistry,
        *,
        workers: int = DEFAULT_FLEET,
        backend: str = "thread",
        max_pending: int | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {backend!r}; expected one of: {known}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be positive or None, got {max_pending}"
            )
        self._store = store
        self._registry = registry
        self._backend = backend
        self._max_pending = max_pending
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[int, _Job] = {}
        self._order: list[int] = []
        #: Per-priority-class tenant rotation cursors.
        self._rotation: dict[int, int] = {}
        #: Submissions past the admission check but not yet inserted.
        self._reserved: dict[str, int] = {}
        self._stop = False
        # Lazily created limit hosting.  Guarded by its own lock so
        # coordinator round trips never park the dispatch lock;
        # ordering is always backend lock -> job lock.
        self._backend_lock = threading.Lock()
        self._coordinator: LimitCoordinator | None = None
        self._shared_stubs: dict[str, list] = {}
        #: The process backend's pool, started by its first unit.
        self._pool = WorkerPool(workers)
        #: Bytes of the last process-job payload shipped to the pool.
        self.last_payload_bytes = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"job-fleet-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission and lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        dataset,
        k: int,
        *,
        name: str,
        spec: CrawlSpec | None = None,
        sessions: int | None = None,
        seed: int = 0,
        priority: int = 0,
        wrap_source=None,
    ) -> int:
        """Queue one crawl job; returns its durable job id.

        The job crawls ``dataset`` behind per-session
        :class:`~repro.server.server.TopKServer` fronts carrying the
        tenant's registered limits, partitioned into ``sessions``
        regions (default: the spec's ``max_workers``, else the fleet
        size is a sensible ceiling -- one region can occupy at most one
        worker).  ``spec`` is the crawl configuration -- the same
        :class:`~repro.crawl.spec.CrawlSpec` the batch CLI builds; its
        ``executor`` field overrides the manager backend for this job.
        ``priority`` is the job's admission class: classes drain in
        strictly descending order, tenants round-robin within one.
        ``wrap_source`` optionally wraps each session server (e.g. a
        :class:`~repro.server.latency.LatencySource` simulating network
        round trips, as the service benchmark does).

        When the manager's ``max_pending`` bound is set and the tenant
        already has that many jobs pending or running, the submission
        is refused with :class:`~repro.exceptions.RetryAfter` *before*
        anything is written or charged.

        Resubmitting an existing ``(tenant, name)`` resumes it: regions
        already committed to the store are pre-filed and re-issue zero
        queries.  A job whose stored identity (space, plan, ``k``)
        differs raises :class:`~repro.exceptions.SchemaError`.
        """
        with self._lock:
            if self._stop:
                raise RuntimeError("JobManager is shut down")
        if spec is None:
            spec = CrawlSpec()
        backend = self._resolve_backend(spec)
        with self._reservation(tenant):
            count = sessions or spec.max_workers or len(self._threads)
            plan = partition_space(dataset.space, count)
            job_id, completed = self._store.open_job(
                tenant, name, plan, k, priority=priority
            )
            if backend == "process":
                stubs = self._share_tenant(tenant)
            else:
                with self._backend_lock:
                    stubs = self._shared_stubs.get(tenant)
            # Once a tenant's limits are rehosted on the coordinator, every
            # job of that tenant -- whatever its backend -- admits through
            # the stubs: one authoritative copy, one exact charge.
            limits = (
                stubs if stubs is not None else self._registry.limits(tenant)
            )
            sources = [
                TopKServer(dataset, k, priority_seed=seed, limits=limits)
                for _ in range(plan.sessions)
            ]
            if wrap_source is not None:
                sources = [wrap_source(source) for source in sources]
            feed = AggregatorFeed(spec.aggregator, plan)

            if stubs:
                coordinator = self._coordinator

                # Commit-time charge reads land the tenant's admissions
                # so far in the registry's local objects on the way.
                def charge() -> dict:
                    return self._registry.pull_shared(
                        tenant, stubs, coordinator
                    )
            else:

                def charge() -> dict:
                    return self._registry.charges()[tenant]

            def on_region(key: RegionKey, result: CrawlResult) -> None:
                # The durability boundary: the region, its rows and the
                # tenant's exact charge commit as one transaction.  The
                # charge snapshot is a callable so the store reads it at
                # commit time, inside its critical section -- workers
                # committing concurrently for one tenant would otherwise
                # race stale snapshots into the last write.
                self._store.region_done(
                    job_id, key, result, tenant_charge=(tenant, charge)
                )
                if spec.on_region is not None:
                    spec.on_region(key, result)

            sink = GridSink(plan, feed, completed, on_region)
            # Each fleet thread crawls the regions it takes whole: no
            # other thread could take a region's shards, so the spec's
            # shard_subtrees presplits nothing here.
            scheduler = WorkStealingScheduler(
                plan.bundles,
                {key: result.cost for key, result in completed.items()},
            )
            runner: UnitRunner
            if backend == "process":
                # Clamped against this tenant's budget only: one poor
                # tenant never shrinks a rich one's batching.
                chunk = clamp_lease_chunk(
                    stubs, DEFAULT_LEASE_CHUNK, len(self._threads)
                )
                set_lease_chunk(stubs, chunk)
                payload = pickle_payload(sources, spec.crawler_factory, stubs)
                # Operator-side introspection: bytes shipped per dispatched
                # process job (benchmarks gate this; lower is better).
                self.last_payload_bytes = len(payload)
                # Each landed unit's admissions reach the tenant's
                # budget as it lands, so every commit stores them.
                runner = PoolUnitRunner(
                    self._pool,
                    sources,
                    payload=payload,
                    credit=functools.partial(
                        self._coordinator.credit, stubs=stubs
                    ),
                )
            else:
                runner = LocalUnitRunner(
                    sources,
                    spec.crawler_factory,
                    feed=feed,
                    stubs=stubs or (),
                )
            job = _Job(
                job_id,
                tenant,
                name,
                plan,
                scheduler,
                sink,
                runner,
                priority=priority,
            )
            with self._cond:
                if self._stop:
                    raise RuntimeError("JobManager is shut down")
                active = self._jobs.get(job_id)
                if active is not None and not active.state.terminal:
                    raise ValueError(
                        f"job {tenant!r}/{name!r} is already active"
                    )
                self._jobs[job_id] = job
                if job_id not in self._order:
                    self._order.append(job_id)
                if scheduler.done():
                    # Every region was already in the store: the resumed
                    # job is complete before a single worker touches it.
                    self._finalize_locked(job)
                self._cond.notify_all()
            return job_id

    def cancel(self, job_id: int) -> bool:
        """Cancel an active job; returns whether anything was stopped.

        Queued regions are discarded (the scheduler's ``abort`` drains
        them); a region already mid-crawl finishes its queries but its
        completion is dropped.  Terminal and unknown jobs return
        ``False``.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state.terminal:
                return False
            job.scheduler.abort()
            job.state = JobState.CANCELLED
            self._store.set_status(job_id, "cancelled")
            self._cond.notify_all()
            return True

    def wait(self, job_id: int, timeout: float | None = None) -> JobStatus:
        """Block until the job is terminal; returns its final status.

        Raises :class:`TimeoutError` if ``timeout`` (seconds) elapses
        first.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None and not self._cond.wait_for(
                lambda: job.state.terminal, timeout
            ):
                raise TimeoutError(
                    f"job {job_id} still {job.state.value} after "
                    f"{timeout}s"
                )
        return self.status(job_id)

    def status(self, job_id: int) -> JobStatus:
        """The job's current status (live state, durable counters)."""
        snapshot = self._store.job_status(job_id)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                state = job.state
                error = job.error
            else:
                state = JobState(snapshot["status"])
                error = snapshot["error"]
        return JobStatus(
            job_id=snapshot["job_id"],
            tenant=snapshot["tenant"],
            name=snapshot["name"],
            state=state,
            regions_done=snapshot["regions_done"],
            regions_total=snapshot["regions_total"],
            cost=snapshot["cost"],
            tuples=snapshot["tuples"],
            error=error,
            priority=snapshot["priority"],
        )

    def queue_depth(self, tenant: str) -> int:
        """The tenant's admission depth: pending + running + reserved.

        Exactly the number :meth:`submit` checks against
        ``max_pending``, and the ``depth`` a refusal's
        :class:`~repro.exceptions.RetryAfter` carries.
        """
        with self._lock:
            return self._depth_locked(tenant)

    def wait_for_slot(
        self, tenant: str, timeout: float | None = None
    ) -> bool:
        """Block until the tenant is under its admission bound.

        Returns ``True`` when a slot is free (always, when the manager
        is unbounded), ``False`` on timeout.  The natural retry loop
        around a :class:`~repro.exceptions.RetryAfter` refusal -- but
        note the slot is not *held*: a racing submitter can still take
        it first.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._stop
                or self._max_pending is None
                or self._depth_locked(tenant) < self._max_pending,
                timeout,
            )

    def result(self, job_id: int) -> PartitionedResult:
        """A finished job's merged result, byte-identical to batch.

        Only for jobs completed in this server's lifetime (the result
        grid lives in memory; rows of older jobs come from
        :meth:`ResultStore.rows <repro.service.store.ResultStore.rows>`).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"job {job_id} is not active in this server")
            if job.state is not JobState.DONE:
                raise ValueError(
                    f"job {job_id} is {job.state.value}, not done"
                )
            grid = tuple(tuple(session) for session in job.sink.grid)
        return _merge_session_results(job.plan, grid)

    def shutdown(self) -> None:
        """Stop the fleet (idempotent).

        Each worker finishes the region it is crawling -- committed
        work is never torn -- and nothing further is dispatched;
        non-terminal jobs stay resumable from the store.  Backend
        resources (process pool, limit coordinator) are torn down after
        the fleet drains, with every shared tenant's authoritative
        charge landed back in the registry first.
        """
        with self._cond:
            if self._stop:
                return
            self._stop = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._pool.shutdown()
        with self._backend_lock:
            coordinator = self._coordinator
            self._coordinator = None
            self._shared_stubs.clear()
        if coordinator is not None:
            # Land the exact authoritative charges in the registry's
            # local objects before the coordinator process goes away;
            # the store already holds them from the last region commit.
            coordinator.writeback()
            coordinator.shutdown()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _depth_locked(self, tenant: str) -> int:
        depth = self._reserved.get(tenant, 0)
        for job in self._jobs.values():
            if job.tenant == tenant and not job.state.terminal:
                depth += 1
        return depth

    @contextlib.contextmanager
    def _reservation(self, tenant: str):
        """Hold one submission's slot against the tenant's pending bound.

        The reservation closes the check-then-insert window: two
        racing submitters both seeing ``bound - 1`` jobs must not both
        pass.  Refusal is clean -- raised before the store, the
        registry or the backend plumbing is touched.  The slot is
        released on exit, when a submitted job already counts itself.
        """
        with self._cond:
            if self._max_pending is not None:
                depth = self._depth_locked(tenant)
                if depth >= self._max_pending:
                    raise RetryAfter(
                        f"tenant {tenant!r} has {depth} jobs pending or "
                        f"running (bound {self._max_pending}); retry "
                        "after one drains",
                        tenant=tenant,
                        depth=depth,
                        bound=self._max_pending,
                    )
            self._reserved[tenant] = self._reserved.get(tenant, 0) + 1
        try:
            yield
        finally:
            with self._cond:
                remaining = self._reserved.get(tenant, 0) - 1
                if remaining > 0:
                    self._reserved[tenant] = remaining
                else:
                    self._reserved.pop(tenant, None)
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def _resolve_backend(self, spec: CrawlSpec) -> str:
        backend = spec.executor or self._backend
        if backend == "sequential":
            # The batch CLI's sequential executor is the thread
            # backend's dispatch shape with a one-worker fleet; at the
            # service layer the fleet size is the manager's, so the
            # unit still crawls inline on a fleet thread.
            backend = "thread"
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {backend!r}; expected one of: {known}"
            )
        return backend

    def _share_tenant(self, tenant: str) -> list:
        """The tenant's limits as coordinator stubs (hosted lazily).

        First process-backed submission for a tenant rehosts its
        registered limits on the manager's
        :class:`~repro.crawl.coordinator.LimitCoordinator`; afterwards
        *every* job of the tenant admits through the stubs.  Rehosting
        under the tenant's active in-process jobs would strand their
        local charges, so that is refused.
        """
        limits = self._registry.limits(tenant)
        with self._backend_lock:
            stubs = self._shared_stubs.get(tenant)
            if stubs is not None:
                return stubs
            if limits:
                with self._lock:
                    active = sum(
                        1
                        for job in self._jobs.values()
                        if job.tenant == tenant and not job.state.terminal
                    )
                if active:
                    raise ValueError(
                        f"cannot rehost tenant {tenant!r} limits on the "
                        f"coordinator while {active} of its jobs admit "
                        "in-process; drain them first"
                    )
            if self._coordinator is None:
                self._coordinator = LimitCoordinator().start()
            stubs = self._registry.share(tenant, self._coordinator)
            self._shared_stubs[tenant] = stubs
            return stubs

    # ------------------------------------------------------------------
    # The fleet
    # ------------------------------------------------------------------
    def _next_work_locked(self):
        """The next (job, task) under priority + tenant round-robin.

        Active jobs group into priority classes; classes are walked in
        strictly descending priority (a lower class is served only
        when every higher class has nothing acquirable).  Within a
        class, tenants are walked in rotation order starting after the
        tenant served last (:func:`rotation_order`); within a tenant,
        jobs are tried in submission order.  Advancing the class's
        cursor *past* the tenant that got the slot is what makes
        dispatch fair: a tenant is served at most once per full
        rotation of its class, however many jobs or regions it has
        queued.
        """
        classes: dict[int, list[str]] = {}
        by_tenant: dict[tuple[int, str], list[_Job]] = {}
        for job_id in self._order:
            job = self._jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            bucket = by_tenant.setdefault((job.priority, job.tenant), [])
            if not bucket:
                classes.setdefault(job.priority, []).append(job.tenant)
            bucket.append(job)
        for priority in sorted(classes, reverse=True):
            tenants = classes[priority]
            cursor = self._rotation.get(priority, 0)
            start = cursor % len(tenants)
            for offset, tenant in enumerate(rotation_order(tenants, cursor)):
                for job in by_tenant[(priority, tenant)]:
                    task = job.scheduler.acquire(block=False)
                    if task is not None:
                        if job.state is JobState.PENDING:
                            job.state = JobState.RUNNING
                            self._store.set_status(job.job_id, "running")
                        self._rotation[priority] = (
                            start + offset + 1
                        ) % len(tenants)
                        return job, task
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                item = None
                while not self._stop:
                    item = self._next_work_locked()
                    if item is not None:
                        break
                    self._cond.wait()
                if item is None:
                    return
            job, task = item
            try:
                result = crawl_region_unit(task, job.runner)
            except WorkerDeparted as exc:
                # The worker is gone, not the unit: requeue it for the
                # fleet (the doomed attempt flushed its leases, so the
                # charge stays exact) or file it once the scheduler
                # gives up.  Under the lock, so no worker finalises the
                # job between the unit's write-off and its filing.
                with self._cond:
                    requeue_departed(job.scheduler, task, job.sink, exc)
            except Exception as exc:  # noqa: BLE001 - filed, not raised
                # Filed before the scheduler hears of it, for the same
                # reason: done() must never precede the failure.
                job.sink.region_failed(task.key, task.session, exc)
                job.scheduler.fail(task)
            else:
                job.sink.region_done(task.key, result)
                job.scheduler.complete(task, result.cost)
            with self._cond:
                if not job.state.terminal and job.scheduler.done():
                    self._finalize_locked(job)
                self._cond.notify_all()

    def _finalize_locked(self, job: _Job) -> None:
        # Caller holds self._lock.
        if job.sink.failures:
            job.sink.failures.sort(key=lambda failure: failure[0])
            job.error = str(job.sink.failures[0][1])
            job.state = JobState.FAILED
            self._store.set_status(
                job.job_id, "failed", error=job.error
            )
        else:
            job.state = JobState.DONE
            self._store.set_status(job.job_id, "done")
