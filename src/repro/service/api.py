"""The service facade: one object, four verbs, one durable store.

:class:`CrawlService` wires the three service pieces together -- the
:class:`~repro.service.store.ResultStore`, the per-tenant
:class:`~repro.crawl.coordinator.TenantLimitRegistry` and the
:class:`~repro.service.jobs.JobManager` fleet -- behind the thin API
the ``repro-serve`` CLI (and any embedding program) talks to:
``submit``, ``status``, ``cancel``, ``rows``.
"""

from __future__ import annotations

from pathlib import Path

from repro.crawl.coordinator import TenantLimitRegistry
from repro.crawl.partition import PartitionedResult
from repro.crawl.spec import CrawlSpec
from repro.server.limits import SimulatedClock
from repro.service.jobs import DEFAULT_FLEET, JobManager, JobStatus
from repro.service.store import ResultStore

__all__ = ["CrawlService"]


class CrawlService:
    """A multi-tenant crawl job server over one durable SQLite store.

    Opening the service starts its worker fleet; closing it (context
    manager or :meth:`shutdown`) drains the fleet and closes the store.
    Everything a job produces is committed to the store region by
    region, so a service killed mid-crawl loses nothing committed:
    reopen the same store path, re-register the tenants, resubmit the
    jobs, and each resumes from its committed regions re-issuing zero
    queries -- with every tenant's exact admission charge restored.

    ``backend`` picks where region units crawl -- ``thread`` (inline
    on the fleet) or ``process`` (a worker-process pool, per-tenant
    limits coordinator-hosted for exactly-once admission) -- and
    ``max_pending`` bounds each tenant's pending + running jobs
    (refusals raise :class:`~repro.exceptions.RetryAfter`).

    Examples
    --------
    Serve two tenants' jobs concurrently over one fleet::

        with CrawlService("crawl.db", workers=4) as service:
            service.register_tenant("acme", budget=500)
            service.register_tenant("umbrella", budget=80)
            job = service.submit(
                "acme", dataset, k=64, name="demo",
                spec=CrawlSpec(max_workers=2),
            )
            service.wait(job)
            service.rows(job)    # the extracted bag, merge-ordered
    """

    def __init__(
        self,
        store_path: str | Path,
        *,
        workers: int = DEFAULT_FLEET,
        backend: str = "thread",
        max_pending: int | None = None,
        clock: SimulatedClock | None = None,
    ):
        self.store = ResultStore(store_path)
        self.registry = TenantLimitRegistry(clock=clock)
        self.manager = JobManager(
            self.store,
            self.registry,
            workers=workers,
            backend=backend,
            max_pending=max_pending,
        )

    def register_tenant(
        self,
        tenant: str,
        *,
        budget: int | None = None,
        per_day: int | None = None,
    ) -> None:
        """Declare a tenant and its quotas; restores persisted charges.

        Idempotent for equal quotas.  If the store holds the tenant's
        charge snapshot from a previous server life, it is restored
        under the registry's same-window semantics -- queries a dead
        server already charged stay charged.
        """
        self.registry.register(tenant, budget=budget, per_day=per_day)
        charge = self.store.tenant_charge(tenant)
        if charge is not None:
            self.registry.restore(tenant, charge)

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
        """Queue a crawl job for ``tenant``; returns its durable id.

        See :meth:`JobManager.submit
        <repro.service.jobs.JobManager.submit>` -- the spec is the same
        :class:`~repro.crawl.spec.CrawlSpec` the batch CLI builds
        (its ``executor`` overrides the service backend per job),
        ``priority`` classes drain strictly before lower ones, and
        resubmitting an existing ``(tenant, name)`` resumes it from the
        store.  Raises :class:`~repro.exceptions.RetryAfter` when the
        tenant is at the service's ``max_pending`` bound.
        """
        return self.manager.submit(
            tenant,
            dataset,
            k,
            name=name,
            spec=spec,
            sessions=sessions,
            seed=seed,
            priority=priority,
            wrap_source=wrap_source,
        )

    def status(self, job_id: int) -> JobStatus:
        """The job's current lifecycle state and committed progress."""
        return self.manager.status(job_id)

    def cancel(self, job_id: int) -> bool:
        """Cancel an active job; ``False`` for terminal/unknown jobs."""
        return self.manager.cancel(job_id)

    def rows(
        self,
        job_id: int,
        *,
        offset: int = 0,
        limit: int | None = None,
    ) -> list[tuple[int, ...]]:
        """The job's committed rows, merge-ordered, mid-crawl included.

        ``offset``/``limit`` page through the deterministic merge
        order; every page is a contiguous slice of a committed prefix.
        """
        return self.store.rows(job_id, offset=offset, limit=limit)

    def queue_depth(self, tenant: str) -> int:
        """The tenant's admission depth (pending + running jobs)."""
        return self.manager.queue_depth(tenant)

    def wait_for_slot(
        self, tenant: str, timeout: float | None = None
    ) -> bool:
        """Block until the tenant is under the ``max_pending`` bound."""
        return self.manager.wait_for_slot(tenant, timeout)

    def wait(self, job_id: int, timeout: float | None = None) -> JobStatus:
        """Block until the job is terminal; returns its final status."""
        return self.manager.wait(job_id, timeout)

    def result(self, job_id: int) -> PartitionedResult:
        """A job finished in this server's lifetime, merged."""
        return self.manager.result(job_id)

    def shutdown(self) -> None:
        """Drain the fleet and close the store (idempotent)."""
        self.manager.shutdown()
        self.store.close()

    def __enter__(self) -> "CrawlService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
