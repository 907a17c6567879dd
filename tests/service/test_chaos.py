"""Chaos suite: the job server under injected worker death.

Two fault shapes, each swept across the thread and process backends
(parametrized directly, not via the backend matrix fixture -- tier-1
always runs both):

* **Survivable departure** -- a worker departs at a region boundary
  mid-job.  The fleet requeues the unit, the job completes, and the
  books are indistinguishable from an undisturbed run: rows
  byte-identical to the standalone sequential crawl, the tenant
  charged exactly the standalone crawl's server queries.  The injector
  leaves a PID trail proving the fault really fired -- inside a pool
  worker process for the process backend.

* **Fatal crash, then restart** -- after ``kill_after`` healthy
  regions every attempt departs, the fleet burns its replacement cap
  and the job fails loudly.  The service is shut down ("killed"), a
  new one opens the same store, re-registers the tenant (restoring the
  dead server's exact charge snapshot) and resubmits: the job resumes
  from its committed regions, finishes byte-identical, and the
  tenant's lifetime charge equals the standalone crawl's queries
  exactly -- committed regions re-issued **zero** queries.

A third shape is process-only:

* **Dead pool worker** -- a pool worker process exits mid-job.  The
  broken pool is replaced, the unit is requeued onto the new one, and
  the job completes byte-identical with the exact charge; a second job
  then runs on the replaced pool.

Departures are injected at crawler *construction* (mirroring the
executor fault suite), so a doomed attempt never issues a query and
charge arithmetic stays exact across the crash.
"""

import os
import threading

import numpy as np
import pytest

from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import WorkerDeparted
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from repro.service.api import CrawlService
from repro.service.jobs import JobState
from repro.service.store import ResultStore

K = 32
SESSIONS = 3
BACKENDS = ("thread", "process")


# ----------------------------------------------------------------------
# Fault injectors (module level: the process backend pickles them)
# ----------------------------------------------------------------------
class DepartOnce:
    """Crawler factory: the ``nth`` construction departs, once.

    Every other attempt builds a plain ``Hybrid``.  Appends the
    departing worker's PID to ``marker`` so tests can prove where the
    fault fired.  Picklable; each pool worker's unpickled copy counts
    its own attempts.
    """

    def __init__(self, nth, marker):
        self.nth = int(nth)
        self.count = 0
        self.marker = str(marker)
        self._lock = threading.Lock()

    def __getstate__(self):
        return {"nth": self.nth, "count": self.count, "marker": self.marker}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __call__(self, view):
        with self._lock:
            self.count += 1
            departed = self.count == self.nth
        if departed:
            with open(self.marker, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            raise WorkerDeparted(
                f"chaos: injected departure at attempt #{self.nth}"
            )
        return Hybrid(view)


class DieAfter:
    """Crawler factory: ``healthy`` good regions, then every attempt
    departs -- a crash the fleet's replacement cap cannot outlive."""

    def __init__(self, healthy, marker):
        self.healthy = int(healthy)
        self.count = 0
        self.marker = str(marker)
        self._lock = threading.Lock()

    def __getstate__(self):
        return {
            "healthy": self.healthy,
            "count": self.count,
            "marker": self.marker,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __call__(self, view):
        with self._lock:
            self.count += 1
            departed = self.count > self.healthy
        if departed:
            with open(self.marker, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            raise WorkerDeparted("chaos: the worker is gone for good")
        return Hybrid(view)


class ExitOnce:
    """Crawler factory: the first construction in a pool worker kills
    that worker process outright (``os._exit``), once per marker file.

    The marker is created with ``O_EXCL``, so exactly one worker dies
    however many race; the parent process never exits.
    """

    def __init__(self, marker):
        self.marker = str(marker)
        self.parent = os.getpid()

    def __call__(self, view):
        if os.getpid() != self.parent:
            try:
                fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os._exit(1)
        return Hybrid(view)


# ----------------------------------------------------------------------
# The ground truth: one standalone sequential crawl
# ----------------------------------------------------------------------
def chaos_dataset(seed=11, n=180):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 5), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 399)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 6, n),
            rng.integers(1, 4, n),
            rng.integers(0, 400, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return chaos_dataset()


@pytest.fixture(scope="module")
def reference(dataset):
    plan = partition_space(dataset.space, SESSIONS)
    meter = QueryBudget(1_000_000)
    sources = [
        TopKServer(dataset, K, priority_seed=0, limits=[meter])
        for _ in range(SESSIONS)
    ]
    result = crawl_partitioned(sources, plan)
    return result, meter.used


@pytest.fixture(scope="module")
def standalone(reference):
    return reference[0]


@pytest.fixture(scope="module")
def standalone_queries(reference):
    return reference[1]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSurvivableDeparture:
    def test_departure_mid_job_leaves_no_trace_in_the_books(
        self, tmp_path, dataset, standalone, standalone_queries, backend
    ):
        marker = tmp_path / "departures.log"
        with CrawlService(
            tmp_path / "crawl.db", workers=2, backend=backend
        ) as service:
            service.register_tenant("acme", budget=100_000)
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(crawler_factory=DepartOnce(2, marker)),
                sessions=SESSIONS,
            )
            status = service.wait(job, timeout=120)
            assert status.state is JobState.DONE
            assert status.regions_done == status.regions_total
            # Byte-identical rows, exact charge: the departed attempt
            # issued zero queries and its region was re-crawled.
            assert service.rows(job) == list(standalone.rows)
            assert (
                service.registry.budget("acme").used
                == standalone_queries
            )
        pids = [int(line) for line in marker.read_text().split()]
        assert pids, "the injected departure never fired"
        if backend == "process":
            # The fault fired inside a pool worker, not the parent.
            assert all(pid != os.getpid() for pid in pids)
        else:
            assert all(pid == os.getpid() for pid in pids)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kill_after", (1, 2, 3))
class TestKillRestartSweep:
    def test_crash_then_restart_reissues_zero_queries(
        self,
        tmp_path,
        dataset,
        standalone,
        standalone_queries,
        backend,
        kill_after,
    ):
        budget = 100_000
        marker = tmp_path / "crash.log"
        store_path = tmp_path / "crawl.db"
        # One fleet worker: regions complete serially, so the crash
        # point is deterministic and the stored charge snapshot is
        # never smeared by a concurrent lease.
        with CrawlService(
            store_path, workers=1, backend=backend
        ) as service:
            service.register_tenant("acme", budget=budget)
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(
                    crawler_factory=DieAfter(kill_after, marker)
                ),
                sessions=SESSIONS,
            )
            status = service.wait(job, timeout=120)
            # The fleet burned its replacement cap and failed loudly.
            assert status.state is JobState.FAILED
            assert status.regions_done == kill_after
            assert "chaos" in status.error
        assert marker.read_text().strip(), "the crash never fired"

        with ResultStore(store_path) as store:
            snapshot = store.job_status(job)
            charge = store.tenant_charge("acme")
        assert snapshot["status"] == "failed"
        assert snapshot["regions_done"] == kill_after
        charged_at_crash = charge["budget"]["used"]
        assert 0 < charged_at_crash < standalone_queries

        # Restart: same store, same tenant declaration, healthy spec.
        with CrawlService(
            store_path, workers=2, backend=backend
        ) as revived:
            revived.register_tenant("acme", budget=budget)
            # The dead server's exact charge came back with the tenant.
            assert (
                revived.registry.budget("acme").used == charged_at_crash
            )
            resumed = revived.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            final = revived.wait(resumed, timeout=120)
            assert final.state is JobState.DONE
            assert revived.rows(resumed) == list(standalone.rows)
            assert final.cost == standalone.cost
            # Zero re-issue: lifetime charge equals the standalone
            # crawl's server queries exactly -- the committed regions
            # cost nothing the second time around.
            assert (
                revived.registry.budget("acme").used
                == standalone_queries
            )


class TestDeadPoolWorker:
    def test_dead_worker_is_replaced_and_the_job_completes(
        self, tmp_path, dataset, standalone, standalone_queries
    ):
        marker = tmp_path / "exited"
        # One fleet worker, so one unit is in flight when the pool
        # breaks: a second in-flight unit would be killed mid-crawl and
        # its charged queries re-issued on the replacement.
        with CrawlService(
            tmp_path / "crawl.db", workers=1, backend="process"
        ) as service:
            service.register_tenant("acme", budget=100_000)
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(crawler_factory=ExitOnce(marker)),
                sessions=SESSIONS,
            )
            status = service.wait(job, timeout=120)
            assert marker.exists(), "no pool worker ever exited"
            assert status.state is JobState.DONE
            assert service.rows(job) == list(standalone.rows)
            assert (
                service.registry.budget("acme").used
                == standalone_queries
            )
            # The replaced pool serves the next job.
            again = service.submit(
                "acme", dataset, K, name="again", sessions=SESSIONS
            )
            assert service.wait(again, timeout=120).state is JobState.DONE
            assert service.rows(again) == list(standalone.rows)
            assert (
                service.registry.budget("acme").used
                == 2 * standalone_queries
            )
