"""Fault-tolerance suite: elastic fleets, requeued units, exact books.

The tentpole contract under test: a crawl fleet survives losing
workers.  A departing worker (anything that raises
:class:`~repro.exceptions.WorkerDeparted`) hands its in-flight region
or shard back to the scheduler via ``requeue()``, its lease/stats flush
runs on the way out (the drive loop's ``finally``, the pool wire
function's unit boundary), and the executors submit
replacements -- so the crawl completes with the *exact* bytes and the
*exact* budget charge of an undisturbed run.  A fleet that keeps
departing past the scheduler's departure bound fails loudly instead of
hanging, on every backend.

Three layers, mirroring where the machinery lives:

* scheduler unit tests -- the ``requeue()`` contract on
  :class:`~repro.crawl.rebalance.WorkStealingScheduler`, for regions
  and for subtree shards;
* drive-loop tests -- :func:`~repro.crawl.runtime.drive_stealing`
  departing at every unit position and a second loop resuming to full
  parity;
* executor tests -- kill-at-every-region-boundary sweeps and mid-crawl
  query-level deaths across the thread and process backends (the
  latter with and without budgeted sources).
"""

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.crawl.spec import CrawlSpec
from repro.crawl.base import ProgressAggregator
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.rebalance import (
    RegionTask,
    ShardTask,
    WorkStealingScheduler,
)
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    drive_stealing,
)
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import AlgorithmInvariantError, WorkerDeparted
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from tests.service.test_chaos import ExitOnce

SESSIONS = 3


# ----------------------------------------------------------------------
# Fault injectors (module level: the process backend pickles them)
# ----------------------------------------------------------------------
class DepartAt:
    """Crawler factory: the fleet loses a worker at one region attempt.

    Raises :class:`WorkerDeparted` on exactly the ``nth`` crawler
    construction -- i.e. at a region boundary, before the doomed
    attempt issues a single query -- and builds plain ``Hybrid``
    crawlers on every other attempt.  Picklable for the process
    backend, where each pool worker's unpickled copy counts its own
    attempts (so ``nth=2`` lets every worker finish one region before
    departing once).
    """

    def __init__(self, nth: int, marker=None):
        self.nth = int(nth)
        self.count = 0
        #: Optional file appended to on every departure, so tests can
        #: verify the fault really fired inside a pool worker process.
        self.marker = str(marker) if marker is not None else None
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
            if self.marker is not None:
                with open(self.marker, "a") as handle:
                    handle.write("departed\n")
            raise WorkerDeparted(
                f"injected departure at region attempt #{self.nth}"
            )
        return Hybrid(view)


class AlwaysDepart:
    """Crawler factory for the hopeless fleet: every attempt departs."""

    def __call__(self, view):
        raise WorkerDeparted("injected: every worker departs")


class DepartingSource:
    """Source wrapper departing at chosen query ordinals (1-based).

    The fatal query is swallowed, never forwarded, so the server's
    books show only queries that really ran; the interrupted unit is
    re-crawled from scratch by whoever picks it up.  ``_source`` is
    exposed because it is the rewiring seam the shared-limit
    coordinator walks.
    """

    def __init__(self, source, die_at):
        self._source = source
        self._die_at = frozenset(die_at)
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def space(self):
        return self._source.space

    @property
    def k(self):
        return self._source.k

    def run(self, query):
        with self._lock:
            self._calls += 1
            departed = self._calls in self._die_at
        if departed:
            raise WorkerDeparted(
                f"injected departure at query #{self._calls}"
            )
        return self._source.run(query)


class DepartingRunner(UnitRunner):
    """UnitRunner wrapper: the worker departs before its nth unit."""

    def __init__(self, inner: UnitRunner, die_at: int):
        self._inner = inner
        self._die_at = die_at
        self.calls = 0
        self.unflushed = False

    def _tick(self):
        self.calls += 1
        if self.calls == self._die_at:
            self.unflushed = True
            raise WorkerDeparted(
                f"injected departure at unit #{self.calls}"
            )

    def region(self, task):
        self._tick()
        return self._inner.region(task)

    def presplit(self, task, max_shards):
        self._tick()
        return self._inner.presplit(task, max_shards)

    def shard(self, task):
        self._tick()
        return self._inner.shard(task)

    def region_boundary(self):
        self.unflushed = False
        self._inner.region_boundary()


@dataclass(frozen=True)
class FakeShard:
    order: int


@dataclass(frozen=True)
class FakeShardPlan:
    shards: tuple


@dataclass(frozen=True)
class FakeResult:
    cost: int


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(11)
    space = DataSpace.mixed(
        [("make", 6), ("body", 2)],
        ["price"],
        numeric_bounds=[(0, 299)],
    )
    n = 240
    rows = np.column_stack(
        [
            rng.integers(1, 7, n),
            rng.integers(1, 3, n),
            rng.integers(0, 300, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


def make_sources(dataset):
    return [TopKServer(dataset, k=32) for _ in range(SESSIONS)]


@pytest.fixture(scope="module")
def reference(dataset, plan):
    return crawl_partitioned(make_sources(dataset), plan)


@pytest.fixture(scope="module")
def baseline_queries(dataset, plan):
    """Per-session *server-side* query counts of an undisturbed crawl.

    The budget-exactness bar: a limit charges only queries that really
    reach the server (``CrawlResult.cost`` also counts queries a
    region crawl resolves locally), so after a zero-waste departure the
    budgets must land exactly here.
    """
    sources = make_sources(dataset)
    crawl_partitioned(sources, plan)
    return [source.stats.queries for source in sources]


def assert_identical(result, reference):
    """The byte-identity bar: field-by-field parity with sequential."""
    assert result.rows == reference.rows
    assert result.cost == reference.cost
    assert result.complete == reference.complete
    assert result.session_costs() == reference.session_costs()
    assert result.progress == reference.progress


def assert_grid_matches(sink, reference):
    """Every grid cell equals the sequential run's region result."""
    for session, session_results in enumerate(reference.results):
        for index, expected in enumerate(session_results):
            filed = sink.grid[session][index]
            assert filed is not None
            assert filed.rows == expected.rows
            assert filed.cost == expected.cost


# ----------------------------------------------------------------------
# Scheduler layer: the requeue() contract
# ----------------------------------------------------------------------
class TestRequeue:
    def test_requeued_region_returns_to_front_of_home_queue(self):
        scheduler = WorkStealingScheduler([["a0", "a1"], ["b0"]])
        first = scheduler.acquire(0)
        assert first.key == (0, 0)
        assert scheduler.requeue(first) is True
        # The departed worker's unit is the next thing its session runs.
        again = scheduler.acquire(0)
        assert again == first
        scheduler.complete(again, 3)
        for _ in range(2):
            scheduler.complete(scheduler.acquire(0), 1)
        assert scheduler.acquire(0) is None
        assert scheduler.done()
        assert not scheduler.failed_keys()
        # Exactly-once accounting is untouched by the round trip.
        assert scheduler.total_observed_cost() == 5
        assert scheduler.completed_costs()[(0, 0)] == 3

    def test_only_an_acquirer_may_requeue(self):
        scheduler = WorkStealingScheduler([["a0"]])
        with pytest.raises(AlgorithmInvariantError, match="not in flight"):
            scheduler.requeue(RegionTask(0, 0, "a0"))

    def test_double_requeue_raises(self):
        scheduler = WorkStealingScheduler([["a0"]])
        task = scheduler.acquire(0)
        assert scheduler.requeue(task) is True
        with pytest.raises(AlgorithmInvariantError, match="not in flight"):
            scheduler.requeue(task)

    def test_requeue_after_abort_drains_silently(self):
        scheduler = WorkStealingScheduler([["a0", "a1"]])
        task = scheduler.acquire(0)
        scheduler.abort()
        assert scheduler.requeue(task) is False
        assert scheduler.acquire(0) is None

    def test_subtree_shard_requeue_resumes_in_order(self):
        scheduler = WorkStealingScheduler([["r0"]])
        region = scheduler.acquire(0)
        plan = FakeShardPlan((FakeShard(0), FakeShard(1)))
        assert scheduler.publish(region, plan) is None
        shard0 = scheduler.acquire(0)
        shard1 = scheduler.acquire(0)
        assert isinstance(shard0, ShardTask) and shard0.shard.order == 0
        # The departed worker's shard goes back to the region's front.
        assert scheduler.requeue(shard0) is True
        resumed = scheduler.acquire(0)
        assert resumed.shard.order == 0
        assert scheduler.complete_shard(resumed, FakeResult(2)) is None
        completion = scheduler.complete_shard(shard1, FakeResult(3))
        assert completion is not None and completion.task.key == (0, 0)
        scheduler.complete_region((0, 0), 5)
        assert scheduler.done()
        assert scheduler.total_observed_cost() == 5

    def test_shard_requeue_after_sibling_failure_is_dropped(self):
        scheduler = WorkStealingScheduler([["r0"]])
        region = scheduler.acquire(0)
        scheduler.publish(region, FakeShardPlan((FakeShard(0), FakeShard(1))))
        shard0 = scheduler.acquire(0)
        shard1 = scheduler.acquire(0)
        scheduler.fail(shard0)
        # The region is already written off; the returned shard drains.
        assert scheduler.requeue(shard1) is False
        assert scheduler.acquire(0) is None
        assert scheduler.done()
        assert scheduler.failed_keys() == {(0, 0)}

    def test_requeue_past_the_bound_fails_the_region(self):
        scheduler = WorkStealingScheduler([["a0"], ["b0"]])
        assert scheduler.max_departures == 4 * (2 + 1)
        for _ in range(scheduler.max_departures):
            assert scheduler.requeue(scheduler.acquire(0)) is True
        task = scheduler.acquire(0)
        assert scheduler.requeue(task) is False
        assert scheduler.departures > scheduler.max_departures
        assert scheduler.failed_keys() == {task.key}
        # The other region is still served.
        other = scheduler.acquire(0)
        assert other.key != task.key
        scheduler.complete(other, 1)
        assert scheduler.done()

    def test_shard_requeue_past_the_bound_fails_its_region(self):
        scheduler = WorkStealingScheduler([["r0"]])
        region = scheduler.acquire(0)
        scheduler.publish(region, FakeShardPlan((FakeShard(0), FakeShard(1))))
        scheduler.departures = scheduler.max_departures
        shard0 = scheduler.acquire(0)
        shard1 = scheduler.acquire(0)
        assert scheduler.requeue(shard0) is False
        assert scheduler.failed_keys() == {(0, 0)}
        # The in-flight sibling drains like a late completion.
        assert scheduler.complete_shard(shard1, FakeResult(1)) is None
        assert scheduler.acquire(0) is None
        assert scheduler.done()

    def test_shard_never_in_flight_raises(self):
        scheduler = WorkStealingScheduler([["r0"]])
        with pytest.raises(AlgorithmInvariantError, match="not in flight"):
            scheduler.requeue(ShardTask(0, 0, "r0", FakeShard(0)))


# ----------------------------------------------------------------------
# Drive-loop layer: departure at every unit position, then resume
# ----------------------------------------------------------------------
class TestDriveLoopDeparture:
    def test_departure_at_every_region_resumes_to_parity(
        self, dataset, plan, reference
    ):
        """Kill the (sole) worker before each region in turn; a second
        loop -- the replacement worker -- finishes the crawl with the
        exact sequential bytes and costs."""
        total = len(plan.regions)
        for die_at in range(1, total + 1):
            runner = DepartingRunner(
                LocalUnitRunner(make_sources(dataset), Hybrid),
                die_at,
            )
            scheduler = WorkStealingScheduler(plan.bundles)
            sink = GridSink(plan, AggregatorFeed(None, plan))
            assert drive_stealing(scheduler, 0, runner, sink) is False
            # The finally-clause contract: the departed loop still
            # flushed its region boundary, so leases/stats never leak.
            assert not runner.unflushed
            assert drive_stealing(scheduler, 0, runner, sink) is True
            assert scheduler.done()
            assert not scheduler.failed_keys()
            assert not sink.failures
            assert scheduler.total_observed_cost() == reference.cost
            assert_grid_matches(sink, reference)

    def test_departure_at_every_sharded_unit_resumes_to_parity(
        self, dataset, plan, reference
    ):
        """The two-level sweep: kill the worker before every presplit
        and every subtree shard in turn (mid-shard departures included)
        and resume; the merged grid never wavers."""
        shards = 3
        die_at = 1
        while True:
            assert die_at < 100, "sweep failed to terminate"
            runner = DepartingRunner(
                LocalUnitRunner(make_sources(dataset), Hybrid),
                die_at,
            )
            scheduler = WorkStealingScheduler(plan.bundles)
            sink = GridSink(plan, AggregatorFeed(None, plan))
            drained = drive_stealing(scheduler, 0, runner, sink, shards)
            if not drained:
                assert (
                    drive_stealing(scheduler, 0, runner, sink, shards)
                    is True
                )
            assert scheduler.done()
            assert not sink.failures
            assert_grid_matches(sink, reference)
            if drained and runner.calls < die_at:
                break  # past the last unit: the whole space was swept
            die_at += 1


# ----------------------------------------------------------------------
# Executor layer: elastic fleets on every backend
# ----------------------------------------------------------------------
class TestElasticThread:
    def test_departure_at_every_boundary_matches_sequential(
        self, dataset, plan, reference
    ):
        total = len(plan.regions)
        for nth in range(1, total + 2):
            result = crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(
                    executor="thread",
                    max_workers=SESSIONS,
                    crawler_factory=DepartAt(nth),
                ),
            )
            assert_identical(result, reference)

    def test_budget_charge_is_exact_after_a_departure(
        self, dataset, plan, reference, baseline_queries
    ):
        """A boundary departure wastes zero queries: every budget ends
        charged exactly what an undisturbed crawl issues."""
        budgets = [QueryBudget(10**6) for _ in range(SESSIONS)]
        sources = [
            TopKServer(dataset, k=32, limits=[budgets[i]])
            for i in range(SESSIONS)
        ]
        result = crawl_partitioned(
            sources,
            plan,
            CrawlSpec(
                executor="thread",
                max_workers=SESSIONS,
                crawler_factory=DepartAt(2),
            ),
        )
        assert_identical(result, reference)
        assert [b.used for b in budgets] == baseline_queries
        # ...and never out of step with the servers' own books.
        assert [s.stats.queries for s in sources] == baseline_queries

    def test_mid_crawl_query_level_departures_match(
        self, dataset, plan, reference
    ):
        """Workers dying *inside* a unit (a query raises) under subtree
        sharding: the unit is requeued, re-crawled from scratch, and
        the merged bytes still match sequential."""
        sources = [
            DepartingSource(TopKServer(dataset, k=32), die_at={7})
            for _ in range(SESSIONS)
        ]
        result = crawl_partitioned(
            sources,
            plan,
            CrawlSpec(
                executor="thread",
                max_workers=SESSIONS,
                shard_subtrees=3,
            ),
        )
        assert_identical(result, reference)

    def test_fleet_that_never_survives_fails_loudly(self, dataset, plan):
        aggregator = ProgressAggregator(SESSIONS)
        with pytest.raises(WorkerDeparted, match="giving up"):
            crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(
                    executor="thread",
                    max_workers=SESSIONS,
                    aggregator=aggregator,
                    crawler_factory=AlwaysDepart(),
                ),
            )
        # No session is left reading as in-flight after the give-up.
        assert aggregator.all_terminal()


class TestElasticProcess:
    def test_futures_dispatch_redispatches_departed_units(
        self, dataset, plan, reference, tmp_path
    ):
        """Limit-free process crawl: each pool worker departs once (at
        its second region attempt) and a replacement drive loop runs
        the requeued unit."""
        marker = tmp_path / "departures"
        result = crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(
                executor="process",
                max_workers=2,
                crawler_factory=DepartAt(2, marker=marker),
            ),
        )
        assert_identical(result, reference)
        # The fault really fired inside a pool worker.
        assert marker.exists() and marker.read_text().count("departed") >= 1

    def test_shared_limits_departure_keeps_budget_exact(
        self, dataset, plan, reference, baseline_queries, tmp_path
    ):
        """Budgeted sources put the pool on the shared-limit plane:
        each worker departs once, replacement drive loops run the
        requeued units, and the written-back budgets carry the exact
        fleet-wide charge -- the unit-boundary lease flush at work."""
        budgets = [QueryBudget(10**6) for _ in range(SESSIONS)]
        sources = [
            TopKServer(dataset, k=32, limits=[budgets[i]])
            for i in range(SESSIONS)
        ]
        marker = tmp_path / "departures"
        result = crawl_partitioned(
            sources,
            plan,
            CrawlSpec(
                executor="process",
                max_workers=2,
                crawler_factory=DepartAt(2, marker=marker),
            ),
        )
        assert_identical(result, reference)
        assert [b.used for b in budgets] == baseline_queries
        assert marker.exists() and marker.read_text().count("departed") >= 1

    @pytest.mark.parametrize("limits", [True, False], ids=["budgeted", "free"])
    def test_dead_pool_worker_is_replaced(
        self, limits, dataset, plan, reference, baseline_queries, tmp_path
    ):
        """A pool worker process exits mid-crawl: the broken pool is
        replaced, the requeued unit runs on the fresh one, and the
        budgets carry an undisturbed run's charge.  Limit-free sources
        (no control plane) requeue the same way.  One worker, so no
        second unit is in flight when the pool breaks (it would fail
        too, and its queries would be charged again)."""
        budgets = [QueryBudget(10**6) for _ in range(SESSIONS)]
        sources = [
            TopKServer(dataset, k=32, limits=[budgets[i]] if limits else [])
            for i in range(SESSIONS)
        ]
        marker = tmp_path / "exited"
        result = crawl_partitioned(
            sources,
            plan,
            CrawlSpec(
                executor="process",
                max_workers=1,
                crawler_factory=ExitOnce(marker),
            ),
        )
        assert marker.exists(), "no pool worker ever exited"
        assert_identical(result, reference)
        if limits:
            assert [b.used for b in budgets] == baseline_queries

    def test_fleet_that_never_survives_fails_loudly(self, dataset, plan):
        aggregator = ProgressAggregator(SESSIONS)
        with pytest.raises(WorkerDeparted, match="giving up"):
            crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(
                    executor="process",
                    max_workers=2,
                    aggregator=aggregator,
                    crawler_factory=AlwaysDepart(),
                ),
            )
        # No session is left reading as in-flight after the give-up.
        assert aggregator.all_terminal()
