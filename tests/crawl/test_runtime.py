"""Runtime-core tests: the one drive loop behind every backend.

The tentpole refactor moved all dispatch semantics into
:mod:`repro.crawl.runtime`; the executor parity suites already prove
every backend produces byte-identical results *through* the runtime, so
these tests pin the runtime's own contracts directly: the sink
protocols, and the drive loops' failure and flush behaviour against
fake runners.
"""

import numpy as np
import pytest

from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.partition import partition_space
from repro.crawl.rebalance import RegionTask, WorkStealingScheduler
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    drive_session,
    drive_stealing,
    steal_setup,
)
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace

SESSIONS = 3


def small_dataset(seed=3, n=120):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 6)], ["price"], numeric_bounds=[(0, 199)]
    )
    rows = np.column_stack(
        [rng.integers(1, 7, n), rng.integers(0, 200, n)]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


class _FakeResult:
    def __init__(self, cost=1, rows=()):
        self.cost = cost
        self.rows = list(rows)


class _ScriptedRunner(UnitRunner):
    """Regions cost 1 each; listed keys raise instead."""

    def __init__(self, failing=()):
        self.failing = set(failing)
        self.ran = []
        self.boundaries = 0

    def region(self, task):
        self.ran.append(task.key)
        if task.key in self.failing:
            raise RuntimeError(f"boom {task.key}")
        return _FakeResult()

    def presplit(self, task, max_shards):
        raise AssertionError("no subtree sharding in this test")

    def shard(self, task):
        raise AssertionError("no subtree sharding in this test")

    def region_boundary(self):
        self.boundaries += 1


class TestDriveSession:
    def test_stops_at_the_sessions_first_failure(self, plan):
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        runner = _ScriptedRunner(failing={(0, 0)})
        ok = drive_session(0, plan.bundles[0], runner, sink)
        assert not ok
        assert sink.failures and sink.failures[0][0] == (0, 0)
        # Later regions of the failed session were never attempted.
        assert runner.ran == [(0, 0)]

    def test_flushes_at_every_region_boundary(self, plan):
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        runner = _ScriptedRunner()
        assert drive_session(0, plan.bundles[0], runner, sink)
        assert runner.boundaries == len(plan.bundles[0])

    def test_marks_sessions_done_through_the_feed(self, plan):
        aggregator = ProgressAggregator(plan.sessions)
        feed = AggregatorFeed(aggregator, plan)
        sink = GridSink(plan, feed)
        runner = _ScriptedRunner()
        assert drive_session(0, plan.bundles[0], runner, sink)
        assert aggregator.state(0) is SessionState.DONE


class TestDriveStealing:
    def test_drains_the_whole_plan_and_records_costs(self, plan):
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        scheduler = WorkStealingScheduler(plan.bundles)
        runner = _ScriptedRunner()
        drive_stealing(scheduler, 0, runner, sink)
        assert scheduler.done()
        total = sum(len(bundle) for bundle in plan.bundles)
        assert len(scheduler.completed_costs()) == total
        assert all(
            sink.grid[s][i] is not None
            for s, bundle in enumerate(plan.bundles)
            for i in range(len(bundle))
        )
        # Final drain fires one extra boundary flush.
        assert runner.boundaries == total + 1

    def test_failures_drain_without_stopping_other_regions(self, plan):
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        scheduler = WorkStealingScheduler(plan.bundles)
        runner = _ScriptedRunner(failing={(1, 0)})
        drive_stealing(scheduler, 0, runner, sink)
        assert scheduler.done()
        assert [key for key, _ in sink.failures] == [(1, 0)]
        assert scheduler.failed_keys() == {(1, 0)}

    def test_real_crawl_through_the_loop_matches_reference(
        self, dataset, plan
    ):
        from repro.crawl.hybrid import Hybrid
        from repro.crawl.partition import crawl_partitioned
        from repro.server.server import TopKServer

        def sources():
            return [TopKServer(dataset, k=16) for _ in range(SESSIONS)]

        reference = crawl_partitioned(sources(), plan)
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        scheduler, _ = steal_setup(plan, 4)
        runner = LocalUnitRunner(sources(), Hybrid, False, feed=feed)
        drive_stealing(scheduler, None, runner, sink, 4)
        merged_rows = [
            row
            for session in sink.grid
            for result in session
            for row in result.rows
        ]
        assert merged_rows == reference.rows
        assert (
            sum(r.cost for session in sink.grid for r in session)
            == reference.cost
        )


class TestRegionTaskDefaults:
    def test_task_runs_by_key_through_local_runner(self, dataset, plan):
        from repro.crawl.hybrid import Hybrid
        from repro.server.server import TopKServer

        sources = [TopKServer(dataset, k=16) for _ in range(SESSIONS)]
        runner = LocalUnitRunner(sources, Hybrid, False)
        task = RegionTask(0, 0, plan.bundles[0][0])
        result = runner.region(task)
        assert result.complete
        runner.region_boundary()  # no flush hook: a silent no-op
