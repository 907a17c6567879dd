"""Runtime-core tests: the one drive loop behind every backend.

All dispatch semantics live in :mod:`repro.crawl.runtime`; the
executor parity suites already prove every backend produces
byte-identical results *through* the runtime, so these tests pin the
runtime's own contracts directly: the sink protocols, and the failure
and flush behaviour of the stealing loop and of the sequential
reference's plan-order walk against fake runners.
"""

import contextlib

import numpy as np
import pytest

from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.executors import SequentialExecutor
from repro.crawl.partition import partition_space
from repro.crawl.rebalance import RegionTask, WorkStealingScheduler
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    UnitRunner,
    drive_stealing,
)
from repro.crawl.spec import CrawlSpec
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


class _ScriptedSequential(SequentialExecutor):
    """The sequential reference's plan-order walk over a fake runner."""

    def __init__(self, runner):
        self._scripted = runner

    @contextlib.contextmanager
    def _runner(self, sources, plan, spec, workers, feed):
        yield self._scripted


class TestSequentialReference:
    def test_flushes_at_every_region_boundary(self, plan):
        runner = _ScriptedRunner()
        sink = GridSink(plan, AggregatorFeed(None, plan))
        _ScriptedSequential(runner)._execute(None, plan, sink, CrawlSpec(), {})
        assert runner.boundaries == len(plan.regions)

    def test_stops_at_the_first_failure(self, plan):
        runner = _ScriptedRunner(failing={(0, 0)})
        sink = GridSink(plan, AggregatorFeed(None, plan))
        _ScriptedSequential(runner)._execute(None, plan, sink, CrawlSpec(), {})
        assert [key for key, _ in sink.failures] == [(0, 0)]
        # Nothing after the failing position was attempted.
        assert runner.ran == [(0, 0)]

    def test_marks_sessions_done_through_the_feed(self, plan):
        aggregator = ProgressAggregator(plan.sessions)
        sink = GridSink(plan, AggregatorFeed(aggregator, plan))
        runner = _ScriptedRunner()
        _ScriptedSequential(runner)._execute(None, plan, sink, CrawlSpec(), {})
        assert aggregator.states() == (SessionState.DONE,) * plan.sessions

    def test_skips_checkpointed_regions(self, plan):
        """A checkpoint's regions are never run again."""
        runner = _ScriptedRunner()
        sink = GridSink(plan, AggregatorFeed(None, plan))
        completed = {(0, 0): _FakeResult()}
        _ScriptedSequential(runner)._execute(
            None, plan, sink, CrawlSpec(), completed
        )
        assert runner.ran == [
            (session, index)
            for session, bundle in enumerate(plan.bundles)
            for index in range(len(bundle))
            if (session, index) != (0, 0)
        ]


class TestDriveStealing:
    def test_drains_the_whole_plan_and_records_costs(self, plan):
        aggregator = ProgressAggregator(plan.sessions)
        feed = AggregatorFeed(aggregator, plan)
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
        assert aggregator.states() == (SessionState.DONE,) * plan.sessions

    def test_skips_checkpointed_regions(self, plan):
        """A checkpoint's regions enter the books done, never the
        queues: the loop runs every other region and none of them."""
        sink = GridSink(plan, AggregatorFeed(None, plan))
        scheduler = WorkStealingScheduler(plan.bundles, {(0, 0): 5})
        runner = _ScriptedRunner()
        drive_stealing(scheduler, 0, runner, sink)
        assert scheduler.done()
        assert (0, 0) not in runner.ran
        assert len(runner.ran) == len(plan.regions) - 1
        assert scheduler.completed_costs()[(0, 0)] == 5

    def test_failures_drain_without_stopping_other_regions(self, plan):
        feed = AggregatorFeed(None, plan)
        sink = GridSink(plan, feed)
        scheduler = WorkStealingScheduler(plan.bundles)
        runner = _ScriptedRunner(failing={(1, 0)})
        drive_stealing(scheduler, 0, runner, sink)
        assert scheduler.done()
        assert [key for key, _ in sink.failures] == [(1, 0)]
        assert scheduler.failed_keys() == {(1, 0)}
        # Every region ran, the failing one included.
        assert len(runner.ran) == len(plan.regions)

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
        scheduler = WorkStealingScheduler(plan.bundles)
        runner = LocalUnitRunner(sources(), Hybrid, feed=feed)
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
        runner = LocalUnitRunner(sources, Hybrid)
        task = RegionTask(0, 0, plan.bundles[0][0])
        result = runner.region(task)
        assert result.complete
        runner.region_boundary()  # no flush hook: a silent no-op
