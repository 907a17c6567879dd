"""Runtime-core tests: the one drive loop behind every backend.

The tentpole refactor moved all dispatch semantics into
:mod:`repro.crawl.runtime`; the executor parity suites already prove
every backend produces byte-identical results *through* the runtime, so
these tests pin the runtime's own contracts directly: the shard-policy
planner (uniform vs adaptive fair-share), the sink protocols, and the
drive loops' failure and flush behaviour against fake runners.
"""

import numpy as np
import pytest

from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.partition import partition_space
from repro.crawl.rebalance import (
    CostEstimator,
    RegionTask,
    WorkStealingScheduler,
)
from repro.crawl.runtime import (
    AggregatorFeed,
    GridSink,
    LocalUnitRunner,
    ShardPolicy,
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
        raise AssertionError("no shard policy in this test")

    def shard(self, task):
        raise AssertionError("no shard policy in this test")

    def region_boundary(self):
        self.boundaries += 1


class TestShardPolicy:
    def test_uniform_budgets_every_region(self, plan):
        policy = ShardPolicy.uniform(plan, 4)
        assert policy.sharded
        assert policy.max_budget == 4
        for session, bundle in enumerate(plan.bundles):
            for index in range(len(bundle)):
                assert policy.budget_for((session, index)) == 4

    def test_uniform_rejects_nonpositive(self, plan):
        with pytest.raises(ValueError, match="shard_subtrees"):
            ShardPolicy.uniform(plan, 0)

    def test_adaptive_flat_estimates_presplit_nothing(self, plan):
        """Uniform estimates with regions >= workers: whole-region
        stealing already balances, so auto spends no presplits."""
        policy = ShardPolicy.adaptive(plan, CostEstimator(), workers=3)
        assert not policy.sharded
        assert policy.max_budget == 0

    def test_adaptive_splits_only_regions_above_fair_share(self, plan):
        estimator = CostEstimator(
            prior=1.0, priors={(0, 0): 500.0, (1, 0): 2.0}
        )
        policy = ShardPolicy.adaptive(plan, estimator, workers=3)
        # Only the dominant region busts total/3; it gets a real budget.
        assert set(policy.budgets) == {(0, 0)}
        assert policy.budget_for((0, 0)) >= 2
        assert policy.budget_for((1, 0)) is None

    def test_adaptive_budget_scales_with_dominance_capped_at_target(
        self, plan
    ):
        estimator = CostEstimator(prior=1.0, priors={(0, 0): 10_000.0})
        scaled = ShardPolicy.adaptive(plan, estimator, workers=4, target=8)
        # fair share = total/4, so the dominant region spans ~4 shares.
        assert scaled.budget_for((0, 0)) == 4
        capped = ShardPolicy.adaptive(plan, estimator, workers=16, target=8)
        assert capped.budget_for((0, 0)) == 8  # capped at the target

    def test_sequential_auto_presplits_nothing(self, plan):
        """A one-worker backend has no fleet to balance: auto must
        resolve to an empty policy however skewed the estimates."""
        from repro.crawl.executors import SequentialExecutor

        estimator = CostEstimator(prior=1.0, priors={(0, 0): 500.0})
        policy = ShardPolicy.adaptive(plan, estimator, workers=1)
        assert not policy.sharded
        assert SequentialExecutor()._policy_fleet(plan, True) == 1

    def test_static_dispatch_auto_presplits_nothing(self, plan):
        """Without stealing there is nobody to hand shards to, so the
        executors resolve 'auto' against a fleet of one."""
        from repro.crawl.executors import ThreadExecutor

        executor = ThreadExecutor(max_workers=4)
        assert executor._policy_fleet(plan, False) == 1
        assert executor._policy_fleet(plan, True) > 1

    def test_resolve_maps_the_run_argument(self, plan):
        assert ShardPolicy.resolve(None, plan, None, 4) is None
        uniform = ShardPolicy.resolve(6, plan, None, 4)
        assert uniform.max_budget == 6
        auto = ShardPolicy.resolve("auto", plan, None, 4)
        assert isinstance(auto, ShardPolicy)
        with pytest.raises(ValueError, match="shard_subtrees"):
            ShardPolicy.resolve(0, plan, None, 4)
        with pytest.raises(ValueError, match="shard_subtrees"):
            ShardPolicy.resolve("many", plan, None, 4)
        with pytest.raises(ValueError, match="shard_subtrees"):
            ShardPolicy.resolve(True, plan, None, 4)


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
        scheduler, _ = steal_setup(plan, None, ShardPolicy.uniform(plan, 4))
        runner = LocalUnitRunner(sources(), Hybrid, False, feed=feed)
        drive_stealing(
            scheduler, None, runner, sink, ShardPolicy.uniform(plan, 4)
        )
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
