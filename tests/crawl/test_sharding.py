"""Subtree-sharding suite: the splittable front and its parity contract.

Three layers of guarantees are pinned here:

* **presplit/merge exactness** -- for every splittable algorithm, the
  trunk + shards of one region, crawled in canonical order and merged,
  equal the unsharded region crawl byte for byte (rows, cost, progress
  curve, phase costs);
* **interleaving independence** -- a hypothesis property test crawls the
  shards in arbitrary completion orders and shows the merge still
  reproduces the sequential result exactly;
* **executor parity** -- every backend x rebalance combination with
  ``shard_subtrees`` enabled matches the unsharded sequential
  reference, field by field.

Plus unit tests for the two-level :class:`SubtreeScheduler` and the
shard-level :class:`CostEstimator` feedback.
"""

import functools
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawl.spec import CrawlSpec
from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.binary_shrink import BinaryShrink
from repro.crawl.dfs import DepthFirstSearch
from repro.crawl.executors import make_executor
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import (
    _crawl_region,
    crawl_partitioned,
    partition_space,
)
from repro.crawl.rank_shrink import RankShrink
from repro.crawl.rebalance import (
    CostEstimator,
    RegionTask,
    ShardTask,
    SubtreeScheduler,
)
from repro.crawl.sharding import (
    RegionShardPlan,
    SubtreeShard,
    TrunkSegment,
    crawl_shard,
    merge_region_shards,
    presplit_region,
)
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import AlgorithmInvariantError, QueryBudgetExhausted
from repro.query.query import Query
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer

SESSIONS = 3


def skewed_mixed_dataset(seed=3, n=400, heavy=0.8):
    """One heavy categorical value dominating an otherwise even space."""
    rng = np.random.default_rng(seed)
    make = np.where(rng.random(n) < heavy, 1, rng.integers(1, 7, n))
    space = DataSpace.mixed(
        [("make", 6)], ["price"], numeric_bounds=[(0, 999)]
    )
    rows = np.column_stack([make, rng.integers(0, 1000, n)])
    return Dataset(space, rows.astype(np.int64))


def deep_mixed_dataset(seed=5, n=300):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 5), ("body", 3)],
        ["price", "miles"],
        numeric_bounds=[(0, 499), (0, 99)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 6, n),
            rng.integers(1, 4, n),
            rng.integers(0, 500, n),
            rng.integers(0, 100, n),
        ]
    )
    return Dataset(space, rows.astype(np.int64))


def numeric_dataset(seed=8, n=300):
    rng = np.random.default_rng(seed)
    space = DataSpace.numeric(2, bounds=[(0, 999), (0, 99)])
    rows = np.column_stack([rng.integers(0, 1000, n), rng.integers(0, 100, n)])
    return Dataset(space, rows.astype(np.int64))


def assert_region_identical(merged, reference):
    """Region-level determinism contract, field by field."""
    assert merged.rows == reference.rows
    assert merged.cost == reference.cost
    assert merged.progress == reference.progress
    assert merged.phase_costs == reference.phase_costs
    assert merged.complete == reference.complete
    assert merged.algorithm == reference.algorithm


def sharded_region_result(dataset, k, region, factory, max_shards=6):
    server = TopKServer(dataset, k)
    plan = presplit_region(
        server, region, crawler_factory=factory, max_shards=max_shards
    )
    results = [crawl_shard(server, region, shard) for shard in plan.shards]
    return plan, merge_region_shards(plan, results)


CASES = [
    ("hybrid-skewed", skewed_mixed_dataset, 16, Hybrid),
    ("hybrid-deep", deep_mixed_dataset, 16, Hybrid),
    (
        "hybrid-eager",
        deep_mixed_dataset,
        16,
        functools.partial(Hybrid, lazy=False),
    ),
    ("hybrid-numeric", numeric_dataset, 8, Hybrid),
    ("rank-shrink", numeric_dataset, 8, RankShrink),
    ("binary-shrink", numeric_dataset, 8, BinaryShrink),
]


class TestPresplitMerge:
    @pytest.mark.parametrize(
        "label,maker,k,factory", CASES, ids=[c[0] for c in CASES]
    )
    def test_merge_equals_unsharded_region_crawl(
        self, label, maker, k, factory
    ):
        dataset = maker()
        plan = partition_space(dataset.space, SESSIONS)
        for region in plan.regions:
            reference = _crawl_region(
                TopKServer(dataset, k),
                region,
                crawler_factory=factory,
                allow_partial=False,
            )
            _, merged = sharded_region_result(dataset, k, region, factory)
            assert_region_identical(merged, reference)

    def test_heavy_region_actually_splits(self):
        dataset = skewed_mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        heavy = plan.bundles[0][0]  # make=1 carries ~80% of the rows
        shard_plan, merged = sharded_region_result(
            dataset, 16, heavy, Hybrid, max_shards=6
        )
        assert len(shard_plan.shards) == 6
        # The trunk is a small serial fraction of the region's crawl.
        assert 0 < shard_plan.trunk_cost < merged.cost / 2

    def test_shards_are_pairwise_disjoint(self):
        dataset = skewed_mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        shard_plan, _ = sharded_region_result(
            dataset, 16, plan.bundles[0][0], Hybrid, max_shards=8
        )
        shards = shard_plan.shards
        for i in range(len(shards)):
            for j in range(i + 1, len(shards)):
                assert shards[i].query.intersect(shards[j].query) is None

    def test_shard_orders_are_canonical(self):
        dataset = skewed_mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        shard_plan, _ = sharded_region_result(
            dataset, 16, plan.bundles[0][0], Hybrid
        )
        assert [s.order for s in shard_plan.shards] == list(
            range(len(shard_plan.shards))
        )

    def test_unsplittable_algorithm_degrades_gracefully(self):
        space = DataSpace.categorical([4, 3])
        rng = np.random.default_rng(0)
        rows = np.column_stack(
            [rng.integers(1, 5, 80), rng.integers(1, 4, 80)]
        )
        dataset = Dataset(space, rows.astype(np.int64))
        plan = partition_space(space, 2)
        region = plan.bundles[0][0]
        reference = _crawl_region(
            TopKServer(dataset, 8),
            region,
            crawler_factory=DepthFirstSearch,
            allow_partial=False,
        )
        shard_plan, merged = sharded_region_result(
            dataset, 8, region, DepthFirstSearch
        )
        assert shard_plan.shards == ()
        assert_region_identical(merged, reference)

    def test_merge_rejects_mismatched_results(self):
        dataset = numeric_dataset()
        plan = partition_space(dataset.space, 2, attribute=0)
        shard_plan, _ = sharded_region_result(
            dataset, 8, plan.bundles[0][0], RankShrink
        )
        assert len(shard_plan.shards) > 1
        with pytest.raises(AlgorithmInvariantError):
            merge_region_shards(shard_plan, ())

    def test_partial_trunk_on_budget(self):
        dataset = skewed_mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        server = TopKServer(dataset, 16, limits=[QueryBudget(3)])
        shard_plan = presplit_region(
            server,
            plan.bundles[0][0],
            crawler_factory=Hybrid,
            allow_partial=True,
            max_shards=6,
        )
        assert not shard_plan.complete
        with pytest.raises(QueryBudgetExhausted):
            presplit_region(
                TopKServer(dataset, 16, limits=[QueryBudget(3)]),
                plan.bundles[0][0],
                crawler_factory=Hybrid,
                max_shards=6,
            )


class TestShardInterleaving:
    """Any completion order of the shards merges to the same bytes."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_completion_order_is_irrelevant(self, data):
        dataset = skewed_mixed_dataset(n=250)
        plan = partition_space(dataset.space, SESSIONS)
        region = plan.bundles[0][0]
        reference = _crawl_region(
            TopKServer(dataset, 16),
            region,
            crawler_factory=Hybrid,
            allow_partial=False,
        )
        server = TopKServer(dataset, 16)
        shard_plan = presplit_region(
            server, region, crawler_factory=Hybrid, max_shards=6
        )
        order = data.draw(
            st.permutations(range(len(shard_plan.shards))), label="order"
        )
        results = {}
        for index in order:
            results[index] = crawl_shard(
                server, region, shard_plan.shards[index]
            )
        merged = merge_region_shards(
            shard_plan, [results[i] for i in range(len(shard_plan.shards))]
        )
        assert_region_identical(merged, reference)
        assert merged.cost == shard_plan.trunk_cost + sum(
            r.cost for r in results.values()
        )


class TestExecutorParity:
    """Every backend x rebalance, sharded, vs the unsharded reference."""

    MATRIX = [
        (name, rebalance)
        for name in ("sequential", "thread", "process")
        for rebalance in (False, True)
    ]

    @pytest.fixture(scope="class")
    def dataset(self):
        return skewed_mixed_dataset()

    @pytest.fixture(scope="class")
    def plan(self, dataset):
        return partition_space(dataset.space, SESSIONS)

    @pytest.fixture(scope="class")
    def reference(self, dataset, plan):
        return crawl_partitioned(self.sources(dataset), plan)

    @staticmethod
    def sources(dataset):
        return [TopKServer(dataset, k=24) for _ in range(SESSIONS)]

    def assert_identical(self, result, reference):
        assert result.rows == reference.rows
        assert result.cost == reference.cost
        assert result.complete == reference.complete
        assert result.session_costs() == reference.session_costs()
        assert result.progress == reference.progress
        for i in range(result.plan.sessions):
            for a, b in zip(result.results[i], reference.results[i]):
                assert a.rows == b.rows
                assert a.cost == b.cost
                assert a.progress == b.progress

    @pytest.mark.parametrize("name,rebalance", MATRIX)
    def test_sharded_backend_matches_unsharded_sequential(
        self, name, rebalance, dataset, plan, reference
    ):
        executor = make_executor(name, max_workers=SESSIONS)
        result = executor.run(
            self.sources(dataset),
            plan, CrawlSpec(rebalance=rebalance, shard_subtrees=6))
        self.assert_identical(result, reference)
        assert sorted(result.rows) == sorted(dataset.iter_rows())

    def test_sharding_with_aggregator(self, dataset, plan):
        reference = crawl_partitioned(self.sources(dataset), plan)
        aggregator = ProgressAggregator(SESSIONS)
        result = make_executor("thread", max_workers=SESSIONS).run(
            self.sources(dataset),
            plan,
            CrawlSpec(
                rebalance=True, shard_subtrees=6, aggregator=aggregator
            ),
        )
        self.assert_identical(result, reference)
        assert aggregator.states() == (SessionState.DONE,) * SESSIONS
        totals = aggregator.totals()
        assert totals.queries == result.cost
        assert totals.tuples == result.tuples_extracted

    def test_invalid_shard_count_rejected(self, dataset, plan):
        with pytest.raises(ValueError, match="shard_subtrees"):
            make_executor("thread").run(
                self.sources(dataset), plan, CrawlSpec(shard_subtrees=0)
            )

    def test_failed_session_surfaces_with_sharding(self, dataset, plan):
        sources = [
            TopKServer(dataset, k=24, limits=[QueryBudget(1)]),
            TopKServer(dataset, k=24),
            TopKServer(dataset, k=24),
        ]
        aggregator = ProgressAggregator(SESSIONS)
        with pytest.raises(QueryBudgetExhausted):
            make_executor("thread", max_workers=SESSIONS).run(
                sources,
                plan,
                CrawlSpec(
                    rebalance=True,
                    shard_subtrees=4,
                    aggregator=aggregator,
                ),
            )
        assert aggregator.state(0) is SessionState.FAILED
        assert aggregator.all_terminal()


def _toy_region(value=1):
    space = DataSpace.mixed([("c", 4)], ["x"], numeric_bounds=[(0, 9)])
    return Query.full(space).with_value(0, value)


def _toy_shard(order, lo, hi, region=None):
    region = region if region is not None else _toy_region()
    return SubtreeShard(
        order=order,
        query=region.with_range(1, lo, hi),
        dims=(1,),
        algo="rank-shrink",
        threshold_divisor=4,
        seed=None,
        phase=None,
    )


def _toy_plan(region, shards):
    return RegionShardPlan(
        region=region,
        algorithm="hybrid",
        segments=tuple(
            TrunkSegment(rows=(), progress=(), cost=0)
            for _ in range(len(shards) + 1)
        ),
        shards=tuple(shards),
    )


class _FakeResult:
    def __init__(self, cost):
        self.cost = cost


class TestSubtreeScheduler:
    def bundles(self):
        r = _toy_region
        return ((r(1), r(2)), (r(3),))

    def test_regions_first_then_shards(self):
        scheduler = SubtreeScheduler(self.bundles())
        first = scheduler.acquire(0)
        assert isinstance(first, RegionTask) and first.key == (0, 0)
        region = first.region
        shards = [_toy_shard(i, i, i, region) for i in range(3)]
        assert scheduler.publish(first, _toy_plan(region, shards)) is None
        # Whole regions are preferred over the published shards.
        second = scheduler.acquire(1)
        assert isinstance(second, RegionTask) and second.key == (1, 0)
        third = scheduler.acquire(0)
        assert isinstance(third, RegionTask) and third.key == (0, 1)
        # Only now do workers fall through to subtree stealing.
        fourth = scheduler.acquire(1)
        assert isinstance(fourth, ShardTask)
        assert fourth.key == (0, 0) and fourth.shard.order == 0
        assert ((0, 0), 1) in scheduler.steals()

    def test_last_shard_completion_hands_back_the_merge(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0)
        region = task.region
        shards = [_toy_shard(i, i, i, region) for i in range(2)]
        scheduler.publish(task, _toy_plan(region, shards))
        a = scheduler.acquire(0)
        b = scheduler.acquire(0)
        assert {a.shard.order, b.shard.order} == {0, 1}
        assert scheduler.complete_shard(a, _FakeResult(5)) is None
        completion = scheduler.complete_shard(b, _FakeResult(7))
        assert completion is not None
        assert completion.task.key == (0, 0)
        assert len(completion.results) == 2
        # Exact shard costs reached the estimator on the way through.
        assert scheduler.estimator.shard_observed((0, 0)) == (12, 2)
        assert scheduler.estimator.shard_mean((0, 0)) == 6.0
        scheduler.complete_region((0, 0), 20)
        assert scheduler.done()
        assert scheduler.acquire(0) is None
        assert scheduler.completed_costs() == {(0, 0): 20}

    def test_zero_shard_plan_completes_immediately(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0)
        completion = scheduler.publish(task, _toy_plan(task.region, []))
        assert completion is not None and completion.results == ()
        scheduler.complete_region(task.key, 3)
        assert scheduler.done()

    def test_costliest_live_region_is_the_shard_victim(self):
        # Both live regions start level; once measured shard costs
        # exist they take over the victim choice.
        scheduler = SubtreeScheduler(self.bundles())
        t00 = scheduler.acquire(0)
        t10 = scheduler.acquire(1)
        t01 = scheduler.acquire(0)
        cheap = [_toy_shard(i, i, i, t00.region) for i in range(2)]
        dear = [_toy_shard(i, i, i, t10.region) for i in range(2)]
        scheduler.publish(t00, _toy_plan(t00.region, cheap))
        scheduler.publish(t10, _toy_plan(t10.region, dear))
        first = scheduler.acquire(1)
        assert first.key == (0, 0)  # a tie goes to the lowest key
        second = scheduler.acquire(1)
        assert second.key == (1, 0)  # more of its shards are pending
        scheduler.complete_shard(first, _FakeResult(1))
        scheduler.complete_shard(second, _FakeResult(100))
        nxt = scheduler.acquire(0)
        assert nxt.key == (1, 0)  # measured shard mean 100 beats 1
        scheduler.complete_shard(nxt, _FakeResult(90))
        # Only region (0, 0)'s last shard remains.
        assert scheduler.acquire(0).key == (0, 0)
        # Subtree steals by a foreign worker were recorded.
        assert ((1, 0), 0) in scheduler.steals()
        scheduler.fail(t01)

    def test_blocking_acquire_waits_for_published_shards(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0)
        got = []

        def thief():
            got.append(scheduler.acquire(1))

        thread = threading.Thread(target=thief)
        thread.start()
        time.sleep(0.05)
        assert not got  # blocked: a presplit is in flight
        shards = [_toy_shard(0, 0, 0, task.region)]
        scheduler.publish(task, _toy_plan(task.region, shards))
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert isinstance(got[0], ShardTask)

    def test_nonblocking_poll_returns_none_while_in_flight(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0, block=False)
        assert isinstance(task, RegionTask)
        assert scheduler.acquire(0, block=False) is None
        assert not scheduler.done()

    def test_shard_failure_fails_the_region(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0)
        shards = [_toy_shard(i, i, i, task.region) for i in range(3)]
        scheduler.publish(task, _toy_plan(task.region, shards))
        a = scheduler.acquire(0)
        b = scheduler.acquire(0)
        scheduler.fail(a)
        # Queued shards of the failed region are dropped; the sibling
        # in flight drains silently and the region never merges.
        assert scheduler.complete_shard(b, _FakeResult(2)) is None
        assert scheduler.acquire(0) is None
        assert scheduler.failed_keys() == {(0, 0)}
        assert scheduler.done()

    def test_double_completion_rejected(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        task = scheduler.acquire(0)
        shards = [_toy_shard(0, 0, 0, task.region)]
        scheduler.publish(task, _toy_plan(task.region, shards))
        shard_task = scheduler.acquire(0)
        scheduler.complete_shard(shard_task, _FakeResult(1))
        with pytest.raises(AlgorithmInvariantError):
            scheduler.complete_shard(shard_task, _FakeResult(1))

    def test_publish_requires_acquisition(self):
        scheduler = SubtreeScheduler(((_toy_region(),),))
        rogue = RegionTask(0, 0, _toy_region())
        with pytest.raises(AlgorithmInvariantError):
            scheduler.publish(rogue, _toy_plan(rogue.region, []))


class TestCostEstimatorShards:
    def test_record_shard_accumulates_exactly(self):
        estimator = CostEstimator()
        assert estimator.shard_mean((0, 0)) is None
        estimator.record_shard((0, 0), 10)
        estimator.record_shard((0, 0), 20)
        assert estimator.shard_observed((0, 0)) == (30, 2)
        assert estimator.shard_mean((0, 0)) == 15.0
        # Region-level observations stay independent.
        assert estimator.estimate((0, 0)) == 1.0
        estimator.record((0, 0), 35)
        assert estimator.estimate((0, 0)) == 35.0
        # The exact merged total supersedes the partial shard view, so
        # a reused estimator cannot leak stale shard means forward.
        assert estimator.shard_mean((0, 0)) is None
        assert estimator.shard_observed((0, 0)) == (0, 0)

    @given(costs=st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_shard_accounting_is_exact_under_any_schedule(self, costs):
        estimator = CostEstimator()
        for cost in costs:
            estimator.record_shard((1, 2), cost)
        total, count = estimator.shard_observed((1, 2))
        assert total == sum(costs)
        assert count == len(costs)
        assert estimator.shard_mean((1, 2)) == sum(costs) / len(costs)


class TestSchedulerInterleavingProperty:
    """Hypothesis: arbitrary acquire/complete schedules keep exact books."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_schedule_accounts_every_shard_once(self, data):
        region = _toy_region()
        scheduler = SubtreeScheduler(((region,),))
        task = scheduler.acquire(0)
        n = data.draw(st.integers(1, 6), label="shards")
        shards = [_toy_shard(i, i, i, region) for i in range(n)]
        scheduler.publish(task, _toy_plan(region, shards))
        acquired = deque()
        completion = None
        costs = []
        while completion is None:
            can_acquire = scheduler.remaining() > 0 and not scheduler.done()
            take = data.draw(st.booleans(), label="take") if acquired else True
            if take and can_acquire:
                nxt = scheduler.acquire(0, block=False)
                if nxt is not None:
                    acquired.append(nxt)
                    continue
            which = data.draw(st.integers(0, len(acquired) - 1), label="which")
            acquired.rotate(-which)
            shard_task = acquired.popleft()
            cost = data.draw(st.integers(0, 50), label="cost")
            costs.append(cost)
            completion = scheduler.complete_shard(
                shard_task, _FakeResult(cost)
            )
        assert not acquired or completion is None
        assert len(completion.results) == n
        total, count = scheduler.estimator.shard_observed(task.key)
        assert count == n
        assert total == sum(costs)

