"""Partitioned-crawl tests: plans, views, merged exactness."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.crawl.partition import (
    SubspaceView,
    crawl_partitioned,
    partition_space,
)
from repro.crawl.rank_shrink import RankShrink
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import (
    QueryBudgetExhausted,
    SchemaError,
    UnboundedDomainError,
)
from repro.query.query import Query
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from tests.conftest import small_instances


def mixed_dataset(seed=3, n=400):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 7), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 999)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 8, n),
            rng.integers(1, 4, n),
            rng.integers(0, 1000, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


class TestPartitionPlan:
    def test_categorical_round_robin(self):
        space = DataSpace.categorical([7, 3])
        plan = partition_space(space, 3, attribute=0)
        assert plan.sessions == 3
        assert [len(b) for b in plan.bundles] == [3, 2, 2]
        assert len(plan.regions) == 7

    def test_default_picks_largest_categorical(self):
        space = DataSpace.mixed([("a", 3), ("b", 9)], ["v"])
        plan = partition_space(space, 2)
        assert plan.attribute == 1

    def test_default_numeric_fallback(self):
        space = DataSpace.numeric(2, bounds=[(0, 99), (0, 9)])
        plan = partition_space(space, 4)
        assert plan.attribute == 0

    def test_default_skips_huge_domains_for_bounded_numeric(self):
        # The NSF-like shape: one enormous categorical domain.  The
        # cost-aware planner prefers a bounded numeric attribute over
        # exploding into one region per categorical value.
        space = DataSpace.mixed(
            [("pi_name", 30_000), ("state", 50)],
            ["amount"],
            numeric_bounds=[(0, 10**6)],
        )
        plan = partition_space(space, 4)
        assert plan.attribute == 1  # 50 fits the cap, 30000 does not
        assert len(plan.regions) == 50
        capped = partition_space(space, 4, max_regions=10)
        assert capped.attribute == 2  # numeric: exactly 4 regions
        assert len(capped.regions) == 4

    def test_default_falls_back_to_smallest_oversized_domain(self):
        space = DataSpace.categorical([30_000, 600])
        plan = partition_space(space, 4, max_regions=512)
        assert plan.attribute == 1  # least oversized choice available
        assert len(plan.regions) == 600

    def test_explicit_attribute_bypasses_the_cap(self):
        space = DataSpace.categorical([700, 3])
        plan = partition_space(space, 2, attribute=0, max_regions=16)
        assert len(plan.regions) == 700

    def test_max_regions_below_sessions_rejected(self):
        space = DataSpace.categorical([8])
        with pytest.raises(SchemaError):
            partition_space(space, 4, max_regions=3)

    def test_default_requires_domain_to_hold_sessions(self):
        # Only a 3-value domain: 4 sessions cannot be packed, and with
        # no numeric alternative the planner says so.
        space = DataSpace.categorical([3])
        with pytest.raises(SchemaError):
            partition_space(space, 4)

    def test_numeric_intervals_cover_everything(self):
        space = DataSpace.numeric(1, bounds=[(0, 99)])
        plan = partition_space(space, 4)
        # Outermost intervals stretch to infinity: points outside the
        # advisory bounds are still covered exactly once.
        for value in (-1000, 0, 17, 50, 99, 10**6):
            assert plan.covers((value,)) == 1

    def test_every_point_covered_exactly_once(self):
        space = DataSpace.mixed([("c", 5)], ["v"])
        plan = partition_space(space, 2, attribute=0)
        for c in range(1, 6):
            for v in (-3, 0, 42):
                assert plan.covers((c, v)) == 1

    def test_too_many_sessions_rejected(self):
        space = DataSpace.categorical([3])
        with pytest.raises(SchemaError):
            partition_space(space, 4, attribute=0)

    def test_zero_sessions_rejected(self):
        with pytest.raises(SchemaError):
            partition_space(DataSpace.categorical([3]), 0)

    def test_unbounded_numeric_rejected(self):
        space = DataSpace.numeric(1)
        with pytest.raises(UnboundedDomainError):
            partition_space(space, 2, attribute=0)

    def test_unpartitionable_space_rejected(self):
        space = DataSpace.categorical([1])
        with pytest.raises(SchemaError):
            partition_space(space, 1)

    def test_single_session_plan(self):
        space = DataSpace.categorical([4])
        plan = partition_space(space, 1, attribute=0)
        assert plan.sessions == 1 and len(plan.regions) == 4


class TestSubspaceView:
    def test_view_restricts_results(self):
        dataset = mixed_dataset()
        server = TopKServer(dataset, k=1000)
        region = Query.full(dataset.space).with_value(0, 2)
        view = SubspaceView(server, region)
        response = view.run(Query.full(dataset.space))
        assert all(row[0] == 2 for row in response.rows)

    def test_contradiction_answered_locally(self):
        dataset = mixed_dataset()
        server = TopKServer(dataset, k=10)
        region = Query.full(dataset.space).with_value(0, 2)
        view = SubspaceView(server, region)
        before = server.stats.queries
        response = view.run(Query.full(dataset.space).with_value(0, 5))
        assert response.resolved and response.rows == ()
        assert server.stats.queries == before  # zero cost

    def test_numeric_region_clamps_ranges(self):
        dataset = mixed_dataset()
        server = TopKServer(dataset, k=1000)
        region = Query.full(dataset.space).with_range(2, 100, 199)
        view = SubspaceView(server, region)
        response = view.run(Query.full(dataset.space).with_range(2, 150, 500))
        assert all(150 <= row[2] <= 199 for row in response.rows)

    def test_wrong_space_rejected(self):
        dataset = mixed_dataset()
        server = TopKServer(dataset, k=10)
        other = DataSpace.numeric(1)
        with pytest.raises(SchemaError):
            SubspaceView(server, Query.full(other))

    def test_view_is_transparent_about_space_and_k(self):
        dataset = mixed_dataset()
        server = TopKServer(dataset, k=17)
        view = SubspaceView(server, Query.full(dataset.space))
        assert view.space == dataset.space and view.k == 17


class TestCrawlPartitioned:
    def test_merged_bag_is_exact(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 3)
        sources = [TopKServer(dataset, k=32) for _ in range(3)]
        merged = crawl_partitioned(sources, plan)
        assert merged.complete
        assert sorted(merged.rows) == sorted(dataset.iter_rows())

    def test_source_count_must_match_plan(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 3)
        with pytest.raises(SchemaError):
            crawl_partitioned([TopKServer(dataset, k=32)], plan)

    def test_cost_is_sum_of_sessions(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [TopKServer(dataset, k=32) for _ in range(2)]
        merged = crawl_partitioned(sources, plan)
        assert merged.cost == sum(merged.session_costs())

    def test_numeric_partition_with_rank_shrink(self):
        rng = np.random.default_rng(8)
        space = DataSpace.numeric(2, bounds=[(0, 999), (0, 99)])
        rows = np.column_stack(
            [rng.integers(0, 1000, 300), rng.integers(0, 100, 300)]
        ).astype(np.int64)
        dataset = Dataset(space, rows)
        plan = partition_space(space, 4, attribute=0)
        sources = [TopKServer(dataset, k=16) for _ in range(4)]
        merged = crawl_partitioned(
            sources, plan, CrawlSpec(crawler_factory=RankShrink)
        )
        assert merged.complete
        assert sorted(merged.rows) == sorted(dataset.iter_rows())

    def test_budget_exhaustion_propagates(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [
            TopKServer(dataset, k=32, limits=[QueryBudget(1)]),
            TopKServer(dataset, k=32),
        ]
        with pytest.raises(QueryBudgetExhausted):
            crawl_partitioned(sources, plan)

    @given(instance=small_instances(max_dim=3, max_domain=5))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_merge_exactly(self, instance):
        dataset, k = instance
        # Skip spaces with nothing to partition on (tiny domains,
        # unbounded numerics).
        try:
            plan = partition_space(dataset.space, 2)
        except (SchemaError, UnboundedDomainError):
            return
        sources = [TopKServer(dataset, k) for _ in range(plan.sessions)]
        merged = crawl_partitioned(sources, plan)
        assert merged.complete
        assert sorted(merged.rows) == sorted(dataset.iter_rows())
