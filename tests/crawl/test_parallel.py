"""Parallel executor tests: the determinism contract against sequential.

``crawl_partitioned`` on the thread backend must produce *exactly*
what the sequential reference produces -- same merged rows in the same order,
same total and per-session costs, same merged progress curve -- for any
engine and any worker count, and a budget that runs out raises.
Wall-clock scheduling may differ between runs; nothing in the result
may.
"""

import numpy as np
import pytest

from repro.crawl.base import (
    ProgressAggregator,
    concat_progress,
    merge_progress,
)
from repro.crawl.base import ProgressPoint as P
from repro.crawl.hybrid import Hybrid
from repro.crawl.executors import default_workers
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.rank_shrink import RankShrink
from repro.crawl.spec import CrawlSpec
from repro.datasets.adult import adult_numeric
from repro.datasets.nsf import nsf
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted, SchemaError
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer

SESSIONS = 4

#: The backend under test: worker threads, one per session by default.
THREAD = CrawlSpec(executor="thread")


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


def assert_identical(parallel, sequential):
    """The full determinism contract, field by field."""
    assert parallel.rows == sequential.rows  # byte-identical order
    assert parallel.cost == sequential.cost
    assert parallel.complete == sequential.complete
    assert parallel.session_costs() == sequential.session_costs()
    assert parallel.progress == sequential.progress
    for i in range(parallel.plan.sessions):
        for a, b in zip(parallel.results[i], sequential.results[i]):
            assert a.rows == b.rows and a.cost == b.cost


class TestMatchesSequential:
    @pytest.mark.parametrize("engine", ["linear", "vector"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_all_engines_and_worker_counts(self, engine, workers):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)

        def sources():
            return [
                TopKServer(dataset, k=32, engine=engine)
                for _ in range(SESSIONS)
            ]

        sequential = crawl_partitioned(sources(), plan)
        parallel = crawl_partitioned(
            sources(), plan, THREAD.replace(max_workers=workers)
        )
        assert_identical(parallel, sequential)
        assert parallel.complete
        assert sorted(parallel.rows) == sorted(dataset.iter_rows())

    def test_figure10_numeric_workload(self):
        """Adult-numeric (the Figure 10 workload), RankShrink sessions."""
        dataset = adult_numeric(n=400).with_bounds_from_data()
        plan = partition_space(dataset.space, SESSIONS)

        def sources():
            return [TopKServer(dataset, k=64) for _ in range(SESSIONS)]

        spec = CrawlSpec(crawler_factory=RankShrink)
        sequential = crawl_partitioned(sources(), plan, spec)
        parallel = crawl_partitioned(
            sources(),
            plan,
            spec.replace(executor="thread", max_workers=SESSIONS),
        )
        assert_identical(parallel, sequential)
        assert sorted(parallel.rows) == sorted(dataset.iter_rows())

    def test_figure11_categorical_workload(self):
        """NSF (the Figure 11 workload), Hybrid sessions."""
        dataset = nsf(n=500)
        plan = partition_space(dataset.space, SESSIONS)

        def sources():
            return [TopKServer(dataset, k=64) for _ in range(SESSIONS)]

        spec = CrawlSpec(crawler_factory=Hybrid)
        sequential = crawl_partitioned(sources(), plan, spec)
        parallel = crawl_partitioned(
            sources(),
            plan,
            spec.replace(executor="thread", max_workers=SESSIONS),
        )
        assert_identical(parallel, sequential)
        assert sorted(parallel.rows) == sorted(dataset.iter_rows())

    def test_budget_exhaustion_propagates(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [
            TopKServer(dataset, k=32, limits=[QueryBudget(1)]),
            TopKServer(dataset, k=32),
        ]
        with pytest.raises(QueryBudgetExhausted):
            crawl_partitioned(sources, plan, THREAD.replace(max_workers=2))


class TestValidation:
    def test_source_count_must_match_plan(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 3)
        with pytest.raises(SchemaError):
            crawl_partitioned([TopKServer(dataset, k=32)], plan, THREAD)

    def test_rejects_nonpositive_workers(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [TopKServer(dataset, k=32) for _ in range(2)]
        with pytest.raises(ValueError):
            crawl_partitioned(sources, plan, THREAD.replace(max_workers=0))

    def test_rejects_mismatched_aggregator(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [TopKServer(dataset, k=32) for _ in range(2)]
        with pytest.raises(ValueError):
            crawl_partitioned(
                sources, plan, THREAD.replace(aggregator=ProgressAggregator(5))
            )

    def test_default_workers_bounds(self):
        assert default_workers(1) == 1
        assert 1 <= default_workers(10_000) <= 10_000


class TestProgress:
    def test_aggregator_converges_to_merged_totals(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        sources = [TopKServer(dataset, k=32) for _ in range(SESSIONS)]
        aggregator = ProgressAggregator(SESSIONS)
        merged = crawl_partitioned(
            sources,
            plan,
            THREAD.replace(max_workers=SESSIONS, aggregator=aggregator),
        )
        totals = aggregator.totals()
        assert totals.queries == merged.cost
        assert totals.tuples == merged.tuples_extracted
        history = aggregator.history()
        assert history[0] == P(0, 0) and history[-1] == totals
        # The live feed is monotone in both coordinates.
        assert all(
            a.queries <= b.queries and a.tuples <= b.tuples
            for a, b in zip(history, history[1:])
        )

    def test_merged_progress_is_monotone_and_ends_at_totals(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, SESSIONS)
        sources = [TopKServer(dataset, k=32) for _ in range(SESSIONS)]
        merged = crawl_partitioned(sources, plan, THREAD)
        curve = merged.progress
        assert curve[-1] == P(merged.cost, merged.tuples_extracted)
        assert all(
            a.queries <= b.queries and a.tuples <= b.tuples
            for a, b in zip(curve, curve[1:])
        )
        # Per-session curves are exposed too.
        assert sum(
            merged.session_progress(i)[-1].queries
            for i in range(plan.sessions)
        ) == merged.cost

    def test_as_crawl_result_flattens_the_merge(self):
        dataset = mixed_dataset()
        plan = partition_space(dataset.space, 2)
        sources = [TopKServer(dataset, k=32) for _ in range(2)]
        merged = crawl_partitioned(sources, plan, THREAD)
        flat = merged.as_crawl_result("partitioned-hybrid")
        assert flat.algorithm == "partitioned-hybrid"
        assert flat.rows == merged.rows
        assert flat.cost == merged.cost
        assert flat.progress == merged.progress
        assert flat.complete


class TestMergeHelpers:
    def test_concat_offsets_curves(self):
        merged = concat_progress([[P(0, 0), P(2, 5)], [P(0, 0), P(3, 1)]])
        assert merged == [P(0, 0), P(2, 5), P(5, 6)]

    def test_merge_interleaves_by_query_count(self):
        merged = merge_progress(
            [[P(0, 0), P(1, 2), P(4, 3)], [P(0, 0), P(2, 1)]]
        )
        assert merged == [P(0, 0), P(1, 2), P(3, 3), P(6, 4)]

    def test_merge_is_independent_of_session_order_totals(self):
        a = [[P(0, 0), P(1, 1)], [P(0, 0), P(5, 9)]]
        b = [a[1], a[0]]
        assert merge_progress(a)[-1] == merge_progress(b)[-1] == P(6, 10)

    def test_merge_of_empty_curves(self):
        assert merge_progress([[], []]) == [P(0, 0)]
        assert concat_progress([]) == []
