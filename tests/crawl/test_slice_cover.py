"""Tests for slice-cover and lazy-slice-cover (Figures 5 and 6)."""

import pytest

from repro.crawl.slice_cover import LazySliceCover, SliceCover
from repro.crawl.verify import assert_complete
from repro.datasets.paper_examples import figure5_dataset, figure5_server
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.query import Query, slice_query
from repro.server.client import CachingClient
from repro.server.server import TopKServer
from repro.theory.bounds import slice_cover_upper_bound
from tests.conftest import make_dataset


class TestFigure6LookupTable:
    """The slice-table contents of Figure 6 (k = 3)."""

    def test_table_contents(self):
        server = figure5_server()
        client = CachingClient(server)
        space = server.space
        expected_overflow = {
            (0, 1): True,
            (0, 2): False,
            (0, 3): True,
            (0, 4): False,
        }
        for (attr, value), overflow in expected_overflow.items():
            resp = client.run(slice_query(space, attr, value))
            assert resp.overflow == overflow
        # Figure 6, second row: every A2 slice resolves with these bags.
        expected_rows = {
            1: {(1, 1), (3, 1)},
            2: {(1, 2), (3, 2), (4, 2)},
            3: {(1, 3), (3, 3)},  # t9 duplicates (3,3)
            4: {(1, 4), (2, 4)},
        }
        for value, bag in expected_rows.items():
            resp = client.run(slice_query(space, 1, value))
            assert resp.resolved
            assert set(resp.rows) == bag


class TestFigure5Execution:
    def test_eager_issues_only_the_slice_table(self):
        """Paper: "No query is ever issued ... in the entire process"."""
        result = SliceCover(figure5_server()).crawl()
        assert result.cost == 8  # sum of domain sizes: 4 + 4
        assert result.phase_costs == {"slice-table": 8, "traversal": 0}

    def test_lazy_costs_root_plus_slices_here(self):
        result = LazySliceCover(figure5_server()).crawl()
        assert result.cost == 9  # the root query + all 8 slices

    def test_both_complete(self):
        for cls in (SliceCover, LazySliceCover):
            result = cls(figure5_server()).crawl()
            assert_complete(result, figure5_dataset())


class TestSingleAttribute:
    """The d = 1 case: cost is exactly U1 for the eager algorithm."""

    def test_eager_costs_u1(self):
        dataset = make_dataset(
            DataSpace.categorical([6]), [[1], [1], [4], [6]]
        )
        result = SliceCover(TopKServer(dataset, k=2)).crawl()
        assert result.cost == 6
        assert_complete(result, dataset)

    def test_lazy_costs_u1_plus_root(self):
        dataset = make_dataset(
            DataSpace.categorical([6]), [[1], [1], [4], [6]]
        )
        result = LazySliceCover(TopKServer(dataset, k=2)).crawl()
        assert result.cost == 7
        assert_complete(result, dataset)

    def test_lazy_resolved_root_costs_one(self):
        dataset = make_dataset(DataSpace.categorical([100]), [[7]])
        result = LazySliceCover(TopKServer(dataset, k=2)).crawl()
        assert result.cost == 1


class TestLazyVsEager:
    def test_lazy_never_pays_more_than_eager_plus_one(self):
        """Lazy touches a subset of the slices (plus the root query)."""
        rows = [[1 + i % 2, 1 + i % 5, 1 + (i * 3) % 7] for i in range(60)]
        dataset = make_dataset(DataSpace.categorical([2, 5, 7]), rows)
        for k in (2, 4, 16):
            eager = SliceCover(TopKServer(dataset, k=k)).crawl()
            lazy = LazySliceCover(TopKServer(dataset, k=k)).crawl()
            assert lazy.cost <= eager.cost + 1
            assert_complete(eager, dataset)
            assert_complete(lazy, dataset)

    def test_lazy_skips_unneeded_slices(self):
        """With a huge second domain mostly pruned, lazy wins big."""
        rows = [[1, 1 + i % 3] for i in range(12)]
        dataset = make_dataset(DataSpace.categorical([2, 500]), rows)
        eager = SliceCover(TopKServer(dataset, k=20)).crawl()
        lazy = LazySliceCover(TopKServer(dataset, k=20)).crawl()
        assert eager.cost == 502  # the whole slice table
        assert lazy.cost <= 3  # root + the two A1 slices at most
        assert_complete(lazy, dataset)


class TestBounds:
    def test_cost_within_lemma4_bound(self):
        from repro.datasets.synthetic import random_dataset

        space = DataSpace.categorical([3, 4, 6])
        dataset = random_dataset(space, 200, seed=13, duplicate_factor=0.1)
        floor = dataset.max_multiplicity()
        for k in (max(2, floor), 8 + floor, 32 + floor):
            bound = slice_cover_upper_bound(dataset.n, k, [3, 4, 6])
            for cls in (SliceCover, LazySliceCover):
                crawler = cls(TopKServer(dataset, k=k), max_queries=bound)
                result = crawler.crawl()
                assert result.cost <= bound


class TestValidation:
    def test_rejects_non_categorical(self):
        dataset = make_dataset(DataSpace.numeric(1), [[1]])
        for cls in (SliceCover, LazySliceCover):
            with pytest.raises(SchemaError):
                cls(TopKServer(dataset, k=2))

    def test_slice_table_guard(self):
        """Consulting the eager table before preprocessing is a bug."""
        from repro.crawl.slice_cover import (
            categorical_point_handler,
            extended_dfs,
        )

        dataset = make_dataset(DataSpace.categorical([2, 2]), [[1, 1]])
        crawler = SliceCover(TopKServer(dataset, k=1))
        with pytest.raises(SchemaError, match="before preprocessing"):
            extended_dfs(
                crawler,
                Query.full(dataset.space),
                0,
                lazy=False,
                leaf_handler=categorical_point_handler(crawler),
            )
        assert crawler.client.cost == 0


class TestSharedClientAccounting:
    def test_second_run_over_warm_cache_is_free(self):
        dataset = figure5_dataset()
        server = figure5_server()
        client = CachingClient(server)
        first = SliceCover(client).crawl()
        second = SliceCover(client).crawl()
        assert first.cost == 8
        assert second.cost == 0  # everything cached
        assert_complete(second, dataset)
