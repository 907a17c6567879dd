"""CrawlSpec: one config object, the only way to configure a crawl.

The spec promises three things: a spec-driven run is byte-identical to
the sequential reference; the executor layer takes nothing but a spec
(keyword configuration is rejected outright); and the flag->spec
mapping (`spec_from_args`) is the single source of truth both CLIs
share.  These tests pin all three.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.crawl.dfs import DepthFirstSearch
from repro.crawl.executors import EXECUTORS, ThreadExecutor
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.rank_shrink import RankShrink
from repro.crawl.spec import ALGORITHMS, CrawlSpec, spec_from_args
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.server import TopKServer

SESSIONS = 2


def small_dataset(seed=11, n=160):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 5), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 299)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 6, n),
            rng.integers(1, 4, n),
            rng.integers(0, 300, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


def make_sources(dataset):
    return [TopKServer(dataset, k=32) for _ in range(SESSIONS)]


def assert_identical(result, reference):
    assert result.rows == reference.rows
    assert result.cost == reference.cost
    assert result.session_costs() == reference.session_costs()


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CrawlSpec()
        assert spec.crawler_factory is Hybrid
        assert spec.executor is None

    def test_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            CrawlSpec(executor="quantum")

    def test_known_executors_accepted(self):
        for name in EXECUTORS:
            assert CrawlSpec(executor=name).executor == name

    def test_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            CrawlSpec(max_workers=0)

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "many", "auto"])
    def test_bad_shard_subtrees(self, bad):
        with pytest.raises(ValueError, match="positive int or None"):
            CrawlSpec(shard_subtrees=bad)

    def test_non_callable_factory(self):
        with pytest.raises(ValueError, match="crawler_factory"):
            CrawlSpec(crawler_factory="hybrid")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CrawlSpec().max_workers = 3

    def test_replace_revalidates(self):
        spec = CrawlSpec(shard_subtrees=4)
        assert spec.replace(max_workers=3).max_workers == 3
        assert spec.replace(max_workers=3).shard_subtrees == 4
        with pytest.raises(ValueError):
            spec.replace(executor="bogus")



class TestParity:
    """Spec-driven runs are byte-identical to the sequential reference."""

    def test_spec_matches_sequential_reference(self, dataset, plan):
        reference = crawl_partitioned(make_sources(dataset), plan)
        spec = CrawlSpec(executor="thread", max_workers=SESSIONS)
        result = crawl_partitioned(make_sources(dataset), plan, spec)
        assert_identical(result, reference)

    def test_factory_rides_the_spec(self):
        rng = np.random.default_rng(5)
        space = DataSpace.numeric(2, [(0, 99), (0, 99)])
        rows = rng.integers(0, 100, (120, 2)).astype(np.int64)
        numeric = Dataset(space, rows)
        numeric_plan = partition_space(space, SESSIONS)

        def sources():
            return [TopKServer(numeric, k=32) for _ in range(SESSIONS)]

        spec = CrawlSpec(crawler_factory=RankShrink)
        result = crawl_partitioned(
            sources(),
            numeric_plan,
            spec.replace(executor="thread", max_workers=SESSIONS),
        )
        reference = crawl_partitioned(sources(), numeric_plan, spec)
        assert_identical(result, reference)

    def test_parallel_front_door_takes_spec(self, dataset, plan):
        reference = crawl_partitioned(make_sources(dataset), plan)
        result = crawl_partitioned(
            make_sources(dataset),
            plan,
            spec=CrawlSpec(executor="thread"),
        )
        assert_identical(result, reference)

    def test_parallel_rejects_spec_plus_kwargs(self, dataset, plan):
        with pytest.raises(TypeError, match="unexpected keyword"):
            crawl_partitioned(
                make_sources(dataset),
                plan,
                spec=CrawlSpec(),
                rebalance=True,
            )


class TestDeprecationShim:
    """Keyword configuration is rejected: the spec is the only input."""

    def test_spec_plus_legacy_is_an_error(self, dataset, plan):
        executor = ThreadExecutor()
        with pytest.raises(TypeError, match="unexpected keyword"):
            executor.run(
                make_sources(dataset),
                plan,
                CrawlSpec(),
                rebalance=True,
            )

    def test_unknown_kwarg_is_an_error(self, dataset, plan):
        executor = ThreadExecutor()
        with pytest.raises(TypeError, match="unexpected keyword"):
            executor.run(make_sources(dataset), plan, rebalanec=True)

    def test_spec_executor_must_match_backend(self, dataset, plan):
        executor = ThreadExecutor()
        with pytest.raises(ValueError, match="process"):
            executor.run(
                make_sources(dataset),
                plan,
                CrawlSpec(executor="process"),
            )


class TestSpecFromArgs:
    def test_defaults(self):
        spec = spec_from_args(SimpleNamespace())
        assert spec.crawler_factory is Hybrid
        assert spec.executor is None
        assert spec.max_workers is None

    def test_full_mapping(self):
        args = SimpleNamespace(
            algorithm="dfs",
            executor="process",
            workers=4,
            rebalance=True,
            shard_subtrees=8,
        )
        spec = spec_from_args(args)
        assert spec.crawler_factory is DepthFirstSearch
        assert spec.executor == "process"
        assert spec.max_workers == 4
        # The pooled backends always steal: the old flag maps to nothing.
        assert not hasattr(spec, "rebalance")
        assert spec.shard_subtrees == 8
        # Only the budget stops a partitioned crawl short.
        assert not hasattr(spec, "allow_partial")
        assert len(dataclasses.fields(spec)) == 7

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec_from_args(SimpleNamespace(algorithm="magic"))

    def test_algorithms_cover_the_paper(self):
        assert set(ALGORITHMS) == {
            "hybrid",
            "rank-shrink",
            "binary-shrink",
            "dfs",
            "slice-cover",
            "lazy-slice-cover",
        }
        for cls in ALGORITHMS.values():
            assert callable(cls)
