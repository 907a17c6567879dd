"""The public API surface: imports, exceptions, version."""

import pytest

import repro


class TestExports:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_is_runnable_shape(self):
        """The README/docstring example's names all exist."""
        from repro import Hybrid, TopKServer, assert_complete  # noqa: F401
        from repro.datasets import yahoo_autos  # noqa: F401


class TestDocstrings:
    """Every exported crawl-API name carries a usage-level docstring."""

    def test_crawl_exports_are_documented(self):
        import repro.crawl as crawl

        undocumented = []
        for name in crawl.__all__:
            obj = getattr(crawl, name)
            doc = getattr(obj, "__doc__", None)
            if callable(obj) or isinstance(obj, type):
                if not doc or not doc.strip():
                    undocumented.append(name)
        assert not undocumented, (
            "exported names without docstrings: " f"{undocumented}"
        )

    def test_named_apis_carry_usage_examples(self):
        """The four load-bearing entry points show example usage."""
        from repro.crawl import (
            CrawlExecutor,
            PartitionPlan,
            WorkStealingScheduler,
            crawl_partitioned,
        )

        for obj in (
            crawl_partitioned,
            PartitionPlan,
            CrawlExecutor,
            WorkStealingScheduler,
        ):
            doc = obj.__doc__ or ""
            assert (
                ">>>" in doc or "::" in doc or "Examples" in doc
            ), f"{obj.__name__} lacks a usage example in its docstring"

    def test_runtime_api_carries_usage_examples(self):
        """The runtime core's public surface shows example usage too."""
        from repro.crawl import (
            AggregatorFeed,
            GridSink,
            LocalUnitRunner,
            UnitRunner,
            drive_stealing,
        )
        from repro.server import LimitLease

        for obj in (
            AggregatorFeed,
            UnitRunner,
            LocalUnitRunner,
            GridSink,
            drive_stealing,
            LimitLease,
        ):
            doc = obj.__doc__ or ""
            assert (
                ">>>" in doc or "::" in doc or "Examples" in doc
            ), f"{obj.__name__} lacks a usage example in its docstring"

    def test_spec_and_service_carry_usage_examples(self):
        """The service-era entry points show example usage as well."""
        from repro.crawl import (
            CrawlSpec,
            TenantLimitRegistry,
            spec_from_args,
        )
        from repro.service import CrawlService, JobManager, ResultStore

        for obj in (
            CrawlSpec,
            spec_from_args,
            TenantLimitRegistry,
            CrawlService,
            JobManager,
            ResultStore,
        ):
            doc = obj.__doc__ or ""
            assert (
                ">>>" in doc or "::" in doc or "Examples" in doc
            ), f"{obj.__name__} lacks a usage example in its docstring"

    def test_service_exports_are_documented(self):
        import repro.service as service

        for name in service.__all__:
            obj = getattr(service, name)
            doc = getattr(obj, "__doc__", None)
            assert doc and doc.strip(), f"service.{name} lacks a docstring"

    def test_hot_path_surface_carries_usage_examples(self):
        """The profiling seam and batch/compile APIs show example usage."""
        from repro.crawl import profiling
        from repro.query import compile_matcher, compile_predicate
        from repro.server.client import CachingClient
        from repro.server.engines import BatchTopK, QueryEngine
        from repro.server.server import TopKServer

        for obj in (
            profiling.Profiler,
            profiling.profile,
            compile_predicate,
            compile_matcher,
            BatchTopK,
            QueryEngine.top_batch,
            TopKServer.run_batch,
            CachingClient.run_batch,
        ):
            doc = obj.__doc__ or ""
            assert (
                ">>>" in doc or "::" in doc or "Examples" in doc
            ), f"{obj.__qualname__} lacks a usage example in its docstring"
        assert profiling.__doc__ and ">>>" in profiling.__doc__


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import (
            AlgorithmInvariantError,
            InfeasibleCrawlError,
            QueryBudgetExhausted,
            ReproError,
            SchemaError,
            UnboundedDomainError,
        )

        for exc in (
            SchemaError,
            UnboundedDomainError,
            InfeasibleCrawlError,
            QueryBudgetExhausted,
            AlgorithmInvariantError,
        ):
            assert issubclass(exc, ReproError)

    def test_schema_error_is_value_error(self):
        from repro import SchemaError

        assert issubclass(SchemaError, ValueError)

    def test_unbounded_is_schema_error(self):
        from repro import SchemaError, UnboundedDomainError

        assert issubclass(UnboundedDomainError, SchemaError)

    def test_infeasible_carries_point(self):
        from repro import InfeasibleCrawlError

        exc = InfeasibleCrawlError("boom", point=(1, 2))
        assert exc.point == (1, 2)
        assert InfeasibleCrawlError("x").point is None

    def test_budget_carries_issued(self):
        from repro import QueryBudgetExhausted

        assert QueryBudgetExhausted("x", issued=7).issued == 7

    def test_one_catch_all(self):
        from repro import InfeasibleCrawlError, ReproError

        with pytest.raises(ReproError):
            raise InfeasibleCrawlError("caught by the base class")


class TestAlgorithmNames:
    def test_names_are_the_papers(self):
        from repro import (
            BinaryShrink,
            DepthFirstSearch,
            Hybrid,
            LazySliceCover,
            RankShrink,
            SliceCover,
        )

        assert BinaryShrink.name == "binary-shrink"
        assert RankShrink.name == "rank-shrink"
        assert DepthFirstSearch.name == "DFS"
        assert SliceCover.name == "slice-cover"
        assert LazySliceCover.name == "lazy-slice-cover"
        assert Hybrid.name == "hybrid"


class TestExecutionSurface:
    """One transport per concern: the option surface stays this small."""

    def test_three_backends(self):
        from repro.crawl import EXECUTORS
        from repro.service.jobs import BACKENDS

        assert set(EXECUTORS) == {"sequential", "thread", "process"}
        assert BACKENDS == ("thread", "process")

    def test_two_engines(self):
        import repro.server

        assert not hasattr(repro.server, "IndexedEngine")

    def test_spec_has_no_shared_limits_knob(self):
        import dataclasses

        from repro.crawl import CrawlSpec

        names = {field.name for field in dataclasses.fields(CrawlSpec)}
        assert "shared_limits" not in names
        assert "lease_chunk" not in names
        assert "estimator" not in names
        assert "rebalance" not in names
        assert "allow_partial" not in names
        assert len(names) == 7

    def test_no_shard_policy(self):
        """Subtree sharding is the stealing loop's shard count alone."""
        import repro
        import repro.crawl
        import repro.crawl.runtime

        for module in (repro, repro.crawl, repro.crawl.runtime):
            assert not hasattr(module, "ShardPolicy")

    def test_one_front_door_and_one_scheduler(self):
        """``crawl_partitioned(sources, plan, spec)`` is the one way to
        run a plan and ``WorkStealingScheduler`` the one scheduler: the
        second front door, the executor factory, the two-level
        scheduler subclass and its chooser, and static session dispatch
        are gone."""
        import importlib.util

        import repro
        import repro.crawl
        import repro.crawl.runtime

        gone = (
            "crawl_partitioned_parallel",
            "make_executor",
            "SubtreeScheduler",
            "steal_setup",
            "drive_session",
            "run_region",
        )
        for module in (repro, repro.crawl, repro.crawl.runtime):
            for name in gone:
                assert not hasattr(module, name), (module.__name__, name)
        assert importlib.util.find_spec("repro.crawl.parallel") is None

    def test_run_takes_a_spec_not_keywords(self):
        from repro.crawl import ThreadExecutor
        from repro.crawl.partition import partition_space
        from repro.datasets.synthetic import random_dataset
        from repro.dataspace.space import DataSpace
        from repro.server.server import TopKServer

        space = DataSpace.mixed([("c", 3)], ["x"])
        dataset = random_dataset(space, 40, seed=1, numeric_range=(0, 30))
        plan = partition_space(dataset.space, 2)
        sources = [TopKServer(dataset, k=32) for _ in plan.bundles]
        with pytest.raises(TypeError):
            ThreadExecutor().run(sources, plan, rebalance=True)

    @pytest.mark.parametrize(
        "flags", [["--executor", "async"], ["--shared-limits"]]
    )
    def test_cli_rejects_async_and_shared_limits(
        self, flags, tmp_path, capsys
    ):
        from repro.crawl.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "data.csv"), "--k", "8", *flags])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
