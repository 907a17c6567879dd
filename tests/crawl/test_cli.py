"""Tests for the python -m repro.crawl CLI."""

import json
import re

import pytest

from repro.crawl.__main__ import build_parser, main
from repro.datasets.io import load_csv, save_csv
from repro.datasets.synthetic import random_dataset
from repro.dataspace.space import DataSpace
from tests.conftest import make_dataset


@pytest.fixture
def mixed_csv(tmp_path):
    space = DataSpace.mixed([("c", 3)], ["x"])
    dataset = random_dataset(space, 60, seed=1, numeric_range=(0, 30))
    path = tmp_path / "data.csv"
    save_csv(dataset, path)
    return str(path), dataset


class TestParser:
    def test_requires_k(self, mixed_csv):
        path, _ = mixed_csv
        with pytest.raises(SystemExit):
            build_parser().parse_args([path])

    def test_defaults(self, mixed_csv):
        path, _ = mixed_csv
        args = build_parser().parse_args([path, "--k", "8"])
        assert args.algorithm == "hybrid"
        assert args.seed == 0
        assert args.executor == "thread"

    def test_executor_choices(self, mixed_csv):
        path, _ = mixed_csv
        args = build_parser().parse_args(
            [path, "--k", "8", "--executor", "process"]
        )
        assert args.executor == "process"
        for bad in ("x", "async"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [path, "--k", "8", "--executor", bad]
                )

    def test_shard_subtrees_flag_shapes(self, mixed_csv):
        from repro.crawl.sharding import DEFAULT_MAX_SHARDS

        path, _ = mixed_csv
        args = build_parser().parse_args([path, "--k", "8"])
        assert args.shard_subtrees is None
        assert args.max_regions is None
        args = build_parser().parse_args(
            [path, "--k", "8", "--shard-subtrees"]
        )
        assert args.shard_subtrees == DEFAULT_MAX_SHARDS
        args = build_parser().parse_args(
            [path, "--k", "8", "--shard-subtrees", "12", "--max-regions", "64"]
        )
        assert args.shard_subtrees == 12
        assert args.max_regions == 64
        for bad in ("many", "auto"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [path, "--k", "8", "--shard-subtrees", bad]
                )

    def test_max_queries_is_not_an_option(self, mixed_csv, capsys):
        # --budget is the one cap; the per-crawler cap is gone.
        path, _ = mixed_csv
        with pytest.raises(SystemExit) as excinfo:
            main([path, "--k", "8", "--max-queries", "400"])
        assert excinfo.value.code == 2
        assert "--max-queries" in capsys.readouterr().err


class TestMain:
    def test_happy_path(self, mixed_csv, capsys):
        path, dataset = mixed_csv
        assert main([path, "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert f"n={dataset.n}" in out
        assert "complete" in out

    def test_output_round_trip(self, mixed_csv, tmp_path, capsys):
        path, dataset = mixed_csv
        out_path = tmp_path / "extracted.csv"
        assert main([path, "--k", "8", "--output", str(out_path)]) == 0
        extracted = load_csv(out_path)
        assert extracted == dataset

    def test_progress_flag(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "progress" in out
        assert "100% -> 100.0%" in out

    def test_binary_shrink_needs_bounds_flag(self, tmp_path, capsys):
        space = DataSpace.numeric(1)
        dataset = random_dataset(space, 20, seed=0, numeric_range=(0, 9))
        path = tmp_path / "num.csv"
        save_csv(dataset, path)
        assert (
            main([str(path), "--k", "4", "--algorithm", "binary-shrink"])
            == 2
        )
        assert (
            main(
                [
                    str(path),
                    "--k",
                    "4",
                    "--algorithm",
                    "binary-shrink",
                    "--bounds-from-data",
                ]
            )
            == 0
        )

    def test_infeasible_exit_code(self, tmp_path, capsys):
        space = DataSpace.categorical([3])
        dataset = make_dataset(space, [[1]] * 9 + [[2]])
        path = tmp_path / "dup.csv"
        save_csv(dataset, path)
        assert main([str(path), "--k", "4"]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent.csv", "--k", "4"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_wrong_algorithm_for_space(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--algorithm", "dfs"]) == 2
        assert "error" in capsys.readouterr().err


class TestExecutors:
    """The --executor / --shard-subtrees surface of the partitioned path."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--executor", "thread"],
            ["--executor", "process"],
            ["--executor", "sequential"],
            # Old command lines: --rebalance parses and changes nothing.
            ["--executor", "thread", "--rebalance"],
            ["--executor", "process", "--rebalance"],
            ["--executor", "sequential", "--rebalance"],
        ],
    )
    def test_partitioned_backends_verify_complete(
        self, mixed_csv, capsys, flags
    ):
        path, dataset = mixed_csv
        assert main([path, "--k", "8", "--workers", "2", *flags]) == 0
        out = capsys.readouterr().out
        assert "2 concurrent sessions" in out
        assert "complete" in out
        assert flags[1] in out  # the backend name is reported

    @pytest.mark.parametrize("executor", ["thread", "process", "sequential"])
    def test_rebalance_is_a_hidden_no_op(
        self, mixed_csv, tmp_path, capsys, executor
    ):
        """Old command lines still run: the pooled backends always
        steal, so ``--rebalance`` changes neither the report nor the
        extracted bag on any backend, and ``--help`` no longer lists
        it."""
        import hashlib

        path, _ = mixed_csv
        argv = [path, "--k", "8", "--workers", "2", "--executor", executor]
        reports = []
        for index, extra in enumerate(([], ["--rebalance"])):
            output = tmp_path / f"out{index}.csv"
            assert main([*argv, *extra, "--output", str(output)]) == 0
            crawl = re.search(r"^crawl: .*$", capsys.readouterr().out, re.M)
            rows = sorted(output.read_text().splitlines())
            digest = hashlib.md5("\n".join(rows).encode()).hexdigest()
            reports.append((crawl.group(0), digest))
        assert reports[0] == reports[1]
        assert "--rebalance" not in build_parser().format_help()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shard-subtrees"],
            ["--executor", "thread", "--shard-subtrees", "4"],
            ["--executor", "process", "--shard-subtrees", "4"],
            ["--executor", "process", "--rebalance", "--shard-subtrees", "4"],
        ],
    )
    def test_shard_subtrees_verifies_complete(self, mixed_csv, capsys, flags):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--workers", "2", *flags]) == 0
        out = capsys.readouterr().out
        assert "subtree shards" in out
        assert "complete" in out

    def test_sequential_crawls_regions_whole(self, mixed_csv, capsys):
        path, _ = mixed_csv
        argv = [path, "--k", "8", "--workers", "2", "--shard-subtrees", "4"]
        assert main([*argv, "--executor", "sequential"]) == 0
        out = capsys.readouterr().out
        assert "via sequential (" in out
        assert "subtree shards" not in out
        assert "complete" in out

    def test_shard_subtrees_must_be_positive(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert (
            main([path, "--k", "8", "--workers", "2", "--shard-subtrees", "0"])
            == 2
        )
        assert "--shard-subtrees" in capsys.readouterr().err

    def test_max_regions_caps_the_plan(self, tmp_path, capsys):
        from repro.dataspace.space import DataSpace

        space = DataSpace.mixed([("c", 9)], ["x"])
        dataset = random_dataset(space, 80, seed=2, numeric_range=(0, 40))
        path = tmp_path / "wide.csv"
        save_csv(dataset, path)
        assert (
            main(
                [
                    str(path),
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--max-regions",
                    "9",
                ]
            )
            == 0
        )
        assert "9 regions" in capsys.readouterr().out
        # A cap below the categorical domain steers the planner to the
        # bounded numeric attribute: exactly one interval per session.
        assert (
            main(
                [
                    str(path),
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--max-regions",
                    "4",
                    "--bounds-from-data",
                ]
            )
            == 0
        )
        assert "2 regions" in capsys.readouterr().out


class TestSharedLimitsAndLiveProgress:
    """The --budget / --progress-live surface (no --shared-limits: any
    --budget is enforced once across the pool on every backend)."""

    def test_flag_defaults(self, mixed_csv):
        path, _ = mixed_csv
        args = build_parser().parse_args([path, "--k", "8"])
        assert args.budget is None
        assert not hasattr(args, "shared_limits")
        assert args.progress_live is False

    def test_budget_must_be_positive(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_generous_budget_completes(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--budget", "100000"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_exhausted_budget_exits_4_with_exact_charge(
        self, mixed_csv, capsys
    ):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--budget", "3"]) == 4
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        assert "(3 queries charged)" in err

    def test_process_shared_limits_budgeted_crawl(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert (
            main(
                [
                    path,
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--executor",
                    "process",
                    "--budget",
                    "100000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "via process (" in out
        assert "complete" in out

    def test_process_shared_limits_exhaustion_exits_4(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert (
            main(
                [
                    path,
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--executor",
                    "process",
                    "--budget",
                    "5",
                ]
            )
            == 4
        )
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        assert "(5 queries charged)" in err

    @pytest.mark.parametrize(
        "shards", [[], ["--shard-subtrees", "4"]], ids=["whole", "sharded"]
    )
    def test_process_budget_is_enforced_once_across_the_pool(
        self, mixed_csv, capsys, shards
    ):
        """A plain --budget on the process backend, with whole regions
        or subtree shards: the pool admits it exactly once.  One query
        short of the crawl's exact charge, the crawl fails with that
        charge -- where per-worker budget copies each admitted their
        share and let the crawl finish over budget."""
        from repro.crawl.partition import crawl_partitioned, partition_space
        from repro.server.limits import QueryBudget
        from repro.server.server import TopKServer

        path, dataset = mixed_csv
        plan = partition_space(dataset.space, 2)
        exact = QueryBudget(10**6)
        crawl_partitioned(
            [TopKServer(dataset, 8, limits=[exact]) for _ in plan.bundles],
            plan,
        )
        budget = exact.used - 1
        argv = [path, "--k", "8", "--workers", "2", "--executor", "process"]
        assert main([*argv, *shards, "--budget", str(budget)]) == 4
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        assert f"({budget} queries charged)" in err

    def test_progress_live_prints_session_lines(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert (
            main([path, "--k", "8", "--workers", "2", "--progress-live"])
            == 0
        )
        err = capsys.readouterr().err
        assert "session 0:" in err
        assert "session 1:" in err
        assert "done" in err

    def test_single_worker_notes_inert_flags(self, mixed_csv, capsys):
        path, _ = mixed_csv
        assert main([path, "--k", "8", "--executor", "process"]) == 0
        assert "--workers > 1" in capsys.readouterr().err


class TestLiveProgressRendering:
    """render_live_progress marks dead sessions distinctly."""

    def test_failed_session_is_upper_case(self):
        from repro.crawl.__main__ import render_live_progress
        from repro.crawl.base import ProgressAggregator, ProgressPoint

        aggregator = ProgressAggregator(3)
        aggregator.report(0, ProgressPoint(10, 20))
        aggregator.mark_done(0)
        aggregator.mark_failed(1)
        text = render_live_progress(aggregator)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "session 0: done" in lines[0]
        assert "queries=10 tuples=20" in lines[0]
        assert "FAILED" in lines[1]
        assert "failed" not in lines[1]
        assert "running" in lines[2]

    def test_cancelled_session_is_upper_case(self):
        from repro.crawl.__main__ import render_live_progress
        from repro.crawl.base import ProgressAggregator

        aggregator = ProgressAggregator(1)
        aggregator.mark_cancelled(0)
        assert "CANCELLED" in render_live_progress(aggregator)


class TestCheckpointResume:
    """--checkpoint / --resume: kill a crawl, restart it for free."""

    def test_parser_defaults_and_paths(self, mixed_csv):
        path, _ = mixed_csv
        args = build_parser().parse_args([path, "--k", "8"])
        assert args.checkpoint is None
        assert args.resume is None
        args = build_parser().parse_args(
            [path, "--k", "8", "--checkpoint", "c.json", "--resume", "r.json"]
        )
        assert args.checkpoint == "c.json"
        assert args.resume == "r.json"

    def test_resume_missing_file_exits_2(self, mixed_csv, tmp_path, capsys):
        path, _ = mixed_csv
        missing = tmp_path / "missing.json"
        assert main([path, "--k", "8", "--resume", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "start with --checkpoint to create one" in err

    def test_single_worker_exhaust_then_resume(
        self, mixed_csv, tmp_path, capsys
    ):
        path, _ = mixed_csv
        ckpt = tmp_path / "crawl.json"
        assert (
            main(
                [
                    path,
                    "--k",
                    "8",
                    "--budget",
                    "5",
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 4
        )
        err = capsys.readouterr().err
        assert "budget exhausted" in err
        assert f"progress checkpointed to {ckpt}" in err
        assert f"continue with --resume {ckpt}" in err
        assert ckpt.exists()
        assert main([path, "--k", "8", "--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert (
            f"resumed from {ckpt}: 5 cached responses restored"
            in captured.err
        )
        assert "complete" in captured.out

    def test_multi_worker_checkpoint_then_resume_is_identical(
        self, mixed_csv, tmp_path, capsys
    ):
        path, _ = mixed_csv
        ckpt = tmp_path / "crawl.json"
        assert (
            main(
                [
                    path,
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert ckpt.exists()
        assert (
            main([path, "--k", "8", "--workers", "2", "--resume", str(ckpt)])
            == 0
        )
        captured = capsys.readouterr()
        assert "regions restored" in captured.err
        # Every region came back from the file, none were re-crawled...
        payload = json.loads(ckpt.read_text())
        regions = len(payload["completed"])
        assert f"{regions} of {regions} regions restored" in captured.err
        # ...and the reported crawl is byte-identical to the first run.
        first_crawl = [
            line for line in first.splitlines() if line.startswith("crawl:")
        ]
        second_crawl = [
            line
            for line in captured.out.splitlines()
            if line.startswith("crawl:")
        ]
        assert first_crawl == second_crawl
        assert "complete" in captured.out

    def test_resume_recrawls_a_partial_region(
        self, mixed_csv, tmp_path, capsys
    ):
        # Older writers filed a budget-interrupted region as a partial
        # result: resume must crawl that region again, not trust it.
        from repro.crawl.checkpoint import save_crawl_checkpoint
        from repro.crawl.hybrid import Hybrid
        from repro.crawl.partition import SubspaceView, partition_space
        from repro.server.limits import QueryBudget
        from repro.server.server import TopKServer

        path, dataset = mixed_csv
        plan = partition_space(dataset.space, 2)
        server = TopKServer(dataset, 8, limits=[QueryBudget(1)])
        partial = Hybrid(SubspaceView(server, plan.bundles[0][0])).crawl(
            allow_partial=True
        )
        assert not partial.complete
        ckpt = tmp_path / "crawl.json"
        save_crawl_checkpoint(ckpt, plan, 8, {(0, 0): partial})
        output = tmp_path / "out.csv"
        argv = [path, "--k", "8", "--workers", "2", "--resume", str(ckpt)]
        assert main(argv + ["--output", str(output)]) == 0
        captured = capsys.readouterr()
        assert f"0 of {len(plan.regions)} regions restored" in captured.err
        assert "verify: complete" in captured.out
        assert sorted(load_csv(output).iter_rows()) == sorted(
            dataset.iter_rows()
        )

    def test_multi_worker_exhaustion_hints_resume(
        self, mixed_csv, tmp_path, capsys
    ):
        path, _ = mixed_csv
        ckpt = tmp_path / "crawl.json"
        assert (
            main(
                [
                    path,
                    "--k",
                    "8",
                    "--workers",
                    "2",
                    "--budget",
                    "3",
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 4
        )
        err = capsys.readouterr().err
        assert f"continue with --resume {ckpt}" in err
        # A kill before the first boundary still leaves a loadable file.
        assert ckpt.exists()

    @pytest.mark.parametrize(
        "budget, backend",
        [("11", "thread"), ("12", "process")],
        ids=["thread-11", "process-12"],
    )
    def test_budget_window_reset_completes_across_runs(
        self, mixed_csv, tmp_path, capsys, budget, backend
    ):
        # The paper's quota regime: a per-identity limit that resets
        # between runs.  Re-running with the same --budget must treat
        # an exhausted checkpoint as a fresh window (not resurrect the
        # refused one) so the crawl eventually completes.  Under
        # --budget 11 no region lands after the refusal, so only the
        # exhaustion path itself can record it in the checkpoint.
        path, _ = mixed_csv
        ckpt = tmp_path / "crawl.json"
        argv = [
            path,
            "--k",
            "8",
            "--workers",
            "2",
            "--executor",
            backend,
            "--budget",
            budget,
            "--checkpoint",
            str(ckpt),
        ]
        assert main(argv) == 4
        err = capsys.readouterr().err
        charged = int(re.search(r"\((\d+) queries charged\)", err)[1])
        stored = json.loads(ckpt.read_text())["budget"]
        assert stored["refused"] is True
        assert stored["used"] == charged
        resume_argv = argv[:-2] + ["--resume", str(ckpt)]
        saw_reset = False
        for _ in range(20):
            code = main(resume_argv)
            captured = capsys.readouterr()
            saw_reset = saw_reset or "budget window reset" in captured.err
            if code == 0:
                break
            assert code == 4
        assert code == 0
        assert saw_reset
        assert "complete" in captured.out

    def test_same_window_restores_budget_charge(
        self, mixed_csv, tmp_path, capsys
    ):
        # A kill *without* exhaustion (same limit, refused never set)
        # continues the same quota window: the stored charge counts.
        path, _ = mixed_csv
        ckpt = tmp_path / "crawl.json"
        argv = [
            path,
            "--k",
            "8",
            "--workers",
            "2",
            "--budget",
            "1000",
            "--checkpoint",
            str(ckpt),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv[:-2] + ["--resume", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert "budget window reset" not in captured.err
        assert "regions restored" in captured.err
        assert "complete" in captured.out
