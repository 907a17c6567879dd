"""CLI: simulate a full crawl of a CSV-backed hidden database.

Loads a dataset (see :mod:`repro.datasets.io` for the schema-carrying
CSV format), hides it behind a top-``k`` server, crawls it with a chosen
algorithm, verifies the extracted bag, and optionally writes it back
out::

    python -m repro.crawl data.csv --k 256
    python -m repro.crawl data.csv --k 64 --algorithm lazy-slice-cover \
        --output extracted.csv --progress
    python -m repro.crawl data.csv --k 256 --workers 4
    python -m repro.crawl data.csv --k 256 --workers 4 \
        --executor process --rebalance
    python -m repro.crawl data.csv --k 256 --workers 4 \
        --rebalance --shard-subtrees 8
    python -m repro.crawl data.csv --k 256 --workers 4 \
        --executor process --budget 5000
    python -m repro.crawl data.csv --k 256 --workers 4 --progress-live
    python -m repro.crawl data.csv --k 256 --workers 4 \
        --checkpoint crawl.ckpt
    python -m repro.crawl data.csv --k 256 --workers 4 \
        --resume crawl.ckpt

``--workers N`` partitions the data space into ``N`` disjoint regions
and crawls them concurrently, one session (with its own server
connection) per worker -- the merged bag and total cost are
deterministic and match a sequential partitioned crawl exactly (see
:mod:`repro.crawl.executors`).  ``--executor`` picks the backend
(``thread`` overlaps simulated round trips, ``process`` escapes the
GIL on CPU-bound engines, ``sequential`` is the reference) and
``--rebalance`` turns on work stealing, which moves regions off the
slowest session without changing the result.  ``--shard-subtrees``
with ``--rebalance`` additionally splits each region's crawl frontier
into subtree shards (:mod:`repro.crawl.sharding`) so idle workers can
steal *subqueries of a live region* -- the lever that helps when one
heavy region dominates the plan.  Without ``--rebalance`` no worker
could take another's shards, so regions crawl whole.  ``--max-regions``
caps how many regions the default partition planner may produce (see
:func:`~repro.crawl.partition.partition_space`).

``--budget N`` puts one server-side :class:`QueryBudget` of ``N``
queries in front of *all* sessions together -- the paper's global
interface limit -- on every backend: the in-process backends share the
budget object, and the process backend admits it exactly once across
its pool through the shared-state control plane
(:mod:`repro.crawl.coordinator`).  ``--progress-live`` prints a
line-per-session progress view (to stderr) while the crawl runs, with
failed sessions marked distinctly.

``--checkpoint PATH`` persists the crawl's progress to ``PATH`` as it
runs (atomically rewritten at every region boundary with ``--workers >
1``; the response cache on a single-session crawl, also saved when a
budget runs out), and ``--resume PATH`` restarts a killed crawl from
such a file: the finished prefix is restored without re-issuing a
single query, and the final output is byte-identical to an
uninterrupted run (see :mod:`repro.crawl.checkpoint`).  ``--resume``
keeps checkpointing to the same file, so a crawl spread over many
days -- the paper's per-IP quota regime -- survives any number of
kills.

This is a simulation utility: the CSV plays the role of the hidden
content, and the reported cost is what a crawl of a real server with
the same data would pay.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from repro.crawl import profiling
from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_crawl_checkpoint,
    save_checkpoint,
)
from repro.crawl.executors import EXECUTORS
from repro.crawl.parallel import crawl_partitioned_parallel
from repro.crawl.partition import DEFAULT_MAX_REGIONS, partition_space
from repro.crawl.sharding import DEFAULT_MAX_SHARDS
from repro.crawl.spec import ALGORITHMS, spec_from_args
from repro.crawl.verify import verify_complete
from repro.datasets.io import load_csv, save_csv
from repro.exceptions import (
    InfeasibleCrawlError,
    QueryBudgetExhausted,
    ReproError,
)
from repro.server.client import CachingClient
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer


def _shard_count(value: str) -> int:
    """Parse ``--shard-subtrees N``; :func:`_main` rejects ``N < 1``."""
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive int N, got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crawl",
        description="Simulate crawling a CSV-backed hidden database.",
    )
    parser.add_argument("csv", help="dataset CSV (schema-carrying header)")
    parser.add_argument("--k", type=int, required=True, help="retrieval limit")
    parser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="hybrid",
        help="crawling algorithm (default: hybrid, works on any schema)",
    )
    parser.add_argument("--seed", type=int, default=0, help="priority seed")
    parser.add_argument(
        "--bounds-from-data",
        action="store_true",
        help="attach observed min/max bounds to numeric attributes "
        "(required by binary-shrink)",
    )
    parser.add_argument("--output", help="write the extracted bag to this CSV")
    parser.add_argument(
        "--max-queries", type=int, default=None, help="sanity cap on cost"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="partition the space into this many disjoint regions and "
        "crawl them concurrently, one session per worker "
        "(default: 1, a single unpartitioned crawl)",
    )
    parser.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default="thread",
        help="concurrency backend for --workers > 1: thread overlaps "
        "round trips, process escapes the GIL on CPU-bound engines "
        "(any --budget still admits exactly once across the pool), "
        "sequential is the reference (default: thread)",
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help="steal regions from the slowest session instead of "
        "following the static partition (results are unchanged)",
    )
    parser.add_argument(
        "--shard-subtrees",
        type=_shard_count,
        nargs="?",
        const=DEFAULT_MAX_SHARDS,
        default=None,
        metavar="N",
        help="with --rebalance, split each region's crawl frontier into "
        "subtree shards that idle workers can steal, targeting a "
        f"positive N per region (default N: {DEFAULT_MAX_SHARDS}; a "
        "frontier naturally wider than N is kept whole; results are "
        "unchanged); helps on skewed data",
    )
    parser.add_argument(
        "--max-regions",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of regions the default partition planner "
        f"may produce (default: {DEFAULT_MAX_REGIONS}); steers the "
        "planner off huge categorical domains",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="put one server-side query budget of N queries in front "
        "of all sessions together (the paper's interface limit); the "
        "crawl fails cleanly when it runs out",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="persist crawl progress to PATH while running (atomically "
        "rewritten at every region boundary with --workers > 1, saved "
        "on completion or budget exhaustion with --workers 1) so a "
        "killed crawl can be resumed with --resume",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume a killed crawl from a checkpoint written by "
        "--checkpoint: the finished prefix costs zero queries and the "
        "output is byte-identical to an uninterrupted run; progress "
        "keeps checkpointing to the same file",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print the progressiveness curve (deciles)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock phase breakdown of the crawl hot path "
        "to stderr after the run (cache traffic, engine time, region "
        "phases; see docs/performance.md) -- the crawl itself is "
        "unchanged: same queries, same cost, byte-identical results",
    )
    parser.add_argument(
        "--progress-live",
        action="store_true",
        help="print a live line-per-session progress view to stderr "
        "while a multi-worker crawl runs (failed sessions are marked "
        "FAILED)",
    )
    return parser


def render_live_progress(aggregator: ProgressAggregator) -> str:
    """One line per session: state (FAILED in caps), queries, tuples.

    The ``--progress-live`` view over an aggregator snapshot.  Failed
    and cancelled sessions render their state in upper case so a dead
    session is visually distinct from slow ``running`` / finished
    ``done`` ones.
    """
    lines = []
    for session, (point, state) in enumerate(aggregator.snapshot()):
        label = state.value
        if state in (SessionState.FAILED, SessionState.CANCELLED):
            label = label.upper()
        lines.append(
            f"session {session}: {label:<9} "
            f"queries={point.queries} tuples={point.tuples}"
        )
    return "\n".join(lines)


def _watch_progress(
    aggregator: ProgressAggregator,
    stop: threading.Event,
    stream,
    interval: float,
) -> None:
    """Print the live view whenever it changes; once more on stop."""
    last = None
    while True:
        finished = stop.wait(interval)
        text = render_live_progress(aggregator)
        if text != last:
            print(text, file=stream, flush=True)
            last = text
        if finished:
            return


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.profile:
        return _main(args)
    # --profile wraps the whole run in an active profiling seam; the
    # phase table goes to stderr so stdout stays byte-identical to an
    # unprofiled run (tests/crawl/test_profiling.py pins this).
    with profiling.profile() as profiler:
        code = _main(args)
    print("profile (wall-clock phases):", file=sys.stderr)
    print(profiler.format(), file=sys.stderr)
    return code


def _main(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print(
            f"error: --workers must be positive, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.shard_subtrees is not None and args.shard_subtrees < 1:
        print(
            "error: --shard-subtrees must be positive, got "
            f"{args.shard_subtrees}",
            file=sys.stderr,
        )
        return 2
    if args.budget is not None and args.budget < 1:
        print(
            f"error: --budget must be positive, got {args.budget}",
            file=sys.stderr,
        )
        return 2
    if args.resume is not None and not Path(args.resume).exists():
        print(
            f"error: --resume checkpoint {args.resume} does not exist "
            "(start with --checkpoint to create one)",
            file=sys.stderr,
        )
        return 2
    # --resume keeps checkpointing to the same file unless --checkpoint
    # points the writes somewhere else.
    checkpoint_path = args.checkpoint or args.resume
    if args.workers == 1 and (
        args.executor != "thread"
        or args.rebalance
        or args.shard_subtrees is not None
        or args.progress_live
    ):
        print(
            "note: --executor/--rebalance/--shard-subtrees/"
            "--progress-live only take effect with --workers > 1; "
            "running a single unpartitioned crawl",
            file=sys.stderr,
        )
    elif args.shard_subtrees is not None and not args.rebalance:
        print(
            "note: --shard-subtrees only takes effect with --rebalance; "
            "crawling each region whole",
            file=sys.stderr,
        )
    try:
        dataset = load_csv(args.csv)
    except (OSError, ReproError) as exc:
        print(f"error: cannot load {args.csv}: {exc}", file=sys.stderr)
        return 2
    if args.bounds_from_data:
        dataset = dataset.with_bounds_from_data()
    print(
        f"dataset: n={dataset.n}, d={dataset.dimensionality}, "
        f"kind={dataset.space.kind.value}, "
        f"min feasible k={dataset.min_feasible_k()}"
    )
    algorithm = ALGORITHMS[args.algorithm]
    budget = QueryBudget(args.budget) if args.budget is not None else None
    limits = [budget] if budget is not None else []
    writer = None
    try:
        if args.workers == 1:
            server = TopKServer(
                dataset, args.k, priority_seed=args.seed, limits=limits
            )
            if checkpoint_path is None:
                source = server
            else:
                # Checkpointing a single session persists the response
                # cache: a resumed crawl replays the finished prefix
                # from the file instead of re-querying the server.
                source = CachingClient(server)
                if args.resume is not None:
                    restored = load_checkpoint(source, args.resume)
                    print(
                        f"resumed from {args.resume}: {restored} cached "
                        "responses restored",
                        file=sys.stderr,
                    )
            crawler = algorithm(source, max_queries=args.max_queries)
            try:
                result = crawler.crawl()
            except QueryBudgetExhausted:
                # The cache already paid for these queries; keep them.
                if checkpoint_path is not None:
                    save_checkpoint(source, checkpoint_path)
                raise
            if checkpoint_path is not None:
                save_checkpoint(source, checkpoint_path)
        else:
            plan = partition_space(
                dataset.space, args.workers, max_regions=args.max_regions
            )
            sources = [
                TopKServer(
                    dataset, args.k, priority_seed=args.seed, limits=limits
                )
                for _ in range(plan.sessions)
            ]
            completed = {}
            if args.resume is not None:
                checkpoint = load_crawl_checkpoint(
                    args.resume, plan, args.k
                )
                completed = checkpoint.completed
                if checkpoint.budget is not None and budget is not None:
                    stored = checkpoint.budget
                    # Same limit, not yet refused: the kill happened
                    # mid-window, so the stored charge still counts
                    # against this run's quota.  A different --budget
                    # or an exhausted window is the paper's quota
                    # *reset*: the user's limit stands untouched --
                    # restoring the old counters here would resurrect
                    # the exhausted window and refuse every query.
                    same_window = (
                        int(stored.get("max_queries", -1)) == args.budget
                        and not stored.get("refused", False)
                    )
                    if same_window:
                        budget.restore_state(stored)
                    else:
                        print(
                            f"budget window reset: {args.budget} fresh "
                            "queries (the checkpointed charge belonged "
                            "to the previous window)",
                            file=sys.stderr,
                        )
                print(
                    f"resumed from {args.resume}: {len(completed)} of "
                    f"{len(plan.regions)} regions restored",
                    file=sys.stderr,
                )
            if checkpoint_path is not None:
                writer = CheckpointWriter(
                    checkpoint_path,
                    plan,
                    args.k,
                    budget=budget,
                    completed=completed,
                )
                # Seed the file now, so a kill before the first region
                # boundary still leaves a loadable (empty) checkpoint.
                writer.write()
            aggregator = None
            monitor = stop = None
            if args.progress_live:
                aggregator = ProgressAggregator(plan.sessions)
                stop = threading.Event()
                monitor = threading.Thread(
                    target=_watch_progress,
                    args=(aggregator, stop, sys.stderr, 0.2),
                    daemon=True,
                )
                monitor.start()
            # One flag->spec mapping, shared with repro-serve: the
            # parser's namespace becomes the spec's backend + run
            # halves; only the run-scoped extras (live aggregator,
            # resume prefix, checkpoint seam) are grafted on here.
            spec = spec_from_args(args).replace(
                aggregator=aggregator,
                completed=completed,
                on_region=(
                    writer.region_done if writer is not None else None
                ),
            )
            try:
                merged = crawl_partitioned_parallel(sources, plan, spec=spec)
            finally:
                if monitor is not None:
                    stop.set()
                    monitor.join()
            mode = args.executor + (" + rebalance" if args.rebalance else "")
            if args.shard_subtrees is not None:
                mode += (
                    f" + {args.shard_subtrees}-way subtree shards"
                    if args.rebalance
                    else " (no subtree shards without rebalance)"
                )
            print(
                f"plan: {len(plan.regions)} regions on "
                f"{dataset.space[plan.attribute].name!r}, "
                f"{plan.sessions} concurrent sessions via {mode} "
                f"(per-session cost: {merged.session_costs()})"
            )
            result = merged.as_crawl_result(
                f"{args.algorithm} x{plan.sessions} sessions"
            )
    except InfeasibleCrawlError as exc:
        print(f"infeasible at k={args.k}: {exc}", file=sys.stderr)
        return 3
    except QueryBudgetExhausted as exc:
        # The budget is the only limit the CLI puts in front of the
        # server, and every backend charges the caller's object exactly.
        print(
            f"budget exhausted: {exc} ({budget.used} queries charged)",
            file=sys.stderr,
        )
        if writer is not None:
            # Record the refusal itself: no region need land after it,
            # and a file still reading "not refused" makes every resume
            # restore the exhausted window.
            writer.write()
        if checkpoint_path is not None:
            print(
                f"progress checkpointed to {checkpoint_path}; continue "
                f"with --resume {checkpoint_path} once the limit resets",
                file=sys.stderr,
            )
        return 4
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_complete(result, dataset)
    print(
        f"crawl: {result.cost} queries, {result.tuples_extracted} tuples "
        f"({result.algorithm})"
    )
    if result.phase_costs:
        phases = ", ".join(f"{k}={v}" for k, v in result.phase_costs.items())
        print(f"phases: {phases}")
    print(f"verify: {report.summary()}")
    if args.progress:
        curve = result.progress_fractions()
        print("progress (queries% -> tuples%):")
        for target in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            reached = max(
                (p for p in curve if p[0] <= target),
                default=(0.0, 0.0),
                key=lambda p: (p[0], p[1]),
            )
            print(f"  {target:>5.0%} -> {reached[1]:.1%}")
    if args.output:
        save_csv(result.as_dataset(), args.output)
        print(f"extracted bag written to {args.output}")
    return 0 if report.complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
