"""`CrawlSpec`: one validated config object for a partitioned crawl.

Every caller of the execution layer -- the CLI, the parallel front
door, the benchmarks, the job service -- configures a crawl through a
single frozen, validated dataclass, and
:meth:`CrawlExecutor.run <repro.crawl.executors.CrawlExecutor.run>`
takes nothing else:

* the **run half** (``crawler_factory``, ``allow_partial``,
  ``aggregator``, ``rebalance``, ``shard_subtrees``, ``completed``,
  ``on_region``) configures one executor invocation --
  ``executor.run(sources, plan, spec)``;
* the **backend half** (``executor``, ``max_workers``) configures
  which executor to build -- ``make_executor(spec=spec)``.

Specs are plain frozen dataclasses: derive variants with
:func:`dataclasses.replace`, ship them across process boundaries
(picklable whenever their ``crawler_factory`` and callbacks are), and
submit them as jobs to :mod:`repro.service`.

:func:`spec_from_args` is the one flag->spec mapping both CLIs share:
``python -m repro.crawl`` and ``repro-serve`` build their specs through
it, so a crawl flag means exactly the same thing submitted as a service
job as it does on the command line.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.crawl.base import Crawler, CrawlResult, ProgressAggregator
from repro.crawl.binary_shrink import BinaryShrink
from repro.crawl.dfs import DepthFirstSearch
from repro.crawl.hybrid import Hybrid
from repro.crawl.rank_shrink import RankShrink
from repro.crawl.rebalance import RegionKey
from repro.crawl.slice_cover import LazySliceCover, SliceCover

__all__ = ["CrawlSpec", "spec_from_args", "ALGORITHMS"]

#: CLI algorithm names -> crawler classes, shared by ``python -m
#: repro.crawl`` and the service's job files.
ALGORITHMS: dict[str, type[Crawler]] = {
    "hybrid": Hybrid,
    "rank-shrink": RankShrink,
    "binary-shrink": BinaryShrink,
    "dfs": DepthFirstSearch,
    "slice-cover": SliceCover,
    "lazy-slice-cover": LazySliceCover,
}


@dataclass(frozen=True)
class CrawlSpec:
    """Everything one partitioned crawl needs, as one frozen object.

    The backend half is consumed by
    :func:`~repro.crawl.executors.make_executor`, the run half by
    :meth:`~repro.crawl.executors.CrawlExecutor.run`; see those
    docstrings for the full contracts.  Validation happens at
    construction, so an invalid combination fails where the spec is
    *built* (the CLI, a service submission) rather than deep inside a
    worker fleet.

    Examples
    --------
    Build once, run anywhere -- the spec is the whole configuration::

        from repro import CrawlSpec, make_executor

        spec = CrawlSpec(
            executor="process", max_workers=4,
            rebalance=True, shard_subtrees=8,
        )
        executor = make_executor(spec=spec)
        merged = executor.run(sources, plan, spec)

    Derive variants with :func:`dataclasses.replace`::

        import dataclasses
        resumed = dataclasses.replace(spec, completed=ckpt.completed)
    """

    # -- backend half: consumed by make_executor(spec=...) ------------
    #: Registry name of the backend to build (``None`` = caller's
    #: choice, defaulting to ``"thread"`` in :func:`make_executor`).
    executor: str | None = None
    #: Worker count for the backend; ``None`` picks the default.
    max_workers: int | None = None

    # -- run half: consumed by CrawlExecutor.run(sources, plan, spec) -
    #: Crawler class (or picklable factory) applied per region.
    crawler_factory: Callable[..., Crawler] = Hybrid
    #: Budget-interrupted regions yield partial results instead of
    #: raising.
    allow_partial: bool = False
    #: Optional live progress sink.
    aggregator: ProgressAggregator | None = None
    #: Enable work stealing.
    rebalance: bool = False
    #: With ``rebalance``, presplit each region taken into at most this
    #: many subtree shards that idle workers can steal; ``None`` crawls
    #: regions whole.  Static dispatch always crawls regions whole.
    shard_subtrees: int | None = None
    #: Already-crawled results keyed by plan position (resume).
    completed: Mapping[RegionKey, CrawlResult] | None = None
    #: Callback fired per newly completed region (checkpoint seam).
    on_region: Callable[[RegionKey, CrawlResult], None] | None = None

    def __post_init__(self):
        if self.executor is not None:
            # Late import: executors imports this module at its top.
            from repro.crawl.executors import EXECUTORS

            if self.executor not in EXECUTORS:
                known = ", ".join(sorted(EXECUTORS))
                raise ValueError(
                    f"unknown executor {self.executor!r}; expected one "
                    f"of: {known}"
                )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(
                f"max_workers must be positive, got {self.max_workers}"
            )
        shards = self.shard_subtrees
        if shards is not None and (
            isinstance(shards, bool)
            or not isinstance(shards, int)
            or shards < 1
        ):
            raise ValueError(
                "shard_subtrees must be a positive int or None, got "
                f"{shards!r}"
            )
        if not callable(self.crawler_factory):
            raise ValueError(
                "crawler_factory must be callable, got "
                f"{self.crawler_factory!r}"
            )

    def replace(self, **changes: Any) -> "CrawlSpec":
        """A copy with ``changes`` applied (re-validated).

        Sugar for :func:`dataclasses.replace`, kept as a method so
        call sites read ``spec.replace(on_region=writer.region_done)``.
        """
        return dataclasses.replace(self, **changes)


def spec_from_args(args: Any) -> CrawlSpec:
    """Build a :class:`CrawlSpec` from CLI-shaped arguments.

    ``args`` is anything with the crawl CLI's attribute names -- an
    :class:`argparse.Namespace` from ``python -m repro.crawl``, or a
    namespace the service CLI assembles from one job entry of a jobs
    file.  Missing attributes take the CLI's defaults, so a job entry
    only needs the flags it changes.  This is the **one** flag->spec
    mapping; both CLIs call it, so a flag cannot mean two things.

    Recognised attributes: ``algorithm``, ``max_queries``,
    ``executor``, ``workers``, ``rebalance``, ``shard_subtrees``,
    ``allow_partial``.

    Examples
    --------
    ::

        args = build_parser().parse_args(argv)
        spec = spec_from_args(args)
        executor = make_executor(spec=spec)
    """
    algorithm = getattr(args, "algorithm", "hybrid")
    try:
        crawler = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}"
        ) from None
    max_queries = getattr(args, "max_queries", None)
    factory: Callable[..., Crawler]
    # functools.partial (not a lambda) so the factory stays picklable
    # for the process backend.
    factory = functools.partial(crawler, max_queries=max_queries)
    workers = getattr(args, "workers", None)
    # The service layer calls the knob "backend" (it picks where region
    # units *run*, not how a standalone crawl is driven); both names
    # land in the same spec field, explicit "executor" winning.
    executor = getattr(args, "executor", None) or getattr(
        args, "backend", None
    )
    return CrawlSpec(
        executor=executor,
        max_workers=int(workers) if workers is not None else None,
        crawler_factory=factory,
        allow_partial=bool(getattr(args, "allow_partial", False)),
        rebalance=bool(getattr(args, "rebalance", False)),
        shard_subtrees=getattr(args, "shard_subtrees", None),
    )
