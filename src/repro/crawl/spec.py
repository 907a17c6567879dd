"""`CrawlSpec`: one validated config object for a partitioned crawl.

Every caller of the execution layer -- the CLI, the benchmarks, the
job service -- configures a crawl through a single frozen, validated
dataclass, and :func:`~repro.crawl.partition.crawl_partitioned` takes
nothing else:

* the **backend half** (``executor``, ``max_workers``) says which
  backend runs the plan and on how many workers -- ``executor=None``
  is the sequential reference in ``crawl_partitioned`` and the
  manager's own backend in the job service;
* the **run half** (``crawler_factory``, ``aggregator``,
  ``shard_subtrees``, ``completed``, ``on_region``) configures the run
  itself.  It has no partial mode: every region completes or raises,
  so a limit that runs out fails the crawl (see
  :meth:`~repro.crawl.executors.CrawlExecutor.run`).

Each setting lives here only: an executor instance keeps no copy.

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

    :func:`~repro.crawl.partition.crawl_partitioned` reads the backend
    half to pick the executor, which reads the rest; see
    :meth:`~repro.crawl.executors.CrawlExecutor.run` for the full
    contract.  Validation happens at
    construction, so an invalid combination fails where the spec is
    *built* (the CLI, a service submission) rather than deep inside a
    worker fleet.

    Examples
    --------
    Build once, run anywhere -- the spec is the whole configuration::

        from repro import CrawlSpec, crawl_partitioned

        spec = CrawlSpec(
            executor="process", max_workers=4, shard_subtrees=8
        )
        merged = crawl_partitioned(sources, plan, spec)

    Derive variants with :func:`dataclasses.replace`::

        import dataclasses
        resumed = dataclasses.replace(spec, completed=ckpt.completed)
    """

    # -- backend half: which executor crawl_partitioned() runs ---------
    #: Registry name of the backend (``None`` = the caller's default:
    #: ``"sequential"`` in ``crawl_partitioned``, the manager's backend
    #: in the job service).
    executor: str | None = None
    #: Worker count for the backend; ``None`` picks the default.
    max_workers: int | None = None

    # -- run half: consumed by CrawlExecutor.run(sources, plan, spec) -
    #: Crawler class (or picklable factory) applied per region.
    crawler_factory: Callable[..., Crawler] = Hybrid
    #: Optional live progress sink.
    aggregator: ProgressAggregator | None = None
    #: On a pooled backend, presplit each region taken into at most
    #: this many subtree shards that idle workers can steal; ``None``
    #: crawls regions whole, as the sequential reference always does.
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

    Recognised attributes: ``algorithm``, ``executor`` (or the
    service's ``backend``), ``workers``, ``shard_subtrees``.

    Examples
    --------
    ::

        args = build_parser().parse_args(argv)
        spec = spec_from_args(args)
        merged = crawl_partitioned(sources, plan, spec)
    """
    algorithm = getattr(args, "algorithm", "hybrid")
    try:
        crawler = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}"
        ) from None
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
        crawler_factory=crawler,
        shard_subtrees=getattr(args, "shard_subtrees", None),
    )
