"""Concurrent partitioned crawling: the spec-only front door.

:func:`crawl_partitioned_parallel` builds the backend a
:class:`~repro.crawl.spec.CrawlSpec` names (``"thread"`` by default,
``"process"`` for CPU-bound simulated engines, ``"sequential"`` as the
reference) and runs the plan through it -- a thin wrapper over
``make_executor(spec=spec).run(sources, plan, spec)`` from
:mod:`repro.crawl.executors`.

Whatever the backend and stealing schedule, the **determinism
contract** holds: ``result.rows`` is ordered by (session index, region
index, extraction order), ``result.cost`` is the sum of per-session
costs, and ``result.progress`` is the canonical
:func:`~repro.crawl.base.merge_progress` interleaving of the
per-session curves -- byte-identical to the sequential executor on the
same plan.  Only the live feed of an attached
:class:`~repro.crawl.base.ProgressAggregator` reflects actual
scheduling.
"""

from __future__ import annotations

from typing import Sequence

from repro.crawl.executors import default_workers, make_executor
from repro.crawl.partition import PartitionedResult, PartitionPlan
from repro.crawl.spec import CrawlSpec

__all__ = ["crawl_partitioned_parallel", "default_workers"]


def crawl_partitioned_parallel(
    sources: Sequence,
    plan: PartitionPlan,
    spec: CrawlSpec | None = None,
) -> PartitionedResult:
    """Crawl every region of ``plan``, sessions running concurrently.

    Parameters
    ----------
    sources:
        One query source per bundle, exactly as for
        :func:`~repro.crawl.partition.crawl_partitioned`.
    plan:
        The partition plan.
    spec:
        The whole configuration -- backend half and run half -- as a
        :class:`~repro.crawl.spec.CrawlSpec` (default: a default spec,
        i.e. the thread backend with
        :func:`~repro.crawl.executors.default_workers` workers).

    Raises
    ------
    SchemaError
        If ``sources`` does not match ``plan.sessions``.
    QueryBudgetExhausted
        When a limit fires and ``spec.allow_partial`` is ``False`` (the
        lowest failing plan position's exception, after all workers
        drained).

    Examples
    --------
    Three identities crawl a plan concurrently, stealing subtrees of
    whatever region turns out heaviest::

        plan = partition_space(dataset.space, 3)
        sources = [TopKServer(dataset, k=32) for _ in range(3)]
        merged = crawl_partitioned_parallel(
            sources, plan,
            CrawlSpec(rebalance=True, shard_subtrees=8),
        )
        assert sorted(merged.rows) == sorted(dataset.iter_rows())
    """
    spec = spec if spec is not None else CrawlSpec()
    return make_executor(spec=spec).run(sources, plan, spec)
