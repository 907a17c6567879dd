"""Intra-session subtree sharding: a splittable crawler front.

A partition plan's unit of scheduling used to be the *region*: one
session's whole-region crawl could not be split, so a single heavy
region (one huge categorical value on an NSF-like schema, say)
serialised the crawl no matter how many workers were available.  This
module makes the crawl of one region itself splittable:

* :func:`presplit_region` runs the region's crawler just far enough to
  expose its pending-subtree frontier and returns a
  :class:`RegionShardPlan`: the *trunk* (everything the planner already
  crawled, captured segment by segment) plus the frontier's
  :class:`SubtreeShard` entries -- pairwise-disjoint subtree roots, in
  the exact order the sequential crawl would process them, split until
  at least ``max_shards`` are pending (bounds on
  :data:`DEFAULT_MAX_SHARDS`);
* :func:`crawl_shard` crawls one shard independently (any worker, any
  time, against the region's own session source);
* :func:`merge_region_shards` splices the shard results back into the
  trunk at their canonical positions, reproducing the sequential
  region crawl **byte for byte**: same rows in the same order, same
  cost, same progress curve.

Why the splice is exact
-----------------------
The shrink algorithms are stack-driven: once a pending subtree is
popped, its entire subtree is processed before anything beneath it on
the stack.  The planner therefore executes a *prefix* of the sequential
crawl (issuing exactly the queries the sequential crawl would issue
first) and stops with the remaining stack as the frontier.  Each
frontier entry is a rectangle no query of any other subtree can touch
-- splits strictly refine, so every query of the region crawl is a
distinct rectangle -- which is what lets each shard run on a *fresh*
:class:`~repro.server.client.CachingClient` without losing cache hits
the sequential crawl would have had.  The one genuine cross-link -- a
hybrid leaf whose root query equals an already-consulted slice query
(``cat == 1``) -- is carried along explicitly as the shard's ``seed``
response and pre-loaded into the shard's cache, so the shard replays
the sequential cache hit at zero cost.

Splittable algorithms are :class:`~repro.crawl.hybrid.Hybrid` (numeric
leaf sub-crawls are deferred into shards via its
``defer_numeric_leaf`` hook, then grown further with
:func:`~repro.crawl.rank_shrink.explore_numeric`),
:class:`~repro.crawl.rank_shrink.RankShrink` and
:class:`~repro.crawl.binary_shrink.BinaryShrink` (frontier truncation
of their work stacks).  Any other crawler degrades gracefully: the
whole region becomes the trunk and the plan carries zero shards.

Caveats (shared with the rebalancing layer): source-side *limits*
fire by cumulative query order, which sharding reorders -- parity with
the sequential executor is guaranteed for crawls that complete within
their limits.  A presplit or a shard either finishes or raises: a
limit that fires mid-trunk or mid-growth propagates, as it does from a
whole-region crawl.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.crawl import profiling
from repro.crawl.base import Crawler, CrawlResult, ProgressPoint
from repro.crawl.binary_shrink import (
    BinaryShrink,
    explore_binary,
    solve_binary,
)
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import SubspaceView, _crawl_region
from repro.crawl.rank_shrink import RankShrink, explore_numeric, solve_numeric
from repro.exceptions import AlgorithmInvariantError, SchemaError
from repro.query.query import Query
from repro.server.response import QueryResponse, Row

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "SubtreeShard",
    "TrunkSegment",
    "RegionShardPlan",
    "SubtreeCrawler",
    "presplit_region",
    "crawl_shard",
    "merge_region_shards",
]

#: Default subtree-shard target per region.  Constant (never derived
#: from worker counts), so the shard plan -- and with it the merged
#: result -- is identical across executor backends.  The target bounds
#: *splitting*, not the frontier itself: a region whose crawl naturally
#: exposes more pending subtrees (e.g. a hybrid crawl with more
#: overflowing categorical leaves than the target) keeps them all, and
#: a final 3-way split may overshoot the target by up to two.
DEFAULT_MAX_SHARDS = 8

_RANK = "rank-shrink"
_BINARY = "binary-shrink"


@dataclass(frozen=True)
class SubtreeShard:
    """One independently crawlable subtree of a region's frontier.

    Attributes
    ----------
    order:
        Canonical position among the region's shards: crawling shards
        in ``order`` replays the sequential crawl.
    query:
        The subtree's root rectangle; every query of the shard's crawl
        refines it.
    dims:
        Split order of the remaining numeric attributes (rank-shrink
        shards; empty for binary-shrink shards).
    algo:
        ``"rank-shrink"`` or ``"binary-shrink"`` -- which shrink rule
        continues the subtree.
    threshold_divisor:
        The rank-shrink case threshold the parent crawler used.
    seed:
        A response the planner's crawl already holds for ``query``
        (e.g. a hybrid leaf whose root equals a consulted slice); it is
        pre-loaded into the shard's cache so the shard replays the
        sequential cache hit instead of re-paying the query.
    phase:
        Cost phase the shard's queries belong to in the sequential
        accounting (e.g. ``"traversal"`` for eager hybrid), or ``None``.
    """

    order: int
    query: Query
    dims: tuple[int, ...]
    algo: str
    threshold_divisor: int
    seed: QueryResponse | None
    phase: str | None


@dataclass(frozen=True)
class TrunkSegment:
    """A contiguous stretch of the trunk between two shard positions.

    ``progress`` points are deltas from the segment's start state, so
    the merge can re-base them wherever the segment lands once shard
    costs are spliced in before it.
    """

    rows: tuple[Row, ...]
    progress: tuple[ProgressPoint, ...]
    cost: int


_EMPTY_SEGMENT = TrunkSegment(rows=(), progress=(), cost=0)


def _concat_segments(a: TrunkSegment, b: TrunkSegment) -> TrunkSegment:
    if not b.rows and not b.progress and not b.cost:
        return a
    return TrunkSegment(
        rows=a.rows + b.rows,
        progress=a.progress
        + tuple(
            ProgressPoint(p.queries + a.cost, p.tuples + len(a.rows))
            for p in b.progress
        ),
        cost=a.cost + b.cost,
    )


@dataclass(frozen=True)
class RegionShardPlan:
    """A region crawl decomposed into a trunk and subtree shards.

    ``segments[i]`` precedes ``shards[i]`` in canonical order;
    ``segments[-1]`` is the trunk's tail, so ``len(segments) ==
    len(shards) + 1``.  The plan is a pure function of (source, region,
    crawler factory, ``max_shards``) -- every executor backend computes
    the same plan, which is what keeps the merged result byte-identical
    across backends and stealing schedules.
    """

    region: Query
    algorithm: str
    segments: tuple[TrunkSegment, ...]
    shards: tuple[SubtreeShard, ...]
    trunk_phase_costs: dict[str, int] = field(default_factory=dict)

    @property
    def trunk_cost(self) -> int:
        """Queries the planner itself issued (the serial fraction)."""
        return sum(segment.cost for segment in self.segments)

    def __repr__(self) -> str:
        return (
            f"RegionShardPlan({self.algorithm}, {len(self.shards)} shards, "
            f"trunk cost {self.trunk_cost})"
        )


class SubtreeCrawler(Crawler):
    """Continues one :class:`SubtreeShard` exactly as its parent would.

    A fresh crawler (and cache) per shard keeps the shard's
    :class:`~repro.crawl.base.CrawlResult` a pure function of (source,
    region, shard) -- crawlable by any worker, at any time, with a
    deterministic outcome.
    """

    name = "subtree-shard"

    def __init__(self, source, shard: SubtreeShard):
        super().__init__(source)
        self._shard = shard

    def _execute(self) -> None:
        shard = self._shard
        if shard.seed is not None:
            # Replay the planner's cached response for the shard root
            # (zero cost), exactly as the sequential crawl would have.
            self.client._store_local(shard.query, shard.seed)
        if shard.algo == _BINARY:
            solve_binary(self, shard.query)
        else:
            solve_numeric(
                self,
                shard.query,
                list(shard.dims),
                threshold_divisor=shard.threshold_divisor,
            )


class _RegionPlanner:
    """Captures a trunk crawl as segments interleaved with shard slots.

    Drives one crawler instance (the *trunk crawler*) and reads its
    progress/row accumulators at every boundary: a hybrid leaf deferral
    or a frontier exploration closes the current segment.  Segments
    store delta progress, so the final plan can be spliced back
    together in canonical order no matter when each piece actually ran.
    """

    def __init__(self, crawler: Crawler, max_shards: int):
        if max_shards < 1:
            raise SchemaError(f"max_shards must be positive, got {max_shards}")
        self._crawler = crawler
        self._max_shards = max_shards
        self._events: list[TrunkSegment | _TaskNode] = []
        self._progress_mark = 0
        self._row_mark = 0
        self._state = (0, 0)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _capture_segment(self) -> TrunkSegment:
        """Close the current trunk segment (possibly empty)."""
        crawler = self._crawler
        q0, t0 = self._state
        progress_mark, row_mark = self._progress_mark, self._row_mark
        points = tuple(
            ProgressPoint(p.queries - q0, p.tuples - t0)
            for p in crawler._progress[progress_mark:]
        )
        rows = tuple(crawler._confirmed[row_mark:])
        q1 = crawler._queries_this_crawl
        t1 = len(crawler._confirmed)
        segment = TrunkSegment(rows=rows, progress=points, cost=q1 - q0)
        self._progress_mark = len(crawler._progress)
        self._row_mark = len(crawler._confirmed)
        self._state = (q1, t1)
        return segment

    def defer(self, leaf_query: Query, dims: Sequence[int]) -> None:
        """Hybrid's ``defer_numeric_leaf`` hook: park a leaf sub-crawl."""
        crawler = self._crawler
        self._events.append(self._capture_segment())
        self._events.append(
            _TaskNode(
                _PendingTask(
                    query=leaf_query,
                    dims=tuple(dims),
                    algo=_RANK,
                    threshold_divisor=getattr(
                        crawler, "_threshold_divisor", 4
                    ),
                    seed=crawler.client.peek(leaf_query),
                    phase=crawler.client.stats.current_phase,
                )
            )
        )

    def seed_task(self, task: "_PendingTask") -> None:
        """Plant the root task of a stack-driven crawler (rank/binary)."""
        self._events.append(_TaskNode(task))

    # ------------------------------------------------------------------
    # Growth: split pending tasks until the shard target is met
    # ------------------------------------------------------------------
    def grow(self) -> None:
        """Expand pending subtrees until ``max_shards`` are pending.

        Breadth-first over the pending tasks: each step runs the
        algorithm's own shrink loop on one subtree root just far enough
        to split it (or drain it, when it turns out tiny), then moves
        on to the next task, so the final shards partition the region's
        remaining work into comparably sized subtrees instead of one
        heavy spine.  Every query issued here is one the sequential
        crawl would have issued anyway -- growth only *reorders* the
        trunk's work, and the positional segment capture puts every
        piece back at its canonical place.
        """
        # Everything the trunk crawl produced after its last deferral
        # belongs *after* every shard in canonical order; hold it aside
        # so exploration segments are captured cleanly.
        tail = self._capture_segment()
        worklist: deque[_TaskNode] = deque(
            item for item in self._events if isinstance(item, _TaskNode)
        )
        count = len(worklist)
        while worklist and count < self._max_shards:
            node = worklist.popleft()
            children = self._explore(node.task, min_pending=2)
            node.segment = self._capture_segment()
            node.children = [_TaskNode(child) for child in children]
            count += len(node.children) - 1
            worklist.extend(node.children)
        self._events.append(tail)

    def _explore(
        self, task: "_PendingTask", min_pending: int
    ) -> list["_PendingTask"]:
        crawler = self._crawler
        if task.phase is not None:
            crawler.client.begin_phase(task.phase)
        try:
            if task.algo == _BINARY:
                pending = explore_binary(
                    crawler, task.query, min_pending=min_pending
                )
            else:
                pending = explore_numeric(
                    crawler,
                    task.query,
                    list(task.dims),
                    threshold_divisor=task.threshold_divisor,
                    min_pending=min_pending,
                )
        finally:
            if task.phase is not None:
                crawler.client.end_phase()
        return [
            _PendingTask(
                query=query,
                dims=task.dims,
                algo=task.algo,
                threshold_divisor=task.threshold_divisor,
                # A split-time sibling battery may have prefetched a
                # frontier root before the drain loop cut off; carry
                # the trunk's cached response so the shard replays it
                # at zero cost instead of re-charging it.
                seed=crawler.client.peek(query),
                phase=task.phase,
            )
            for query in pending
        ]

    # ------------------------------------------------------------------
    # Finalise
    # ------------------------------------------------------------------
    def plan(self, region: Query) -> RegionShardPlan:
        # Any points produced since the last capture belong to the tail.
        trailing = self._capture_segment()
        flat: list[TrunkSegment | _PendingTask] = []
        for item in self._events:
            _flatten_event(item, flat)
        flat.append(trailing)
        segments: list[TrunkSegment] = []
        shards: list[SubtreeShard] = []
        accumulator = _EMPTY_SEGMENT
        for item in flat:
            if isinstance(item, _PendingTask):
                segments.append(accumulator)
                accumulator = _EMPTY_SEGMENT
                shards.append(item.as_shard(len(shards)))
            else:
                accumulator = _concat_segments(accumulator, item)
        segments.append(accumulator)
        return RegionShardPlan(
            region=region,
            algorithm=self._crawler.name,
            segments=tuple(segments),
            shards=tuple(shards),
            trunk_phase_costs=dict(
                self._crawler.client.stats.phase_costs
            ),
        )


class _TaskNode:
    """A pending task and, once explored, its replacement subtree.

    ``children is None`` marks an unexplored leaf (it becomes a shard);
    an explored node contributes its exploration segment followed by
    its children at its canonical position.
    """

    __slots__ = ("task", "segment", "children")

    def __init__(self, task: "_PendingTask"):
        self.task = task
        self.segment: TrunkSegment | None = None
        self.children: list["_TaskNode"] | None = None


def _flatten_event(
    item: "TrunkSegment | _TaskNode",
    out: "list[TrunkSegment | _PendingTask]",
) -> None:
    """Expand explored nodes into (segment, children...) in place-order."""
    if isinstance(item, TrunkSegment):
        out.append(item)
        return
    if item.children is None:
        out.append(item.task)
        return
    assert item.segment is not None
    out.append(item.segment)
    for child in item.children:
        _flatten_event(child, out)


@dataclass(frozen=True)
class _PendingTask:
    """A deferred subtree during planning (becomes a shard if kept)."""

    query: Query
    dims: tuple[int, ...]
    algo: str
    threshold_divisor: int
    seed: QueryResponse | None
    phase: str | None

    def as_shard(self, order: int) -> SubtreeShard:
        return SubtreeShard(
            order=order,
            query=self.query,
            dims=self.dims,
            algo=self.algo,
            threshold_divisor=self.threshold_divisor,
            seed=self.seed,
            phase=self.phase,
        )


def _resolve_crawler_class(crawler_factory) -> type | None:
    """The concrete crawler class behind a factory, if recognisable."""
    target = crawler_factory
    while isinstance(target, functools.partial):
        target = target.func
    return target if isinstance(target, type) else None


def presplit_region(
    source,
    region: Query,
    *,
    crawler_factory: Callable[..., Crawler] = Hybrid,
    max_shards: int = DEFAULT_MAX_SHARDS,
    listener: Callable[[ProgressPoint], None] | None = None,
) -> RegionShardPlan:
    """Decompose one region's crawl into a trunk and subtree shards.

    Runs the region's crawler (built by ``crawler_factory`` over the
    region's :class:`~repro.crawl.partition.SubspaceView`, exactly as
    :func:`~repro.crawl.partition._crawl_region` would) just far enough
    to expose a frontier of pending subtrees.  ``max_shards`` is the
    *splitting target*: subtrees are split until at least that many are
    pending (see :data:`DEFAULT_MAX_SHARDS` for the exact bounds -- a
    frontier that naturally holds more subtrees is kept whole, and the
    final split may overshoot by up to two).  The plan is
    deterministic, and splicing the shard results back with
    :func:`merge_region_shards` reproduces the unsharded region crawl
    byte for byte.

    Unsplittable crawler factories (anything that is not ``Hybrid``,
    ``RankShrink`` or ``BinaryShrink``) degrade gracefully: the region
    is crawled whole and the returned plan carries zero shards.
    """
    cls = _resolve_crawler_class(crawler_factory)
    if cls is not None and issubclass(cls, Hybrid):
        crawler = crawler_factory(SubspaceView(source, region))
        if listener is not None:
            crawler.add_progress_listener(listener)
        planner = _RegionPlanner(crawler, max_shards)
        crawler.defer_numeric_leaf = planner.defer
        crawler.crawl()
        planner.grow()
        return planner.plan(region)
    if cls is not None and issubclass(cls, (RankShrink, BinaryShrink)):
        crawler = crawler_factory(SubspaceView(source, region))
        if listener is not None:
            crawler.add_progress_listener(listener)
        planner = _RegionPlanner(crawler, max_shards)
        if issubclass(cls, BinaryShrink):
            planner.seed_task(
                _PendingTask(
                    query=crawler.frontier_entry(),
                    dims=(),
                    algo=_BINARY,
                    threshold_divisor=4,
                    seed=None,
                    phase=None,
                )
            )
        else:
            root, dims = crawler.frontier_entry()
            planner.seed_task(
                _PendingTask(
                    query=root,
                    dims=dims,
                    algo=_RANK,
                    threshold_divisor=getattr(
                        crawler, "_threshold_divisor", 4
                    ),
                    seed=None,
                    phase=None,
                )
            )
        planner.grow()
        return planner.plan(region)
    result = _crawl_region(
        source, region, crawler_factory=crawler_factory, listener=listener
    )
    return RegionShardPlan(
        region=region,
        algorithm=result.algorithm,
        segments=(
            TrunkSegment(
                rows=tuple(result.rows),
                progress=tuple(result.progress),
                cost=result.cost,
            ),
        ),
        shards=(),
        trunk_phase_costs=dict(result.phase_costs),
    )


def crawl_shard(
    source,
    region: Query,
    shard: SubtreeShard,
    *,
    listener: Callable[[ProgressPoint], None] | None = None,
) -> CrawlResult:
    """Crawl one subtree shard against its region's session source."""
    crawler = SubtreeCrawler(SubspaceView(source, region), shard)
    if listener is not None:
        crawler.add_progress_listener(listener)
    return crawler.crawl()


def merge_region_shards(
    plan: RegionShardPlan, shard_results: Sequence[CrawlResult]
) -> CrawlResult:
    """Splice shard results into the trunk at their canonical positions.

    ``shard_results[i]`` must be the result of ``plan.shards[i]`` --
    *completion* order is irrelevant, only the canonical order of the
    plan matters, which is why any stealing schedule merges to the same
    bytes.  The returned :class:`~repro.crawl.base.CrawlResult` is
    field-for-field identical to what the unsharded region crawl would
    have produced.
    """
    if len(shard_results) != len(plan.shards):
        raise AlgorithmInvariantError(
            f"plan has {len(plan.shards)} shards but "
            f"{len(shard_results)} results were supplied"
        )
    prof = profiling.active()
    if prof is not None:
        start = profiling.clock()
        try:
            return _merge_region_shards(plan, shard_results)
        finally:
            prof.record("runtime.merge", profiling.clock() - start)
    return _merge_region_shards(plan, shard_results)


def _merge_region_shards(
    plan: RegionShardPlan, shard_results: Sequence[CrawlResult]
) -> CrawlResult:
    rows: list[Row] = []
    progress: list[ProgressPoint] = [ProgressPoint(0, 0)]
    base_queries = 0
    base_tuples = 0

    def emit(point: ProgressPoint) -> None:
        if progress[-1] != point:
            progress.append(point)

    for i, segment in enumerate(plan.segments):
        for p in segment.progress:
            emit(
                ProgressPoint(
                    base_queries + p.queries, base_tuples + p.tuples
                )
            )
        rows.extend(segment.rows)
        base_queries += segment.cost
        base_tuples += len(segment.rows)
        if i < len(shard_results):
            result = shard_results[i]
            for p in result.progress:
                emit(
                    ProgressPoint(
                        base_queries + p.queries, base_tuples + p.tuples
                    )
                )
            rows.extend(result.rows)
            base_queries += result.cost
            base_tuples += len(result.rows)
    phase_costs = dict(plan.trunk_phase_costs)
    for shard, result in zip(plan.shards, shard_results):
        if shard.phase is not None and result.cost:
            phase_costs[shard.phase] = (
                phase_costs.get(shard.phase, 0) + result.cost
            )
        for phase, cost in result.phase_costs.items():
            phase_costs[phase] = phase_costs.get(phase, 0) + cost
    return CrawlResult(
        algorithm=plan.algorithm,
        space=plan.region.space,
        rows=rows,
        cost=base_queries,
        complete=True,
        progress=progress,
        phase_costs=phase_costs,
    )
