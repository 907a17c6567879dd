"""Partitioned crawling: split the data space across crawl sessions.

The paper's cost metric is motivated by per-IP query quotas ("most
systems have a control on how many queries can be submitted by the same
IP address within a period of time").  A deployment that owns several
network identities therefore wants to *partition* the data space into
disjoint regions, crawl each region through a separate session (its own
connection, budget and rate limit), and merge the results.  This module
provides the three pieces:

* :func:`partition_space` -- a :class:`PartitionPlan`: pairwise
  disjoint region queries covering the whole space, bundled into one
  work list per session;
* :class:`SubspaceView` -- a :class:`~repro.server.interface.QueryInterface`
  that confines any crawler to one region by intersecting every query
  it issues with the region (contradictory queries are answered empty
  locally, at zero cost);
* :func:`crawl_partitioned` -- the one way to run a plan: one crawler
  per region, on the backend a :class:`~repro.crawl.spec.CrawlSpec`
  names (the sequential reference by default; threads or processes
  for wall-clock concurrency, also exposed as ``python -m repro.crawl
  ... --workers N``), merged into a single result.

Every backend honours the same **determinism contract**: the merged
rows are ordered by (session index, region index, extraction order),
per-region results and the summed cost are identical, and the merged
progress curve is the canonical :func:`~repro.crawl.base.merge_progress`
interleaving of the per-session curves -- never a function of thread
scheduling.

Correctness is compositional: regions are disjoint and covering, each
region's crawl extracts exactly ``region ∩ D`` (the per-crawler
guarantee), so the merged bag is exactly ``D``.  The merged *cost* is
the sum of per-session costs -- typically a little above a single
session's cost (each session re-pays shared-prefix queries), which is
the price of parallelism and is measured in the tests.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.crawl.base import (
    CrawlResult,
    Crawler,
    ProgressPoint,
    concat_progress,
    merge_progress,
)
from repro.crawl.spec import CrawlSpec
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError, UnboundedDomainError
from repro.query.query import Query
from repro.server.response import QueryResponse, Row

__all__ = [
    "DEFAULT_MAX_REGIONS",
    "PartitionPlan",
    "partition_space",
    "SubspaceView",
    "PartitionedResult",
    "crawl_partitioned",
]

#: Default ceiling on the number of regions a plan may hold.  Large
#: enough that work stealing always has plenty to move around, small
#: enough that an NSF-like schema (a categorical attribute with tens of
#: thousands of values) no longer explodes into one single-point region
#: per value.
DEFAULT_MAX_REGIONS = 512


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint region queries, bundled into per-session work lists.

    ``bundles[i]`` is the tuple of region queries session ``i`` crawls.
    Every region is a restriction of the full space on one attribute,
    and across all bundles the regions are pairwise disjoint and cover
    the space.

    Examples
    --------
    >>> from repro import DataSpace, partition_space
    >>> space = DataSpace.mixed([("make", 5)], ["price"])
    >>> plan = partition_space(space, 2)
    >>> plan.sessions, len(plan.regions)
    (2, 5)
    >>> [len(bundle) for bundle in plan.bundles]
    [3, 2]
    >>> plan.covers((3, 17_000))  # every point is in exactly one region
    1
    """

    space: DataSpace
    attribute: int
    bundles: tuple[tuple[Query, ...], ...]

    @property
    def sessions(self) -> int:
        """Number of work lists (sessions) in the plan."""
        return len(self.bundles)

    @property
    def regions(self) -> tuple[Query, ...]:
        """All region queries, flattened."""
        return tuple(q for bundle in self.bundles for q in bundle)

    def covers(self, point: Sequence[int]) -> int:
        """How many regions contain ``point`` (1 iff the plan is valid)."""
        return sum(1 for region in self.regions if region.matches(point))


def partition_space(
    space: DataSpace,
    sessions: int,
    *,
    attribute: int | None = None,
    max_regions: int | None = None,
) -> PartitionPlan:
    """Partition the space on one attribute into ``sessions`` bundles.

    Parameters
    ----------
    space:
        The data space to partition.
    sessions:
        Number of crawl sessions (work lists) to produce.
    attribute:
        The attribute to partition on.  When omitted, the planner is
        *cost-aware* (see Notes); an explicit attribute is always
        honoured, even when it busts ``max_regions``.
    max_regions:
        Ceiling on the region count the default attribute choice may
        produce (``None`` means :data:`DEFAULT_MAX_REGIONS`).  A
        categorical attribute necessarily yields one equality region
        per domain value -- the top-k interface has no way to query a
        *set* of categorical values -- so the cap steers the planner
        away from huge domains rather than merging their values.

    Notes
    -----
    The default attribute is chosen by estimated scheduling cost, in
    this order:

    1. the categorical attribute with the **largest domain that still
       fits** (``sessions <= domain <= max_regions``) -- many small
       disjoint regions balance best and give work stealing the most
       to move around;
    2. otherwise the first bounded numeric attribute wide enough for
       ``sessions`` intervals -- a numeric split always yields exactly
       ``sessions`` regions, so it can never explode;
    3. otherwise the categorical attribute with the **smallest** domain
       still holding ``sessions`` values -- region count above the cap,
       but the least oversized choice available.

    Region shapes:

    * a categorical attribute yields one region per domain value
      (``A_i = c``), dealt round-robin into the bundles -- ``sessions``
      may not exceed the domain size;
    * a numeric attribute yields one contiguous interval per session,
      the two outermost extended to infinity so coverage never depends
      on the advisory bounds.

    Raises
    ------
    SchemaError
        For invalid ``sessions``/``max_regions`` or an attribute that
        cannot be partitioned.
    UnboundedDomainError
        If a numeric partition attribute has no finite bounds to place
        the interior split points.
    """
    if sessions < 1:
        raise SchemaError(f"sessions must be positive, got {sessions}")
    if max_regions is None:
        max_regions = DEFAULT_MAX_REGIONS
    if max_regions < sessions:
        raise SchemaError(
            f"max_regions={max_regions} cannot hold {sessions} sessions"
        )
    if attribute is None:
        attribute = _default_partition_attribute(space, sessions, max_regions)
    attr = space[attribute]
    root = Query.full(space)

    if attr.is_categorical:
        assert attr.domain_size is not None
        if sessions > attr.domain_size:
            raise SchemaError(
                f"cannot split {attr.domain_size} values of {attr.name!r} "
                f"across {sessions} sessions"
            )
        bundles: list[list[Query]] = [[] for _ in range(sessions)]
        for value in range(1, attr.domain_size + 1):
            bundles[(value - 1) % sessions].append(
                root.with_value(attribute, value)
            )
        return PartitionPlan(
            space, attribute, tuple(tuple(b) for b in bundles)
        )

    if attr.lo is None or attr.hi is None:
        raise UnboundedDomainError(
            f"numeric attribute {attr.name!r} needs finite bounds to be "
            "partitioned"
        )
    width = attr.hi - attr.lo + 1
    if sessions > width:
        raise SchemaError(
            f"cannot split {width} values of {attr.name!r} across "
            f"{sessions} sessions"
        )
    edges = [attr.lo + (width * i) // sessions for i in range(1, sessions)]
    intervals: list[tuple[int | None, int | None]] = []
    lower: int | None = None
    for edge in edges:
        intervals.append((lower, edge - 1))
        lower = edge
    intervals.append((lower, None))
    regions = tuple(root.with_range(attribute, lo, hi) for lo, hi in intervals)
    return PartitionPlan(space, attribute, tuple((r,) for r in regions))


def _default_partition_attribute(
    space: DataSpace, sessions: int, max_regions: int
) -> int:
    """Cost-aware default choice; heuristic documented on
    :func:`partition_space`."""
    fitting: int | None = None
    fitting_size = 0
    oversized: int | None = None
    oversized_size = 0
    for i in range(space.cat):
        size = space[i].domain_size
        assert size is not None
        if size <= 1 or size < sessions:
            continue
        if size <= max_regions:
            if size > fitting_size:
                fitting, fitting_size = i, size
        elif oversized is None or size < oversized_size:
            oversized, oversized_size = i, size
    if fitting is not None:
        return fitting
    for i in range(space.cat, space.dimensionality):
        attr = space[i]
        if not attr.is_bounded:
            continue
        if attr.hi - attr.lo + 1 >= sessions:
            return i
    if oversized is not None:
        return oversized
    raise SchemaError(
        "no partitionable attribute: need a categorical domain larger "
        "than 1 or a bounded numeric attribute wide enough for "
        f"{sessions} sessions"
    )


class SubspaceView:
    """Confine a query source to one region of its data space.

    Every query is intersected with the region before being forwarded;
    a contradictory query (empty intersection) is answered locally with
    an empty resolved response at zero cost.  A crawler pointed at the
    view therefore extracts exactly ``region ∩ D`` while believing it
    crawled the full space.
    """

    def __init__(self, source, region: Query):
        if region.space != source.space:
            raise SchemaError("region was built against a different space")
        self._source = source
        self._region = region

    @property
    def space(self) -> DataSpace:
        """The (full) data space; the restriction is transparent."""
        return self._source.space

    @property
    def k(self) -> int:
        """The underlying retrieval limit."""
        return self._source.k

    @property
    def region(self) -> Query:
        """The confining region."""
        return self._region

    def run(self, query: Query) -> QueryResponse:
        """Answer ``query ∧ region``, locally when contradictory."""
        merged = query.intersect(self._region)
        if merged is None:
            return QueryResponse((), overflow=False)
        return self._source.run(merged)

    def batch_context(self):
        """Delegate the batch seam, so region crawls share engine work.

        A view is transparent to batching exactly as it is to queries:
        when the wrapped source exposes
        :meth:`~repro.server.server.TopKServer.batch_context`, a
        battery against the view evaluates through the source's shared
        context; otherwise the epoch is a no-op (sources without the
        seam simply answer query by query).
        """
        inner = getattr(self._source, "batch_context", None)
        if inner is None:
            return nullcontext()
        return inner()

    def __repr__(self) -> str:
        return f"SubspaceView({self._region})"


@dataclass
class PartitionedResult:
    """Merged outcome of a partitioned crawl.

    ``results[i]`` lists session ``i``'s per-region crawl results in
    work-list order; the flattened bag and summed cost describe the
    whole operation.  ``progress`` is the deterministic
    :func:`~repro.crawl.base.merge_progress` interleaving of the
    per-session curves (identical whether the sessions ran sequentially
    or on a thread pool).
    """

    plan: PartitionPlan
    results: tuple[tuple[CrawlResult, ...], ...]
    rows: list[Row]
    cost: int
    complete: bool
    progress: list[ProgressPoint] = field(default_factory=list)

    @property
    def tuples_extracted(self) -> int:
        """Size of the merged bag."""
        return len(self.rows)

    def session_costs(self) -> list[int]:
        """Per-session query totals (each session = one identity/quota)."""
        return [sum(r.cost for r in session) for session in self.results]

    def session_progress(self, session: int) -> list[ProgressPoint]:
        """Session ``session``'s progress curve across its whole bundle."""
        return concat_progress([r.progress for r in self.results[session]])

    def as_crawl_result(self, algorithm: str = "partitioned") -> CrawlResult:
        """The merged operation flattened into one :class:`CrawlResult`.

        Lets partition-agnostic tooling (verification, progress
        reporting, CSV export, the CLI) consume a partitioned crawl
        through the single-crawl interface.
        """
        phase_costs: dict[str, int] = {}
        for session in self.results:
            for result in session:
                for phase, cost in result.phase_costs.items():
                    phase_costs[phase] = phase_costs.get(phase, 0) + cost
        return CrawlResult(
            algorithm=algorithm,
            space=self.plan.space,
            rows=list(self.rows),
            cost=self.cost,
            complete=self.complete,
            progress=list(self.progress),
            phase_costs=phase_costs,
        )

    def __repr__(self) -> str:
        state = "complete" if self.complete else "partial"
        return (
            f"PartitionedResult({self.plan.sessions} sessions, "
            f"{len(self.rows)} tuples, {self.cost} queries, {state})"
        )


def crawl_partitioned(
    sources: Sequence,
    plan: PartitionPlan,
    spec: CrawlSpec | None = None,
) -> PartitionedResult:
    """Crawl every region of ``plan``, one source per session.

    Runs ``EXECUTORS[spec.executor or "sequential"]`` (see
    :mod:`repro.crawl.executors`) over the plan.  Whichever backend
    runs, the merged result is byte-identical to the sequential
    reference's; only failures differ: the sequential backend stops at
    the first failing region, the thread and process backends drain
    every session and raise the failure of the lowest plan position.

    Parameters
    ----------
    sources:
        One query source per bundle (e.g. servers constructed with
        separate :class:`~repro.server.limits.DailyRateLimit` objects,
        modelling distinct IPs).  Must match ``plan.sessions``.
    plan:
        The partition plan.
    spec:
        The whole configuration, a :class:`~repro.crawl.spec.CrawlSpec`
        (default: a default spec -- the sequential reference with the
        :class:`~repro.crawl.hybrid.Hybrid` crawler).  ``spec.executor`` and
        ``spec.max_workers`` pick the backend and its worker count;
        the other fields configure the run.

    Raises
    ------
    SchemaError
        If ``sources`` does not match ``plan.sessions``.
    QueryBudgetExhausted
        When a limit fires: a partitioned crawl has no partial mode.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import (
    ...     DataSpace, Dataset, TopKServer,
    ...     crawl_partitioned, partition_space,
    ... )
    >>> space = DataSpace.mixed([("make", 4)], ["price"])
    >>> rng = np.random.default_rng(0)
    >>> rows = np.column_stack(
    ...     [rng.integers(1, 5, 100), rng.integers(0, 1000, 100)]
    ... )
    >>> dataset = Dataset(space, rows.astype(np.int64))
    >>> plan = partition_space(space, 2)
    >>> sources = [TopKServer(dataset, k=16) for _ in range(2)]
    >>> merged = crawl_partitioned(sources, plan)
    >>> merged.complete
    True
    >>> sorted(merged.rows) == sorted(dataset.iter_rows())
    True

    The same plan on two threads, stealing regions off the slowest
    session, merges to the same bytes:

    >>> from repro import CrawlSpec
    >>> spec = CrawlSpec(executor="thread", max_workers=2)
    >>> sources = [TopKServer(dataset, k=16) for _ in range(2)]
    >>> crawl_partitioned(sources, plan, spec).rows == merged.rows
    True
    """
    # Late import: the executors import this module at their top.
    from repro.crawl.executors import EXECUTORS

    spec = spec if spec is not None else CrawlSpec()
    return EXECUTORS[spec.executor or "sequential"]().run(sources, plan, spec)


# ----------------------------------------------------------------------
# Shared machinery between the executors (see repro.crawl.executors)
# ----------------------------------------------------------------------
def _check_sources(sources: Sequence, plan: PartitionPlan) -> None:
    if len(sources) != plan.sessions:
        raise SchemaError(
            f"plan has {plan.sessions} sessions but {len(sources)} "
            "sources were supplied"
        )


def _crawl_region(
    source,
    region: Query,
    *,
    crawler_factory: Callable[..., Crawler],
    listener: Callable[[ProgressPoint], None] | None = None,
) -> CrawlResult:
    """Crawl one region of one session: the executors' unit of work.

    A fresh crawler (and therefore a fresh response cache) is built per
    region, so the region's :class:`~repro.crawl.base.CrawlResult` is a
    pure function of (source, region) -- independent of which worker
    crawls it, and of when.  That independence is what lets the
    work-stealing executors move regions between workers while keeping
    the merged result byte-identical to the sequential executor's.
    """
    crawler = crawler_factory(SubspaceView(source, region))
    if listener is not None:
        crawler.add_progress_listener(listener)
    return crawler.crawl()


def _merge_session_results(
    plan: PartitionPlan,
    session_results: Sequence[tuple[CrawlResult, ...]],
) -> PartitionedResult:
    """Deterministic merge: rows by (session, region) index, costs summed,
    progress curves interleaved canonically."""
    all_rows: list[Row] = [
        row
        for session in session_results
        for result in session
        for row in result.rows
    ]
    cost = sum(r.cost for session in session_results for r in session)
    complete = all(r.complete for session in session_results for r in session)
    progress = merge_progress(
        [
            concat_progress([r.progress for r in session])
            for session in session_results
        ]
    )
    return PartitionedResult(
        plan=plan,
        results=tuple(session_results),
        rows=all_rows,
        cost=cost,
        complete=complete,
        progress=progress,
    )
