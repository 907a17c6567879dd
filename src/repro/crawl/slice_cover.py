"""``slice-cover`` and ``lazy-slice-cover`` (paper Section 3.2).

A *slice query* pins exactly one categorical attribute, ``Ai = c``, and
wildcards everything else; there are only ``sum_i Ui`` of them.  The
algorithm:

1. **Slice table.**  Eager mode runs every slice query up front and
   remembers each response (a resolved slice's full result, or just an
   overflow bit).  Lazy mode -- the paper's practical winner -- issues a
   slice query the first time its answer is needed.  The traversal's
   lookup table holds one entry per value, filled from the response
   cache of :class:`~repro.server.client.CachingClient` when it can be.
2. **Extended DFS.**  Walk the data space tree, but before descending
   into a child ``v`` (which refines its parent with ``A(l+1) = c``),
   consult the slice ``A(l+1) = c``: if that slice *resolved*, the
   child's entire subtree is answered locally by the slice's rows with
   ``v``'s prefix -- no query issued, no descent.  Only children whose
   slice overflowed are visited, and Lemma 4 bounds their number by
   ``(n/k) * min(Ui, n/k)`` per level.

Total cost (Lemma 4): ``U1`` when ``d = 1``; otherwise at most
``sum Ui + (n/k) * sum min(Ui, n/k)`` -- optimal by Theorem 4.

The extended-DFS core is shared with the ``hybrid`` algorithm (Section
5), which replaces the categorical leaf handler with a rank-shrink
sub-crawl over the numeric suffix.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.crawl.base import Crawler
from repro.dataspace.space import SpaceKind
from repro.exceptions import InfeasibleCrawlError, SchemaError
from repro.query.query import Query, slice_query
from repro.server.response import QueryResponse, Row

__all__ = ["SliceCover", "LazySliceCover"]

#: Handler invoked on a categorical-leaf query (all ``cat`` attributes
#: pinned) whose slice overflowed; must extract that subspace in full.
LeafHandler = Callable[[Query], None]


def preprocess_slice_table(crawler: Crawler) -> None:
    """Eagerly run every slice query (slice-cover's first phase).

    Each attribute's slices are siblings by construction, so they go
    out as one battery -- the identical queries in the identical order
    as the plain loop, sharing one engine context per attribute.
    """
    crawler.client.begin_phase("slice-table")
    try:
        for index in range(crawler.space.cat):
            attr = crawler.space[index]
            assert attr.domain_size is not None
            crawler._run_battery(
                [
                    slice_query(crawler.space, index, value)
                    for value in range(1, attr.domain_size + 1)
                ]
            )
    finally:
        crawler.client.end_phase()


def categorical_point_handler(crawler: Crawler) -> LeafHandler:
    """Leaf handler for purely categorical spaces: issue the point query.

    A point of the data space can hold at most ``k`` tuples in any
    solvable instance, so an overflow here proves infeasibility.
    """

    def handle(leaf_query: Query) -> None:
        response = crawler._run_query(leaf_query)
        if response.overflow:
            raise InfeasibleCrawlError(
                f"point query {leaf_query} overflowed: more than "
                f"k={crawler.k} duplicates at one point"
            )
        crawler._confirm(response.rows)

    return handle


def _slice_level(
    crawler: Crawler, level: int, lazy: bool
) -> list[QueryResponse]:
    """The slice-table entries ``A_level = 1 .. U``, at ``value - 1``.

    Filled once per level by the traversal that owns the table: cached
    entries (eager preprocessing, a seeded or resumed cache) are peeked.
    Every child's slice gets consulted, so lazy mode issues the rest up
    front as one battery in value order -- the queries first use would
    issue -- and eager mode refuses to.
    """
    full = Query.full(crawler.space)
    size = crawler.space[level].domain_size
    assert size is not None
    queries = [full.with_value(level, v) for v in range(1, size + 1)]
    entries = [crawler.client.peek(query) for query in queries]
    missing = [i for i, entry in enumerate(entries) if entry is None]
    if missing and not lazy:
        raise SchemaError(
            "slice table consulted before preprocessing; "
            "run preprocess_slice_table first"
        )
    issued = crawler._run_battery([queries[i] for i in missing])
    for i, response in zip(missing, issued):
        entries[i] = response
    return entries


def extended_dfs(
    crawler: Crawler,
    node_query: Query,
    level: int,
    *,
    lazy: bool,
    leaf_handler: LeafHandler,
) -> None:
    """Process the children of an (assumed overflowing) tree node.

    ``level`` is the node's depth: attributes ``A1 .. A_level`` are
    pinned on ``node_query``.  For each child (refining ``A(level+1)``):

    * slice resolved  -> confirm the slice's rows under the node's
      pinned prefix, grouped by prefix once per slice;
    * slice overflowed -> visit the child: hand categorical leaves to
      ``leaf_handler``, issue inner nodes' queries and recurse on
      overflow.
    """
    table: dict[int, list[QueryResponse]] = {}
    groups: dict[tuple[int, int], dict[Row, list[Row]]] = {}
    last = crawler.space.cat - 1

    def visit(node_query: Query, prefix: Row) -> None:
        level = len(prefix)
        if level not in table:
            table[level] = _slice_level(crawler, level, lazy)
        for value, entry in enumerate(table[level], start=1):
            if entry.resolved:
                rows = entry.rows  # at the root, every row is the child's
                if level:
                    by_prefix = groups.get((level, value))
                    if by_prefix is None:
                        by_prefix = groups[level, value] = {}
                        for row in rows:
                            by_prefix.setdefault(row[:level], []).append(row)
                    rows = by_prefix.get(prefix, ())
                if rows:
                    crawler._confirm(rows)
                continue
            child_query = node_query.with_value(level, value)
            if level == last:
                leaf_handler(child_query)
                continue
            child_response = crawler._run_query(child_query)
            if child_response.resolved:
                crawler._confirm(child_response.rows)
            else:
                visit(child_query, prefix + (value,))

    visit(node_query, tuple(p.value for p in node_query.predicates[:level]))


class SliceCover(Crawler):
    """Eager slice-cover: full slice table first, then extended DFS.

    The all-wildcard root query is never issued: once the slice table is
    known, the root's processing needs only the table (the paper's
    Section 3.2 example issues no query at the root either).
    """

    name = "slice-cover"

    def __init__(
        self,
        source,
        *,
        max_queries: int | None = None,
        batteries: bool = True,
    ):
        super().__init__(source, max_queries=max_queries, batteries=batteries)
        if self.space.kind is not SpaceKind.CATEGORICAL:
            raise SchemaError(
                "slice-cover handles purely categorical spaces; use Hybrid "
                f"for {self.space.kind.value} spaces"
            )

    def _execute(self) -> None:
        preprocess_slice_table(self)
        self.client.begin_phase("traversal")
        try:
            extended_dfs(
                self,
                Query.full(self.space),
                0,
                lazy=False,
                leaf_handler=categorical_point_handler(self),
            )
        finally:
            self.client.end_phase()


class LazySliceCover(Crawler):
    """Lazy slice-cover: slices are fetched on first use (Section 3.2).

    Shares slice-cover's worst-case bound, but on practical data skips
    most of the slice table -- the paper's clear experimental winner
    (Figure 11).  Faithful to extended-DFS, the root query is issued
    (nothing is known before it).
    """

    name = "lazy-slice-cover"

    def __init__(
        self,
        source,
        *,
        max_queries: int | None = None,
        batteries: bool = True,
    ):
        super().__init__(source, max_queries=max_queries, batteries=batteries)
        if self.space.kind is not SpaceKind.CATEGORICAL:
            raise SchemaError(
                "lazy-slice-cover handles purely categorical spaces; use "
                f"Hybrid for {self.space.kind.value} spaces"
            )

    def _execute(self) -> None:
        root = Query.full(self.space)
        response = self._run_query(root)
        if response.resolved:
            self._confirm(response.rows)
            return
        extended_dfs(
            self,
            root,
            0,
            lazy=True,
            leaf_handler=categorical_point_handler(self),
        )
