"""``DFS``: the categorical baseline (Section 3.1; outlined in [15]).

The categorical data space is arranged as a trie -- the *data space
tree* ``T``: a node at level ``l`` pins attributes ``A1 .. Al`` to
constants and wildcards the rest; its children refine ``A(l+1)`` to each
of its ``U(l+1)`` values.  DFS simply walks ``T`` depth-first, issuing
every visited node's query, and prunes a subtree as soon as its query
resolves (the response already contains every tuple below).

No attractive worst-case bound holds; slice-cover (Section 3.2) fixes
that by consulting precomputed *slice queries* before descending.
"""

from __future__ import annotations

from repro.crawl.base import Crawler
from repro.dataspace.space import SpaceKind
from repro.exceptions import InfeasibleCrawlError, SchemaError
from repro.query.query import Query

__all__ = ["DepthFirstSearch"]


class DepthFirstSearch(Crawler):
    """Baseline crawler for purely categorical spaces."""

    name = "DFS"

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
                "DFS handles purely categorical spaces; got "
                f"{self.space.kind.value}"
            )

    def _execute(self) -> None:
        d = self.space.dimensionality
        # Stack of (node query, level); children are pushed in reverse
        # domain order so values are explored in ascending order.
        stack: list[tuple[Query, int]] = [(Query.full(self.space), 0)]
        while stack:
            query, level = stack.pop()
            if self._batteries and level + 1 == d:
                # A level-(d-1) node query joins its children's battery
                # epoch (the nested epoch joins this one): the battery's
                # shared base is exactly the node's conjunction, so the
                # engine context computes it once.  The node still goes
                # first, so the issue order is unchanged.
                with self._client.batch():
                    self._visit(query, level, stack)
            else:
                self._visit(query, level, stack)

    def _visit(self, query: Query, level: int, stack: list) -> None:
        """Issue one node query; confirm, descend or fire its leaves."""
        d = self.space.dimensionality
        response = self._run_query(query)
        if response.resolved:
            self._confirm(response.rows)
            return
        if level == d:
            raise InfeasibleCrawlError(
                f"point query {query} overflowed: more than k={self.k} "
                "duplicates at one point"
            )
        attr = self.space[level]
        assert attr.domain_size is not None
        if level + 1 == d:
            # Point-level children push nothing back, so the sequential
            # walk issues them consecutively anyway -- a sibling battery
            # preserves the depth-first issue order exactly while
            # sharing one engine context.
            children = [
                query.with_value(level, value)
                for value in range(1, attr.domain_size + 1)
            ]
            for child, child_response in zip(
                children, self._run_battery(children)
            ):
                if child_response.overflow:
                    raise InfeasibleCrawlError(
                        f"point query {child} overflowed: more than "
                        f"k={self.k} duplicates at one point"
                    )
                self._confirm(child_response.rows)
            return
        for value in range(attr.domain_size, 0, -1):
            stack.append((query.with_value(level, value), level + 1))
