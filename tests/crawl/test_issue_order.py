"""Golden issue order of the slice-table crawlers.

The slice-cover family's hot path (``extended_dfs``, the slice table,
query derivation) may be rewritten for speed, but never so that a crawl
issues a different query, in a different order, or confirms a different
row sequence or progress curve.  Each case pins three sha256 digests
(first 16 hex digits): the client's issue history, ``result.rows`` in
order, and ``result.progress``.  They were recorded from the reference
implementation, once for both battery modes, which must agree.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.crawl.hybrid import Hybrid
from repro.crawl.slice_cover import LazySliceCover, SliceCover
from repro.datasets.adult import adult
from repro.datasets.nsf import nsf
from repro.query.predicates import EqualityPredicate
from repro.server.client import CachingClient
from repro.server.server import TopKServer

CRAWLERS = {
    "hybrid-lazy": lambda client, b: Hybrid(client, lazy=True, batteries=b),
    "hybrid-eager": lambda client, b: Hybrid(client, lazy=False, batteries=b),
    "lazy-slice-cover": lambda client, b: LazySliceCover(client, batteries=b),
    "slice-cover": lambda client, b: SliceCover(client, batteries=b),
}

DATASETS = {"nsf": lambda: nsf(n=3000), "adult": lambda: adult(n=3000)}

# dataset, k, crawler, then the history / rows / progress digests.
GOLDEN_TABLE = """
nsf   16 hybrid-lazy      39c6cff11dada6c0 e88b8b8132edf339 5a5c22ce853324b9
nsf   16 hybrid-eager     ff2aae67214b63e7 e88b8b8132edf339 413b3ebc537f5c46
nsf   16 lazy-slice-cover 39c6cff11dada6c0 e88b8b8132edf339 5a5c22ce853324b9
nsf   16 slice-cover      ff2aae67214b63e7 e88b8b8132edf339 413b3ebc537f5c46
nsf   64 hybrid-lazy      aa31ad2e70aeed84 ccc8350b55880a38 1061f34ddfbb3368
nsf   64 hybrid-eager     e745386cfef4352f ccc8350b55880a38 d0da6cd8d723e823
nsf   64 lazy-slice-cover aa31ad2e70aeed84 ccc8350b55880a38 1061f34ddfbb3368
nsf   64 slice-cover      e745386cfef4352f ccc8350b55880a38 d0da6cd8d723e823
adult 16 hybrid-lazy      b3dbefe155e02c1c cafa155b4a7eb20c d11607172569cf28
adult 16 hybrid-eager     71890ebf53fd22dc cafa155b4a7eb20c 9ce917edd750c3e7
"""

_ROWS = [line.split() for line in GOLDEN_TABLE.strip().splitlines()]
GOLDEN = {(d, int(k), c): tuple(digests) for d, k, c, *digests in _ROWS}


@lru_cache(maxsize=None)
def _dataset(name: str):
    return DATASETS[name]()


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _int(value):
    return None if value is None else int(value)


def _canonical(query) -> tuple:
    out = []
    for pred in query.predicates:
        if isinstance(pred, EqualityPredicate):
            out.append(_int(pred.value))
        else:
            out.append((_int(pred.lo), _int(pred.hi)))
    return tuple(out)


def _run(dataset: str, k: int, crawler: str, batteries: bool):
    client = CachingClient(TopKServer(_dataset(dataset), k=k))
    result = CRAWLERS[crawler](client, batteries).crawl()
    return (
        _digest(_canonical(q) for q in client.history),
        _digest(tuple(int(v) for v in row) for row in result.rows),
        _digest((p.queries, p.tuples) for p in result.progress),
    )


@pytest.mark.parametrize("batteries", [True, False])
@pytest.mark.parametrize("dataset,k,crawler", list(GOLDEN))
def test_issue_order_rows_and_progress_are_pinned(
    dataset, k, crawler, batteries
):
    expected = GOLDEN[dataset, k, crawler]
    assert _run(dataset, k, crawler, batteries) == expected
