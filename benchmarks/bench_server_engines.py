"""Micro-benchmarks of the simulated server's query engines.

Unlike the figure benchmarks (whose scientific metric is query count),
these measure genuine wall-clock throughput: how fast the substrate
answers queries.  The vector engine must beat the linear reference by a
wide margin at paper scale -- it is what makes full-scale experiment
runs (hundreds of thousands of simulated queries) practical.

The two ``prefix_conjunctions`` cases are the crawls' real regime: the
deep categorical prefixes a partitioned hybrid crawl of Adult issues.
They are informational and carry no baseline.
"""

import numpy as np
import pytest

from repro.datasets.adult import adult
from repro.datasets.nsf import nsf
from repro.datasets.yahoo import yahoo_autos
from repro.query.query import Query, slice_query
from repro.server.server import TopKServer


@pytest.fixture(scope="module")
def nsf_small():
    return nsf(n=8000, seed=23)


@pytest.fixture(scope="module")
def yahoo_small():
    return yahoo_autos(n=8000, seed=5, duplicates=0)


@pytest.fixture(scope="module")
def adult_full():
    return adult()


@pytest.fixture(scope="module")
def prefix_conjunctions(adult_full):
    """Queries pinning 4-8 categorical attributes, numerics left wild.

    As the hybrid issues them inside a ``Country`` region: ``Country``
    plus a prefix of the other categorical attributes, in schema order,
    pinned to the values of a random tuple.
    """
    space = adult_full.space
    country = space.index_of("Country")
    others = [j for j, attr in enumerate(space) if attr.is_categorical]
    others.remove(country)
    rng = np.random.default_rng(3)
    queries = []
    for i in rng.integers(0, adult_full.n, 400):
        row = adult_full.rows[i]
        query = Query.full(space).with_value(country, int(row[country]))
        for j in others[: int(rng.integers(3, 8))]:
            query = query.with_value(j, int(row[j]))
        queries.append(query)
    return queries


def run_queries(server, queries):
    for q in queries:
        server.run(q)


def test_vector_engine_slice_queries(benchmark, nsf_small):
    server = TopKServer(nsf_small, k=256, engine="vector")
    queries = [
        slice_query(nsf_small.space, i, v)
        for i in range(3)
        for v in range(1, nsf_small.space[i].domain_size + 1)
    ]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_linear_engine_slice_queries(benchmark, nsf_small):
    server = TopKServer(nsf_small, k=256, engine="linear")
    queries = [slice_query(nsf_small.space, 0, v) for v in range(1, 6)]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_vector_engine_range_queries(benchmark, yahoo_small):
    server = TopKServer(yahoo_small, k=256, engine="vector")
    space = yahoo_small.space
    price = space.index_of("Price")
    queries = [
        Query.full(space).with_range(price, lo, lo + 5000)
        for lo in range(0, 50000, 500)
    ]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_vector_engine_mixed_queries(benchmark, yahoo_small):
    server = TopKServer(yahoo_small, k=256, engine="vector")
    space = yahoo_small.space
    queries = [
        Query.full(space)
        .with_value(0, 1 + (i % 2))
        .with_value(2, 1 + (i % 85))
        .with_range(4, 2000, 2012)
        for i in range(100)
    ]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_indexed_engine_slice_queries(benchmark, nsf_small):
    server = TopKServer(nsf_small, k=256, engine="indexed")
    queries = [
        slice_query(nsf_small.space, i, v)
        for i in range(3)
        for v in range(1, nsf_small.space[i].domain_size + 1)
    ]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_indexed_engine_selective_queries(benchmark, nsf_small):
    """The indexed engine's sweet spot: deep, rare-prefix queries."""
    space = nsf_small.space
    server = TopKServer(nsf_small, k=256, engine="indexed")
    pi_name = space.dimensionality - 1  # the huge-domain attribute
    queries = [Query.full(space).with_value(pi_name, v) for v in range(1, 401)]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_vector_engine_selective_queries(benchmark, nsf_small):
    """Same workload as above on the vector engine, for comparison."""
    space = nsf_small.space
    server = TopKServer(nsf_small, k=256, engine="vector")
    pi_name = space.dimensionality - 1
    queries = [Query.full(space).with_value(pi_name, v) for v in range(1, 401)]
    benchmark(run_queries, server, queries)
    benchmark.extra_info["queries"] = len(queries)


def test_vector_engine_prefix_conjunctions(
    benchmark, adult_full, prefix_conjunctions
):
    """The crawl's regime: deep categorical prefixes, no ranges."""
    server = TopKServer(adult_full, k=16, engine="vector")
    benchmark(run_queries, server, prefix_conjunctions)
    benchmark.extra_info["queries"] = len(prefix_conjunctions)


def test_indexed_engine_prefix_conjunctions(
    benchmark, adult_full, prefix_conjunctions
):
    """Same workload as above on the indexed engine, for comparison."""
    server = TopKServer(adult_full, k=16, engine="indexed")
    benchmark(run_queries, server, prefix_conjunctions)
    benchmark.extra_info["queries"] = len(prefix_conjunctions)
