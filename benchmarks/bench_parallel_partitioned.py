"""Parallel partitioned crawling: wall-clock speedup, identical results.

:func:`~repro.crawl.partition.crawl_partitioned` on the thread backend
(``CrawlSpec(executor="thread")``) promises two things over the
sequential reference:

* a wall-clock win on latency-bound sessions -- the whole point of
  owning several identities; and
* a deterministic merge: byte-identical rows and identical total query
  cost, independent of thread scheduling.

This benchmark measures both on a 4-session plan over the synthetic
Yahoo! Autos dataset with the :class:`~repro.server.engines.VectorEngine`
(the default, paper-scale engine).  Each server is wrapped in a
:class:`~repro.server.latency.LatencySource` charging a simulated
round trip per query, which is what a crawl of a real hidden database
pays; worker threads overlap the waits, so the parallel wall clock
drops towards the slowest session while the sequential one pays the sum.

The speedup assertion (>= 2x with 4 sessions) is conservative: the
ideal ratio is total-cost / max-session-cost (~2.9 on this plan), and
the round trip is chosen large enough (5ms) that Python-side work is
noise next to it.
"""

import time

import pytest

from benchmarks.conftest import bench_scale
from repro.crawl.spec import CrawlSpec
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.datasets.yahoo import yahoo_autos
from repro.server.latency import LatencySource
from repro.server.server import TopKServer

K = 256
SESSIONS = 4
RTT_SECONDS = 0.005


@pytest.fixture(scope="module")
def dataset():
    n = max(6000, int(69768 * bench_scale()))
    return yahoo_autos(n=n, seed=5, duplicates=0)


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def make_sources(dataset):
    return [
        LatencySource(TopKServer(dataset, K, engine="vector"), RTT_SECONDS)
        for _ in range(SESSIONS)
    ]


def test_parallel_speedup_and_determinism(benchmark, dataset, plan):
    start = time.perf_counter()
    sequential = crawl_partitioned(make_sources(dataset), plan)
    seq_seconds = time.perf_counter() - start

    def parallel_crawl():
        return crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(executor="thread", max_workers=SESSIONS),
        )

    # Timed by timed(), so an untimed run (--benchmark-disable)
    # measures the same thing.
    parallel, par_seconds = benchmark.pedantic(
        timed, args=(parallel_crawl,), rounds=1, iterations=1
    )

    # Determinism contract: byte-identical merged rows, identical cost.
    assert parallel.rows == sequential.rows
    assert parallel.cost == sequential.cost
    assert parallel.progress == sequential.progress
    assert parallel.complete and sequential.complete
    assert parallel.tuples_extracted == dataset.n

    speedup = seq_seconds / par_seconds
    ideal = parallel.cost / max(parallel.session_costs())
    benchmark.extra_info["sequential_seconds"] = round(seq_seconds, 3)
    benchmark.extra_info["parallel_seconds"] = round(par_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["ideal_speedup"] = round(ideal, 2)
    benchmark.extra_info["total_queries"] = parallel.cost
    benchmark.extra_info["session_queries"] = parallel.session_costs()
    assert speedup >= 2.0, (
        f"expected >= 2x wall-clock speedup with {SESSIONS} sessions, got "
        f"{speedup:.2f}x ({seq_seconds:.2f}s sequential, "
        f"{par_seconds:.2f}s parallel, ideal {ideal:.2f}x)"
    )


def test_worker_count_sweep(benchmark, dataset, plan):
    """Wall clock falls as workers grow; results never change."""
    reference = crawl_partitioned(make_sources(dataset), plan)
    timings = {}

    def sweep():
        for workers in (1, 2, 4):
            start = time.perf_counter()
            merged = crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(executor="thread", max_workers=workers),
            )
            timings[workers] = time.perf_counter() - start
            assert merged.rows == reference.rows
            assert merged.cost == reference.cost
        return timings

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["seconds_by_workers"] = {
        w: round(s, 3) for w, s in timings.items()
    }
    # Monotone improvement with generous slack for scheduler noise.
    assert timings[4] < timings[1]
