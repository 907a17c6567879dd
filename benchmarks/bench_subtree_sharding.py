"""Subtree sharding vs whole-region stealing on a one-heavy-region plan.

Whole-region work stealing rebalances a skewed plan only down to
the granularity of a region: when essentially *all* of the cost sits in
one region, the worker that picks it up crawls it alone while every
other worker goes idle -- the wall clock degenerates to the sequential
time of the heavy region, no matter how many identities are available.

Subtree sharding (:mod:`repro.crawl.sharding`) is built for exactly
this shape: the heavy region's crawl frontier is split into pairwise
disjoint subtrees that idle workers steal individually, so the region's
round trips overlap across all workers.  This benchmark builds such a
workload (one categorical value carrying ~92% of the tuples, sessions
crawling through latency-simulating sources), times

* the sequential reference,
* whole-region stealing (the thread backend), and
* two-level stealing (the thread backend with ``shard_subtrees=N``),

asserts all three produce byte-identical results, requires the sharded
crawl to be **>= 1.5x** faster than whole-region stealing, and writes
the measurements to ``BENCH_subtree_sharding.json`` (path overridable
via ``REPRO_BENCH_SHARDING_OUT``) for CI trend tracking.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import bench_scale
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.latency import LatencySource
from repro.server.server import TopKServer

K = 16
SESSIONS = 3
SHARDS = 12
RTT = 0.0015


def one_heavy_region_dataset(n: int, seed: int = 21) -> Dataset:
    """~92% of the tuples pile onto one categorical value."""
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("category", 6)],
        ["price", "year"],
        numeric_bounds=[(0, 9999), (0, 99)],
    )
    category = np.where(rng.random(n) < 0.92, 1, rng.integers(2, 7, n))
    rows = np.column_stack(
        [
            category,
            rng.integers(0, 10000, n),
            rng.integers(0, 100, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def write_report(report: dict) -> str:
    path = os.environ.get(
        "REPRO_BENCH_SHARDING_OUT", "BENCH_subtree_sharding.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def test_subtree_sharding_beats_whole_region_stealing(benchmark):
    """Two-level stealing >= 1.5x over region stealing, same bytes."""
    n = max(1500, int(9000 * bench_scale()))
    dataset = one_heavy_region_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)

    def sources():
        return [
            LatencySource(TopKServer(dataset, K), RTT)
            for _ in range(SESSIONS)
        ]

    spec = CrawlSpec(executor="thread", max_workers=SESSIONS)
    sequential, sequential_seconds = timed(
        lambda: crawl_partitioned(sources(), plan)
    )
    region_stolen, region_seconds = timed(
        lambda: crawl_partitioned(sources(), plan, spec)
    )

    def sharded():
        return crawl_partitioned(
            sources(), plan, spec.replace(shard_subtrees=SHARDS)
        )

    # Timed by timed(), like the other two legs, so an untimed run
    # (--benchmark-disable) measures the same thing.
    shard_result, shard_seconds = benchmark.pedantic(
        timed, args=(sharded,), rounds=1, iterations=1
    )

    # Determinism contract: sharding and stealing change the schedule,
    # never the bytes.
    for other in (region_stolen, shard_result):
        assert other.rows == sequential.rows
        assert other.cost == sequential.cost
        assert other.progress == sequential.progress
        assert other.session_costs() == sequential.session_costs()

    session_costs = sequential.session_costs()
    heavy_share = max(session_costs) / max(1, sum(session_costs))
    speedup = region_seconds / max(shard_seconds, 1e-9)
    report = {
        "workload": "one-heavy-region (latency-bound)",
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "sessions": SESSIONS,
        "shards_per_region": SHARDS,
        "rtt_seconds": RTT,
        "total_queries": sequential.cost,
        "session_queries": session_costs,
        "heavy_session_share": round(heavy_share, 3),
        "seconds": {
            "sequential": round(sequential_seconds, 3),
            "region_stealing": round(region_seconds, 3),
            "subtree_sharding": round(shard_seconds, 3),
        },
        "sharding_over_region_stealing": round(speedup, 2),
    }
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    # The whole point of the subsystem: when one region dominates, only
    # subtree stealing can spread it across identities.
    assert heavy_share >= 0.7, (
        f"workload lost its skew (heavy share {heavy_share:.2f}); the "
        "comparison below would be meaningless"
    )
    assert speedup >= 1.5, (
        f"expected subtree sharding >= 1.5x over whole-region stealing "
        f"on a one-heavy-region plan, got {speedup:.2f}x "
        f"({region_seconds:.2f}s regions, {shard_seconds:.2f}s sharded)"
    )
