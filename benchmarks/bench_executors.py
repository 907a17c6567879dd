"""Executor backends compared: CPU-bound speedups, identical results.

The thread backend owns latency-bound crawls (threads overlap simulated
round trips) but the GIL caps it at one core on CPU-bound simulated
workloads -- exactly the regime of the pure-Python
:class:`~repro.server.engines.LinearScanEngine`.  The process backend
exists for that regime: region crawls run in worker processes against
pickled source copies, so the wall clock drops towards
``sequential / cores``.

This benchmark crawls one CPU-bound plan on every backend, asserts the
results are byte-identical across all of them, and writes the measured
speedups to ``BENCH_executors.json`` (path overridable via
``REPRO_BENCH_OUT``) so CI can track the perf trajectory per PR.  The
``>= 1.5x process-over-thread`` assertion only fires on multi-core
hosts -- on a single core the process backend cannot beat anything,
and the JSON records that honestly (``cpu_count`` rides along).

A second measurement times the sequential reference against work
stealing on a skewed plan with latency-simulating servers; the stolen
regions' schedule changes, the result does not.
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
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer

K = 16
SESSIONS = 4


def cpu_bound_dataset(n: int, seed: int = 11) -> Dataset:
    """A mixed-space dataset crawled through the pure-Python engine."""
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 8), ("body", 4)],
        ["price"],
        numeric_bounds=[(0, 1999)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 9, n),
            rng.integers(1, 5, n),
            rng.integers(0, 2000, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def skewed_dataset(n: int, seed: int = 12) -> Dataset:
    """Most tuples pile onto one partition value: a worst-case plan."""
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 8), ("body", 4)],
        ["price"],
        numeric_bounds=[(0, 1999)],
    )
    make = np.where(rng.random(n) < 0.75, 1, rng.integers(1, 9, n))
    rows = np.column_stack(
        [
            make,
            rng.integers(1, 5, n),
            rng.integers(0, 2000, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def write_report(report: dict) -> str:
    path = os.environ.get("REPRO_BENCH_OUT", "BENCH_executors.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def measure_coordinator_round_trips() -> int:
    """Control-plane chatter of a fixed budgeted process crawl.

    Deliberately scale-independent: each region unit of the same small
    limit-bearing plan leases, flushes and records identically on every
    run, whichever worker steals it, so the recorded count is a
    property of the admission protocol, not of the benchmark host --
    which is what lets
    ``tools/compare_bench.py`` gate regressions on it (a jump here
    means per-query chatter crept back into the control plane).
    """
    rng = np.random.default_rng(29)
    space = DataSpace.mixed(
        [("make", 6), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 999)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 7, 800),
            rng.integers(1, 4, 800),
            rng.integers(0, 1000, 800),
        ]
    ).astype(np.int64)
    dataset = Dataset(space, rows)
    plan = partition_space(space, 3)
    budget = QueryBudget(10_000_000)
    sources = [TopKServer(dataset, 24, limits=[budget]) for _ in range(3)]
    # Budgeted sources alone put the pool on the shared-limit plane.
    crawl_partitioned(
        sources, plan, CrawlSpec(executor="process", max_workers=2)
    )
    return sources[0].stats.round_trips


def test_backend_speedups_cpu_bound(benchmark):
    """Thread vs process on a GIL-hostile workload."""
    # Sized so the crawl is seconds of pure-Python engine work even in
    # quick mode: the process pool's startup must be noise next to it.
    n = max(6000, int(20000 * bench_scale()))
    dataset = cpu_bound_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)

    def sources():
        return [
            TopKServer(dataset, K, engine="linear")
            for _ in range(SESSIONS)
        ]

    sequential, seq_seconds = timed(lambda: crawl_partitioned(sources(), plan))
    seconds = {"sequential": seq_seconds}
    results = {}

    def run_all():
        for name in ("thread", "process"):
            spec = CrawlSpec(executor=name, max_workers=SESSIONS)
            results[name], seconds[name] = timed(
                lambda spec=spec: crawl_partitioned(sources(), plan, spec)
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    for name, result in results.items():
        assert result.rows == sequential.rows, name
        assert result.cost == sequential.cost, name
        assert result.progress == sequential.progress, name

    speedups = {
        name: round(seq_seconds / max(s, 1e-9), 2)
        for name, s in seconds.items()
        if name != "sequential"
    }
    process_over_thread = round(
        seconds["thread"] / max(seconds["process"], 1e-9), 2
    )
    report = {
        "workload": "cpu-bound (linear engine)",
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "sessions": SESSIONS,
        "total_queries": sequential.cost,
        "seconds": {name: round(s, 3) for name, s in seconds.items()},
        "speedup_vs_sequential": speedups,
        "process_over_thread": process_over_thread,
        # Shared-limit control-plane chatter on a fixed reference
        # crawl (lease-batched admission; lower is better, gated).
        "coordinator_round_trips": measure_coordinator_round_trips(),
    }
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    if (os.cpu_count() or 1) >= 2:
        assert process_over_thread >= 1.5, (
            f"expected the process backend >= 1.5x over threads on a "
            f"CPU-bound workload with {os.cpu_count()} cores, got "
            f"{process_over_thread}x "
            f"({seconds['thread']:.2f}s thread, "
            f"{seconds['process']:.2f}s process)"
        )


def test_stealing_on_a_skewed_plan(benchmark):
    """Work stealing vs the sequential reference when one session
    dominates."""
    n = max(2000, int(12000 * bench_scale()))
    dataset = skewed_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)
    rtt = 0.002

    def sources():
        return [
            LatencySource(TopKServer(dataset, 256), rtt)
            for _ in range(SESSIONS)
        ]

    sequential, sequential_seconds = timed(
        lambda: crawl_partitioned(sources(), plan)
    )

    def stealing():
        return crawl_partitioned(
            sources(),
            plan,
            CrawlSpec(executor="thread", max_workers=SESSIONS),
        )

    # Timed by timed(), like the sequential leg, so an untimed run
    # (--benchmark-disable) measures the same thing.
    stolen, stolen_seconds = benchmark.pedantic(
        timed, args=(stealing,), rounds=1, iterations=1
    )

    assert stolen.rows == sequential.rows
    assert stolen.cost == sequential.cost
    assert stolen.progress == sequential.progress

    session_costs = sequential.session_costs()
    benchmark.extra_info["session_queries"] = session_costs
    benchmark.extra_info["skew"] = round(
        max(session_costs) / max(1, min(session_costs)), 2
    )
    benchmark.extra_info["sequential_seconds"] = round(sequential_seconds, 3)
    benchmark.extra_info["stealing_seconds"] = round(stolen_seconds, 3)
    benchmark.extra_info["stealing_speedup"] = round(
        sequential_seconds / max(stolen_seconds, 1e-9), 2
    )
