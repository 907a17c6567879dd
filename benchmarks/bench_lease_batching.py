"""Lease-batched vs per-query admission on the shared-limit plane.

Exactly-once admission across a process pool used to cost one
coordinator round trip per query: every ``admit()`` travelled to the
:class:`~repro.crawl.coordinator.LimitCoordinator`'s manager process
and back.  Hidden-web crawler surveys (Gupta & Bhatia) stress that this
interface-layer cost -- not the crawl logic -- dominates real
deployments, and it is exactly what the leasing
:class:`~repro.crawl.coordinator.SharedLimitClient` removes: one
``lease(n)`` round trip admits a budget chunk, local ``admit()`` calls
consume it for free, and unused units flow back at region boundaries.

This benchmark crawls one limit-bearing plan on the process backend
(whose budgeted sources put it on the shared-limit plane) twice --
``lease_chunk=1`` (the old per-query protocol) and the default chunk
(``DEFAULT_LEASE_CHUNK``, clamped against the budget) -- and

* asserts the two runs are byte-identical with the exact same charge
  (leasing trades zero exactness),
* requires **>= 2x fewer coordinator round trips** with leasing
  (measured by the control plane itself and written back into
  ``QueryStats.round_trips``),
* requires no wall-clock regression (the leased crawl must not be
  slower than per-query admission beyond noise), and
* writes the measurements to ``BENCH_lease_batching.json`` (path
  overridable via ``REPRO_BENCH_LEASE_OUT``) so CI can gate the
  reduction ratio per PR (``tools/compare_bench.py``).

The round-trip counts are deterministic: each region is one pool task
that starts without a lease and flushes at its end, so every run leases
and flushes identically, whichever worker steals which region.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import bench_scale
from repro.crawl.executors import ProcessExecutor
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer

K = 24
SESSIONS = 3


def limited_dataset(n: int, seed: int = 17) -> Dataset:
    """A mixed-space dataset crawled behind one fleet-wide budget."""
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 6), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 999)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 7, n),
            rng.integers(1, 4, n),
            rng.integers(0, 1000, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def write_report(report: dict) -> str:
    path = os.environ.get("REPRO_BENCH_LEASE_OUT", "BENCH_lease_batching.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def test_lease_batching_cuts_coordinator_round_trips(benchmark):
    """Per-query vs leased admission: same bytes, far fewer trips."""
    n = max(1200, int(6000 * bench_scale()))
    dataset = limited_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)

    def sources(budget):
        return [
            TopKServer(dataset, K, limits=[budget]) for _ in range(SESSIONS)
        ]

    reference_budget = QueryBudget(10_000_000)
    reference = crawl_partitioned(sources(reference_budget), plan)

    def crawl(lease_chunk):
        budget = QueryBudget(10_000_000)
        crawl_sources = sources(budget)
        executor = ProcessExecutor(lease_chunk=lease_chunk)
        result, seconds = timed(
            lambda: executor.run(crawl_sources, plan, CrawlSpec(max_workers=2))
        )
        return result, seconds, budget.used, crawl_sources[0].stats

    measurements = {}

    def run_both():
        measurements["per_query"] = crawl(1)
        measurements["leased"] = crawl(None)  # the default chunk

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    expected_charge = reference_budget.used
    for mode, (result, _, charge, _) in measurements.items():
        assert result.rows == reference.rows, mode
        assert result.cost == reference.cost, mode
        assert result.progress == reference.progress, mode
        # The exact sequential charge (server-side admissions; the
        # crawler-side cost additionally counts locally-answered
        # contradictory queries, which never reach the budget).
        assert charge == expected_charge, mode

    per_query_trips = measurements["per_query"][3].round_trips
    leased_trips = measurements["leased"][3].round_trips
    per_query_seconds = measurements["per_query"][1]
    leased_seconds = measurements["leased"][1]
    reduction = round(per_query_trips / max(1, leased_trips), 2)
    report = {
        "workload": "limit-bearing (one fleet-wide budget)",
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "sessions": SESSIONS,
        "total_queries": reference.cost,
        "coordinator_round_trips": {
            "per_query": per_query_trips,
            "leased": leased_trips,
        },
        "round_trip_reduction": reduction,
        "seconds": {
            "per_query": round(per_query_seconds, 3),
            "leased": round(leased_seconds, 3),
        },
        "lease_speedup": round(
            per_query_seconds / max(leased_seconds, 1e-9), 2
        ),
    }
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    assert reduction >= 2.0, (
        f"expected >= 2x fewer coordinator round trips with lease "
        f"batching, got {per_query_trips} per-query vs {leased_trips} "
        f"leased ({reduction}x)"
    )
    # No wall-clock regression: fewer round trips must never cost time.
    # A generous noise allowance keeps single-core CI honest without
    # flaking; the real speedup is tracked in the JSON artifact.
    assert leased_seconds <= per_query_seconds * 1.25, (
        f"lease batching regressed the wall clock: "
        f"{leased_seconds:.2f}s leased vs {per_query_seconds:.2f}s "
        f"per-query"
    )
