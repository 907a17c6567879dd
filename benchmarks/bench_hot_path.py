"""Single-core hot path: sequential queries/sec, gated per PR.

``BENCH_executors.json`` tracks how well the fleet scales *out*; this
benchmark tracks the thing the fleet multiplies: how fast **one**
worker's inner loop answers queries.  The workload is the same
CPU-bound linear-engine crawl the executor benchmark uses, run strictly
sequentially, so the measured ``queries_per_sec`` is pure inner-loop
cost -- predicate evaluation, engine top-k, response/cache hashing --
with no scheduling in the way.

Two engines crawl the identical plan:

* the **interpreted** reference -- a frozen copy of the pre-compiled-
  matcher ``LinearScanEngine.top`` (per-row predicate-method dispatch
  over numpy scalar reads), i.e. the pre-optimisation sequential path;
* the **compiled** engine -- today's :class:`LinearScanEngine`: one
  :func:`repro.query.compile_matcher` codegen pass per query over
  cached plain-int row tuples.

The crawl results must be byte-identical (rows, cost, progress) and the
query counts exactly equal -- the speedup may only come from doing the
same work faster.  The compiled leg runs :data:`COMPILED_ROUNDS` times,
each checked for that parity, and its median round is the compiled
wall clock.  ``hot_path_speedup`` (interpreted / compiled wall
clock) is asserted ``>= 1.5`` on any host, single-core included, and
both it and ``queries_per_sec`` are gated by ``tools/compare_bench.py``
against ``benchmarks/baselines/BENCH_hot_path.json``.

A second measurement times the batched top-k seam: answering a vector
of sibling slice queries through :meth:`QueryEngine.top_batch` (one
shared mask context) vs a per-query loop, on the vector engine (the
linear scan has no shared work to measure).  Recorded as
``batch_speedup`` for trend-watching; it is not gated (sub-millisecond
ratios are too noisy on shared CI).  Its
siblings pin two categorical attributes, the first an 8-value one, so
the vector engine answers each by narrowing one row-id array from a
value index -- a path the batch context leaves unshared, because it is
already cheap.  The vector ratio therefore sits near 1.0: the seam
pays on the full-scan path, which ``battery_speedup`` below measures.

A third measurement drives the seam end to end: one deterministic DFS
crawl over a dense categorical space on the vector engine, run with
batteries on (sibling queries under one
:meth:`~repro.server.client.CachingClient.batch` epoch, sharing the
engine's per-predicate masks and the row ids of the predicates the
siblings share) and off (the plain per-query loop).  The
two crawls must be byte-identical (rows, cost, progress, phase costs);
``battery_speedup`` is asserted ``>= 1.2`` and gated against the
baseline.  Profiled companion runs record ``admission_overhead_s`` per
mode -- wall clock inside ``client.server_wait`` but outside
``server.engine_top``, i.e. locks + admission + accounting -- which is
the share battery batching exists to shrink.

Finally ``payload_bytes`` records the pickled process payload of the
crawl's per-session sources (what :class:`ProcessExecutor` ships to
every pool worker).  Content-equal engine matrices ship once and
derived caches are trimmed, and the lower-is-better gate keeps it
that way.
"""

import json
import os
import statistics
import time

import numpy as np

from benchmarks.conftest import bench_scale
from repro.crawl import profiling
from repro.crawl.dfs import DepthFirstSearch
from repro.crawl.executors import pickle_payload
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.query.query import Query
from repro.server.engines import QueryEngine, VectorEngine
from repro.server.response import Row
from repro.server.server import TopKServer

K = 16
SESSIONS = 4
#: Timed rounds of the compiled leg; the gated figures read the median.
COMPILED_ROUNDS = 5

#: Shape of the battery workload's dense categorical space.  Fan 3
#: keeps every equality's selectivity above the vector engine's
#: value-index threshold (1/4), so each query takes the full-scan
#: path whose masks and shared-prefix row ids the batch context
#: shares -- the seam under measurement.
BATTERY_DEPTH = 7
BATTERY_FAN = 3


class InterpretedLinearScanEngine(QueryEngine):
    """The pre-compiled-matcher linear scan, frozen for comparison.

    A faithful copy of ``LinearScanEngine.top`` before predicate
    compilation and row-tuple caching: one ``pred.matches`` dispatch
    per attribute per row, rows materialised per response.  This is
    the benchmark's "pre-PR sequential path".
    """

    def top(self, query: Query, k: int) -> tuple[list[Row], bool]:
        rows: list[Row] = []
        preds = query.predicates
        for i in range(self.n):
            raw = self._matrix[i]
            if all(pred.matches(int(v)) for pred, v in zip(preds, raw)):
                if len(rows) == k:
                    return rows, True
                rows.append(tuple(int(v) for v in raw))
        return rows, False


def cpu_bound_dataset(n: int, seed: int = 11) -> Dataset:
    """The executor benchmark's CPU-bound mixed-space dataset."""
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


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def write_report(report: dict) -> str:
    path = os.environ.get("REPRO_BENCH_OUT", "BENCH_hot_path.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def interpreted_sources(dataset: Dataset, sessions: int) -> list[TopKServer]:
    """Servers whose engine is the frozen pre-optimisation scan."""
    sources = []
    for _ in range(sessions):
        server = TopKServer(dataset, K, engine="linear")
        # Swap in the frozen reference over the identical
        # priority-ordered matrix: same responses, old inner loop.
        server._engine = InterpretedLinearScanEngine(  # noqa: SLF001
            server._engine._matrix  # noqa: SLF001
        )
        sources.append(server)
    return sources


def measure_batch_seam(dataset: Dataset, reps: int = 20) -> dict:
    """Sibling slice queries: top_batch vs a per-query loop.

    The engine is warmed first (lazy indexes and row-tuple cache built
    outside the timed region) and the sibling set is answered ``reps``
    times, so the measured ratio is the seam itself -- shared mask
    reuse -- not index-build noise on a microsecond workload.
    Each ``top_batch`` call opens a fresh evaluation context, so no
    cache leaks between repetitions.
    """
    base = Query.full(dataset.space)
    queries = [
        base.with_value(0, make).with_value(1, body)
        for make in range(1, 9)
        for body in range(1, 5)
    ]
    engine = VectorEngine(dataset.rows)
    expected = [engine.top(q, K) for q in queries]  # warm the engine
    looped, loop_seconds = timed(
        lambda: [[engine.top(q, K) for q in queries] for _ in range(reps)]
    )
    batched, batch_seconds = timed(
        lambda: [engine.top_batch(queries, K) for _ in range(reps)]
    )
    assert all(rep == expected for rep in looped)
    assert all(rep == expected for rep in batched)
    return {"vector": round(loop_seconds / max(batch_seconds, 1e-9), 2)}


def battery_dataset(dups: int) -> Dataset:
    """Every point of the dense categorical space, ``dups`` times each.

    Fully deterministic: with ``k == dups`` every point query resolves
    exactly and every inner node overflows, so DFS walks the whole
    space tree and fires a leaf battery under every level-``d-1`` node
    -- identical work in battery and loop mode by construction.
    """
    grids = np.meshgrid(
        *[np.arange(1, BATTERY_FAN + 1)] * BATTERY_DEPTH, indexing="ij"
    )
    points = np.stack([g.ravel() for g in grids], axis=1)
    rows = np.repeat(points, dups, axis=0).astype(np.int64)
    space = DataSpace.categorical([BATTERY_FAN] * BATTERY_DEPTH)
    return Dataset(space, rows)


def battery_crawl(dataset: Dataset, k: int, batteries: bool):
    """One full DFS crawl on a fresh vector-engine server."""
    crawler = DepthFirstSearch(
        TopKServer(dataset, k, engine="vector"), batteries=batteries
    )
    return crawler.crawl()


def best_of(fn, reps: int = 2):
    """Result plus the minimum wall clock over ``reps`` runs."""
    result, seconds = None, float("inf")
    for _ in range(reps):
        result, elapsed = timed(fn)
        seconds = min(seconds, elapsed)
    return result, seconds


def measure_battery_crawl() -> dict:
    """Battery-batched vs looped DFS: speedup and admission overhead.

    The timed runs are unprofiled (the seam check is a global read
    either way); one profiled companion run per mode then splits the
    wall clock at the engine boundary: ``admission_overhead_s`` is
    ``client.server_wait`` seconds minus ``server.engine_top`` seconds
    -- everything the client waits on that is not the engine (locks,
    admission, response/stat bookkeeping).
    """
    dups = max(8, int(240 * bench_scale()))
    dataset = battery_dataset(dups)
    k = dups
    looped, loop_seconds = best_of(lambda: battery_crawl(dataset, k, False))
    batched, battery_seconds = best_of(
        lambda: battery_crawl(dataset, k, True)
    )

    # Byte-identical crawls: the speedup must come from sharing work,
    # never from doing different work.
    assert batched.rows == looped.rows
    assert batched.cost == looped.cost
    assert batched.progress == looped.progress
    assert batched.phase_costs == looped.phase_costs

    overhead = {}
    for label, batteries in (("loop", False), ("battery", True)):
        with profiling.profile() as prof:
            battery_crawl(dataset, k, batteries)
        phases = prof.phases()
        overhead[label] = round(
            phases["client.server_wait"].seconds
            - phases["server.engine_top"].seconds,
            4,
        )

    speedup = round(loop_seconds / max(battery_seconds, 1e-9), 2)
    report = {
        "battery_workload": (
            f"DFS over the dense {BATTERY_FAN}^{BATTERY_DEPTH} "
            f"categorical space x {dups} duplicates, vector engine"
        ),
        "battery_n": dataset.n,
        "battery_cost": batched.cost,
        "battery_seconds": {
            "loop": round(loop_seconds, 3),
            "battery": round(battery_seconds, 3),
        },
        "battery_queries_per_sec": round(
            batched.cost / max(battery_seconds, 1e-9), 1
        ),
        "battery_speedup": speedup,
        "admission_overhead_s": overhead,
    }

    assert speedup >= 1.2, (
        f"expected battery-batched DFS >= 1.2x over the per-query loop "
        f"on the vector engine, got {speedup}x ({loop_seconds:.2f}s "
        f"loop, {battery_seconds:.2f}s battery)"
    )
    return report


def test_single_core_queries_per_sec(benchmark):
    """Compiled vs interpreted inner loop on one sequential crawl."""
    n = max(4000, int(16000 * bench_scale()))
    dataset = cpu_bound_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)

    interpreted, interp_seconds = timed(
        lambda: crawl_partitioned(
            interpreted_sources(dataset, plan.sessions), plan
        )
    )

    def compiled_sources():
        return [
            TopKServer(dataset, K, engine="linear")
            for _ in range(plan.sessions)
        ]

    def compiled_rounds():
        return [
            timed(lambda: crawl_partitioned(compiled_sources(), plan))
            for _ in range(COMPILED_ROUNDS)
        ]

    # Timed by timed(), like the interpreted leg, so an untimed run
    # (--benchmark-disable) measures the same thing.  One sub-second
    # crawl swings by more than the baseline gate's tolerance, so the
    # gated figures read the median round.
    rounds = benchmark.pedantic(compiled_rounds, rounds=1, iterations=1)
    # Byte-identical results, exact query counts: the speedup must come
    # from doing the same work faster, never from doing different work.
    for compiled, _ in rounds:
        assert compiled.rows == interpreted.rows
        assert compiled.cost == interpreted.cost
        assert compiled.progress == interpreted.progress
    compiled_seconds = statistics.median(seconds for _, seconds in rounds)

    queries_per_sec = round(compiled.cost / max(compiled_seconds, 1e-9), 1)
    speedup = round(interp_seconds / max(compiled_seconds, 1e-9), 2)
    report = {
        "workload": "cpu-bound sequential (linear engine)",
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "total_queries": compiled.cost,
        "seconds": {
            "interpreted": round(interp_seconds, 3),
            "compiled": round(compiled_seconds, 3),
            "compiled_rounds": [round(seconds, 3) for _, seconds in rounds],
        },
        "queries_per_sec": queries_per_sec,
        "hot_path_speedup": speedup,
        "batch_speedup": measure_batch_seam(dataset),
        # What ProcessExecutor would ship per pool worker for this
        # crawl's sources: one deduplicated matrix for all sessions,
        # derived caches trimmed.  Gated lower-is-better.
        "payload_bytes": len(
            pickle_payload(compiled_sources(), DepthFirstSearch)
        ),
    }
    report.update(measure_battery_crawl())
    path = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path

    assert speedup >= 1.5, (
        f"expected the compiled hot path >= 1.5x over the interpreted "
        f"reference on the CPU-bound sequential crawl, got {speedup}x "
        f"({interp_seconds:.2f}s interpreted, {compiled_seconds:.2f}s "
        f"compiled)"
    )
