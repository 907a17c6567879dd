#!/usr/bin/env python3
"""Partitioned crawling: several rate-limited identities, one database.

The paper's cost metric exists because servers meter queries per IP per
day.  A crawler with several identities can split the data space into
disjoint regions and crawl them through separate sessions -- each with
its own daily quota -- cutting the *wall-clock days* needed to finish
even though the total query count rises slightly (shared prefixes are
re-paid per session).

This example partitions a synthetic Yahoo! Autos database on MAKE
across four sessions, gives each a 60-queries-per-day quota, and
compares the calendar time against a single-identity crawl under the
same quota.  It then re-runs the plan on worker threads
(:func:`repro.crawl.partition.crawl_partitioned` with
``CrawlSpec(executor="thread")``) against latency-simulating servers,
showing the real wall-clock win: worker threads overlap the per-query
round trips, and the merged bag and total cost are identical to the
sequential run -- that is the executors' determinism contract.

Picking an executor backend
---------------------------
The thread pool is one of three pluggable backends
(:mod:`repro.crawl.executors`), picked by ``CrawlSpec.executor``; all
of them honour the same determinism contract, so the choice is purely
about where the time goes:

``--executor thread`` (default)
    Latency-bound crawls: real round trips dominate, threads overlap
    them.
``--executor process``
    CPU-bound simulated workloads: the GIL caps threads at one core,
    worker processes do not.  Sources are pickled into the workers;
    servers carrying limits (``--budget``) admit them exactly once
    across the pool through a coordinator process.
``--executor sequential``
    The reference: one region after another in the calling thread --
    also what ``crawl_partitioned`` runs when the spec names no
    executor.
The thread and process backends always steal work: an idle worker
takes whole regions off the session with the most regions still
queued.  The merged result is unchanged, byte for byte.

The same switches exist programmatically::

    from repro import CrawlSpec, crawl_partitioned
    merged = crawl_partitioned(sources, plan, CrawlSpec(executor="process"))

and on the CLI::

    python -m repro.crawl data.csv --k 256 --workers 4 --executor process

The last section below demonstrates exactly that backend.

Run::

    python examples/partitioned_crawl.py
"""

import time

from repro import (
    CrawlSpec,
    DailyRateLimit,
    Hybrid,
    LatencySource,
    QueryBudgetExhausted,
    SimulatedClock,
    TopKServer,
)
from repro.crawl.partition import (
    SubspaceView,
    crawl_partitioned,
    partition_space,
)
from repro.datasets import yahoo_autos


def crawl_days(crawl_once, clock: SimulatedClock) -> int:
    """Drive a budgeted crawl to completion, sleeping across days."""
    while True:
        try:
            crawl_once()
            return clock.day + 1
        except QueryBudgetExhausted:
            clock.sleep_until_next_day()


def main() -> None:
    dataset = yahoo_autos(n=12000, seed=5, duplicates=0)
    k, per_day, sessions = 256, 60, 4

    # ------------------------------------------------------------------
    # Baseline: one identity, one daily quota.
    # ------------------------------------------------------------------
    clock = SimulatedClock()
    server = TopKServer(dataset, k, limits=[DailyRateLimit(per_day, clock)])
    # Deterministic algorithm + shared response cache: each retry
    # replays the finished prefix for free and continues.
    from repro.server.client import CachingClient

    client = CachingClient(server)
    single_cost = []

    def run_single():
        Hybrid(client).crawl()
        single_cost.append(client.cost)

    days_single = crawl_days(run_single, clock)
    print(
        f"single identity : {single_cost[0]:4d} queries, "
        f"{days_single:2d} simulated days at {per_day}/day"
    )

    # ------------------------------------------------------------------
    # Partitioned: four identities, each with its own quota and region.
    # ------------------------------------------------------------------
    plan = partition_space(dataset.space, sessions)
    attr = dataset.space[plan.attribute]
    print(
        f"plan            : {len(plan.regions)} regions on "
        f"{attr.name!r}, {plan.sessions} sessions"
    )

    clocks = [SimulatedClock() for _ in range(sessions)]
    servers = [
        TopKServer(dataset, k, limits=[DailyRateLimit(per_day, clocks[i])])
        for i in range(sessions)
    ]

    # Each session crawls its bundle across as many days as it needs;
    # sessions run in parallel, so calendar time = the slowest session.
    session_days, session_costs, all_rows = [], [], []
    for i, bundle in enumerate(plan.bundles):
        client = CachingClient(servers[i])
        rows_before = len(all_rows)

        # Re-running replays cached prefixes at zero cost, so retrying
        # the whole bundle after each budget interruption is idempotent.
        def run_bundle(client=client, bundle=bundle, rows_before=rows_before):
            del all_rows[rows_before:]
            for region in bundle:
                result = Hybrid(
                    CachingClient(SubspaceView(client, region))
                ).crawl()
                all_rows.extend(result.rows)

        days = crawl_days(run_bundle, clocks[i])
        session_days.append(days)
        session_costs.append(client.cost)

    print(
        f"four identities : {sum(session_costs):4d} total queries "
        f"({session_costs} per session)"
    )
    print(
        f"calendar time   : {max(session_days):2d} days "
        f"(vs {days_single} single) -- sessions run concurrently"
    )
    assert sorted(all_rows) == sorted(dataset.iter_rows())
    print(f"merged bag      : exact ({len(all_rows)} tuples)")

    # ------------------------------------------------------------------
    # Wall clock: the same plan on worker threads, against servers that
    # charge a simulated network round trip per query.
    # ------------------------------------------------------------------
    rtt = 0.002  # 2ms per query, a fast but honest round trip

    def latency_sources():
        return [
            LatencySource(TopKServer(dataset, k), rtt)
            for _ in range(sessions)
        ]

    start = time.perf_counter()
    sequential = crawl_partitioned(latency_sources(), plan)
    seq_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = crawl_partitioned(
        latency_sources(),
        plan,
        CrawlSpec(executor="thread", max_workers=sessions),
    )
    par_seconds = time.perf_counter() - start

    assert parallel.rows == sequential.rows  # byte-identical merge
    assert parallel.cost == sequential.cost
    print(
        f"wall clock      : {seq_seconds:.2f}s sequential vs "
        f"{par_seconds:.2f}s with {sessions} workers "
        f"({seq_seconds / par_seconds:.1f}x) at {rtt * 1000:.0f}ms RTT; "
        "identical bag and cost"
    )

    # ------------------------------------------------------------------
    # The same plan on the process backend: `--executor process` on
    # the CLI.  Worker processes escape the GIL (the win that matters
    # on CPU-bound simulated engines), the work-stealing scheduler
    # drains the slowest session first, and the merged result is still
    # byte-identical.
    # ------------------------------------------------------------------
    def plain_sources():
        return [TopKServer(dataset, k) for _ in range(sessions)]

    start = time.perf_counter()
    stolen = crawl_partitioned(
        plain_sources(),
        plan,
        CrawlSpec(executor="process", max_workers=sessions),
    )
    proc_seconds = time.perf_counter() - start
    reference = crawl_partitioned(plain_sources(), plan)
    assert stolen.rows == reference.rows  # stealing never changes rows
    assert stolen.cost == reference.cost
    assert stolen.progress == reference.progress
    print(
        f"process+steal   : {proc_seconds:.2f}s, "
        f"{stolen.cost} queries across {stolen.plan.sessions} sessions; "
        "byte-identical to sequential"
    )


if __name__ == "__main__":
    main()
