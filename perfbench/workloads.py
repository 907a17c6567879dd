"""The three perfbench workloads and the inputs they crawl.

Every input comes from a ``repro.datasets`` generator, so nothing is
downloaded.  The datasets are fixed per workload (the generators'
paper-size instances); the workload seed picks the servers' priority
permutation -- which tuples a top-``k`` answer returns -- so the query
count of a given seed is exact and repeats run to run.

A workload is a plain dict: ``kind`` selects the front door (``cli`` is
``repro.crawl``'s ``main(argv)``, ``serve`` is the ``CrawlService`` API
that ``repro-serve run`` wraps), the rest sizes it.  ``SELFTEST``
holds tiny versions with the same layer mix for ``run.py --selftest``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

WORKLOADS = {
    # Paper-size NSF-like table, 9 categorical attributes, CLI defaults:
    # one hybrid session at k=64.  Crawler bookkeeping dominates.
    "crawl_categorical": {
        "kind": "cli",
        "dataset": ("nsf", {}),
        "argv": ["--k", "64"],
    },
    # Paper-size Adult-like table, 14 mixed attributes, process backend
    # with stealing.  Engine work on numeric ranges dominates; one region
    # carries ~3/4 of the queries and sets the makespan.  (At half size
    # the crawler's share catches up with the engine's, so the mix needs
    # the full table.)
    "crawl_partitioned": {
        "kind": "cli",
        "dataset": ("adult", {}),
        "argv": [
            "--k", "16", "--workers", "2",
            "--executor", "process", "--rebalance",
        ],
        # The traced run repeats the same plan in the calling thread so
        # the worker-side layers become visible (labelled inthread.*).
        "inthread_argv": [
            "--k", "16", "--workers", "2",
            "--executor", "sequential", "--rebalance",
        ],
    },
    # 4 tenants x 12 jobs over a fleet of 2 threads; each job is a
    # 2-session k=64 crawl of one of four 2,000-row Adult-like tables.
    # One reader pages committed rows at a fixed open-loop rate.
    "serve_burst": {
        "kind": "serve",
        "datasets": [("adult", {"n": 2000, "seed": 11 + i}) for i in range(4)],
        "tenants": 4,
        "jobs_per_tenant": 12,
        "k": 64,
        "sessions": 2,
        "fleet": 2,
        "budget": 1_000_000,
        "read_rate": 100.0,
        "read_limit": 100,
        # The thread backend runs Python on one core at a time anyway.
        # Unpinned on 2 CPUs, the fleet threads hand the interpreter lock
        # across cores at every store commit: measured on a 2-CPU host,
        # that made the burst 37% slower and doubled the spread of its
        # wall clock between repetitions (CV 18% vs 9%, 8 of each,
        # interleaved).
        "pin_one_cpu": True,
    },
}

SELFTEST = {
    "crawl_categorical": {
        **WORKLOADS["crawl_categorical"],
        "dataset": ("nsf", {"n": 3000}),
    },
    "crawl_partitioned": {
        **WORKLOADS["crawl_partitioned"],
        "dataset": ("adult", {"n": 3000}),
    },
    "serve_burst": {
        **WORKLOADS["serve_burst"],
        "datasets": [("adult", {"n": 300, "seed": 11 + i}) for i in range(2)],
        "tenants": 2,
        "jobs_per_tenant": 3,
        "read_rate": 400.0,
    },
}


def dataset_csv(work: Path, generator: str, params: dict) -> Path:
    """Generate a dataset once per checkout; return its CSV path.

    The file name encodes the generator and its parameters, so a cached
    file is reused only for the identical input.  Written to a temporary
    name and renamed, so an interrupted run never leaves a torn CSV.
    """
    from repro import datasets

    tag = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
    path = work / f"{generator}-{tag or 'default'}.csv"
    if not path.exists():
        dataset = getattr(datasets, generator)(**params)
        partial = path.with_suffix(".tmp.csv")
        datasets.save_csv(dataset, partial)
        partial.replace(path)
    return path


def rows_digest(rows) -> str:
    """SHA-256 of a bag's rows in order, one ``a,b,c`` line per row.

    The one canonical byte form both sides of the serve gate are
    compared in: the service's stored rows and the standalone CLI
    reference crawl of the same dataset, ``k`` and seed.
    """
    digest = hashlib.sha256()
    for row in rows:
        digest.update((",".join(str(int(v)) for v in row) + "\n").encode())
    return digest.hexdigest()
