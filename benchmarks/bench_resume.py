"""Checkpoint/resume: a killed crawl restarts without re-paying queries.

The paper's crawls run against per-IP query quotas measured in days
(Section 1 of Sheng et al.); a real deployment is therefore a sequence
of budget-exhausted kills and restarts.  PR 6 made restarts free:
``CheckpointWriter`` atomically persists every completed region (plus
the budget's charge state), and resuming pre-files those regions into
the merge so the finished prefix costs **zero** server queries.

This benchmark crawls one plan on the thread backend while
checkpointing at every region boundary, snapshots the checkpoint at the
midpoint, and resumes twice on fresh servers:

* from the *full* checkpoint -- the output must be byte-identical and
  the resumed crawl must issue **0 queries** (``reissued_on_resume``,
  the CI-gated metric: any value above the committed baseline of 0
  means resume started re-crawling finished work),
* from the *midpoint* snapshot -- byte-identical again, and the
  queries actually issued must be exactly the baseline cost of the
  unfinished suffix (no overlap with the restored prefix).

Measurements land in ``BENCH_resume.json`` (path overridable via
``REPRO_BENCH_RESUME_OUT``) for ``tools/compare_bench.py``.
"""

import json
import os
import shutil
import threading
import time

import numpy as np

from benchmarks.conftest import bench_scale
from repro.crawl.checkpoint import CheckpointWriter, load_crawl_checkpoint
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.server.server import TopKServer

K = 24
SESSIONS = 3
#: Every crawl here runs on two worker threads.
THREADS = CrawlSpec(executor="thread", max_workers=2)


def crawl_dataset(n: int, seed: int = 23) -> Dataset:
    """A mixed-space dataset large enough for a multi-region plan."""
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
    path = os.environ.get("REPRO_BENCH_RESUME_OUT", "BENCH_resume.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return path


def assert_identical(resumed, reference, label):
    assert resumed.rows == reference.rows, label
    assert resumed.cost == reference.cost, label
    assert resumed.progress == reference.progress, label
    assert resumed.session_costs() == reference.session_costs(), label


def test_resume_reissues_zero_queries(benchmark, tmp_path):
    """Kill + resume is byte-identical and the finished prefix is free."""
    n = max(1200, int(6000 * bench_scale()))
    dataset = crawl_dataset(n)
    plan = partition_space(dataset.space, SESSIONS)

    def sources():
        return [TopKServer(dataset, K) for _ in range(SESSIONS)]

    reference = crawl_partitioned(sources(), plan)

    path = tmp_path / "crawl.json"
    midpoint_path = tmp_path / "crawl.midpoint.json"
    midpoint_at = len(plan.regions) // 2
    measurements = {}

    def checkpointed_crawl():
        writer = CheckpointWriter(path, plan, K)
        writer.write()
        done = []
        snapshot_lock = threading.Lock()

        def on_region(key, result):
            # One lock around write + copy so the midpoint snapshot
            # holds exactly ``midpoint_at`` regions.
            with snapshot_lock:
                writer.region_done(key, result)
                done.append(key)
                if len(done) == midpoint_at:
                    shutil.copy(path, midpoint_path)

        result, seconds = timed(
            lambda: crawl_partitioned(
                sources(),
                plan,
                THREADS.replace(on_region=on_region),
            )
        )
        measurements["interrupted"] = (result, seconds)

    benchmark.pedantic(checkpointed_crawl, rounds=1, iterations=1)
    first, first_seconds = measurements["interrupted"]
    assert_identical(first, reference, "checkpointed crawl")

    # Resume from the full checkpoint: every region restored, zero
    # queries reach any server.
    checkpoint = load_crawl_checkpoint(path, plan, K)
    assert len(checkpoint.completed) == len(plan.regions)
    full_sources = sources()
    resumed, resume_seconds = timed(
        lambda: crawl_partitioned(
            full_sources,
            plan,
            THREADS.replace(completed=checkpoint.completed),
        )
    )
    assert_identical(resumed, reference, "full resume")
    reissued = sum(source.stats.queries for source in full_sources)

    # Resume from the midpoint kill: the restored prefix is free, so
    # the resumed crawl must issue strictly fewer queries than an
    # uninterrupted crawl of the whole plan.
    snapshot = load_crawl_checkpoint(midpoint_path, plan, K)
    assert len(snapshot.completed) == midpoint_at
    baseline = sources()
    crawl_partitioned(baseline, plan)
    total_queries = sum(source.stats.queries for source in baseline)
    mid_sources = sources()
    mid_resumed, _ = timed(
        lambda: crawl_partitioned(
            mid_sources,
            plan,
            THREADS.replace(completed=snapshot.completed),
        )
    )
    assert_identical(mid_resumed, reference, "midpoint resume")
    midpoint_reissued = sum(source.stats.queries for source in mid_sources)

    report = {
        "workload": "checkpoint at every region boundary, kill, resume",
        "cpu_count": os.cpu_count(),
        "scale": bench_scale(),
        "n": dataset.n,
        "sessions": SESSIONS,
        "regions": len(plan.regions),
        "total_queries": total_queries,
        "reissued_on_resume": reissued,
        "midpoint": {
            "regions_restored": midpoint_at,
            "queries_issued": midpoint_reissued,
        },
        "seconds": {
            "checkpointed_crawl": round(first_seconds, 3),
            "full_resume": round(resume_seconds, 3),
        },
    }
    path_out = write_report(report)
    benchmark.extra_info.update(report)
    benchmark.extra_info["report_path"] = path_out

    assert reissued == 0, (
        f"resume from a complete checkpoint re-issued {reissued} "
        "queries; the restored prefix must be free"
    )
    assert midpoint_reissued < total_queries, (
        f"midpoint resume issued {midpoint_reissued} of "
        f"{total_queries} total queries; the restored prefix was "
        "re-crawled"
    )
