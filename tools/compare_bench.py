#!/usr/bin/env python3
"""Benchmark regression gate: compare a run against a committed baseline.

The benchmark suite writes machine-readable reports
(``BENCH_executors.json``, ``BENCH_subtree_sharding.json``); CI used to
upload them as artifacts nobody compared.  This tool closes the loop:
it compares the *speedup ratios* of a fresh run against the committed
baseline under ``benchmarks/baselines/`` and fails when a ratio
regressed by more than the tolerance (default 25%).

Ratios, not seconds: absolute wall-clock times differ wildly between a
laptop and a CI runner, but "the process backend is X times faster than
threads" and "subtree sharding is X times faster than whole-region
stealing" are properties of the code.  Metrics that only mean anything
on several cores (everything measured against the GIL) are skipped
unless *both* the baseline and the current run saw >= 2 CPUs, so a
single-core baseline never produces a vacuous pass-or-fail against a
multi-core runner -- the skip is printed, never silent.

Usage::

    python tools/compare_bench.py \
        --baseline benchmarks/baselines/BENCH_executors.json \
        --current BENCH_executors.json

    # refresh a committed baseline from the current run
    python tools/compare_bench.py --baseline ... --current ... --update
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Gated metrics, by dotted path into the report dict, with the
#: conditions under which a comparison is meaningful.  ``direction``
#: is ``"higher"`` (default; speedup ratios) or ``"lower"`` (counts
#: where growth is the regression, e.g. coordinator round trips).
METRICS: dict[str, dict] = {
    "process_over_thread": {"min_cpus": 2},
    "speedup_vs_sequential.thread": {"min_cpus": 2},
    "speedup_vs_sequential.process": {"min_cpus": 2},
    "sharding_over_region_stealing": {},
    # Shared-limit control-plane chatter: more round trips than the
    # baseline means per-query admission crept back in.
    "coordinator_round_trips": {"direction": "lower"},
    # The lease bench's own leased count (a nested entry; absent from
    # the executors report).  The ratio below alone would pass chatter
    # that grows on both sides at once.
    "coordinator_round_trips.leased": {"direction": "lower"},
    # Lease batching's round-trip win over per-query admission.
    "round_trip_reduction": {},
    # Queries a resume from a complete checkpoint re-issues; the
    # baseline is 0 and any growth means resume re-crawls finished
    # regions.
    "reissued_on_resume": {"direction": "lower"},
    # Job-service throughput under contention (8 tenants over a
    # 4-worker fleet, latency-dominated so the ratio is a scheduler
    # property, not a host property).
    "jobs_per_sec": {},
    # The fairness tail: submission to first committed row, worst
    # tenant.  Growth means the rotation stopped protecting late
    # tenants from earlier jobs' queues.
    "p99_time_to_first_row_s": {"direction": "lower"},
    # The service's multi-core win: the CPU-bound tenant burst under
    # backend=process vs backend=thread.  Only meaningful off the
    # GIL's one core, like every other process-vs-thread ratio.
    "service_process_over_thread": {"min_cpus": 2},
    # Per-backend throughput of the CPU-bound burst; the thread side
    # is GIL-bound and comparable on any host.
    "backends.thread.jobs_per_sec": {},
    "backends.process.jobs_per_sec": {"min_cpus": 2},
    # Single-core hot path (BENCH_hot_path.json).  The speedup of the
    # compiled inner loop over the frozen interpreted reference is a
    # property of the code and gates on any host; sequential
    # queries/sec is throughput on one core -- same-class CI runners
    # keep it within tolerance, and a host change is what the
    # refresh procedure in docs/performance.md is for.
    "hot_path_speedup": {"min_cpus": 1},
    "queries_per_sec": {"min_cpus": 1},
    # Battery batching: one full DFS crawl with sibling batteries
    # (shared engine context, one lock acquisition, merged accounting)
    # vs the per-query loop, byte-identical results asserted in-bench.
    # A drop means the epoch seam stopped sharing work.
    "battery_speedup": {"min_cpus": 1},
    "battery_queries_per_sec": {"min_cpus": 1},
    # Pickled process payload of the workload's per-session sources
    # (both the hot-path and the service report carry one).  Growth
    # means rebuildable engine caches or duplicate matrices crept back
    # into what every pool worker receives.
    "payload_bytes": {"direction": "lower"},
}


def lookup(report: dict, dotted: str):
    """Resolve a dotted path in a nested dict; ``None`` when absent."""
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare(
    baseline: dict, current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """(regressions, notes) from comparing every applicable metric."""
    regressions: list[str] = []
    notes: list[str] = []
    baseline_cpus = int(baseline.get("cpu_count") or 1)
    current_cpus = int(current.get("cpu_count") or 1)
    if baseline.get("scale") != current.get("scale"):
        notes.append(
            f"note: scale differs (baseline {baseline.get('scale')}, "
            f"current {current.get('scale')}); ratios are still compared"
        )
    for metric, requirements in METRICS.items():
        expected = lookup(baseline, metric)
        measured = lookup(current, metric)
        if expected is None or measured is None:
            continue  # metric not in this report pair
        if not isinstance(expected, (int, float)) or not isinstance(
            measured, (int, float)
        ):
            # A nested breakdown under the metric's name (e.g. the
            # lease report's per-mode round-trip counts); the gate
            # compares only scalars, reached by their dotted paths.
            continue
        min_cpus = requirements.get("min_cpus", 1)
        if min(baseline_cpus, current_cpus) < min_cpus:
            notes.append(
                f"skip {metric}: needs >= {min_cpus} CPUs on both sides "
                f"(baseline {baseline_cpus}, current {current_cpus})"
            )
            continue
        if requirements.get("direction", "higher") == "lower":
            ceiling = expected * (1 + tolerance)
            regressed = measured > ceiling
            notes.append(
                f"{'REGRESSION' if regressed else 'ok'} {metric}: "
                f"baseline {expected:.2f}, current {measured:.2f} "
                f"(ceiling {ceiling:.2f}, lower is better)"
            )
        else:
            floor = expected * (1 - tolerance)
            regressed = measured < floor
            notes.append(
                f"{'REGRESSION' if regressed else 'ok'} {metric}: "
                f"baseline {expected:.2f}x, current {measured:.2f}x "
                f"(floor {floor:.2f}x)"
            )
        if regressed:
            regressions.append(metric)
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/compare_bench.py",
        description="Fail when a benchmark speedup regressed vs baseline.",
    )
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON"
    )
    parser.add_argument(
        "--current", required=True, help="freshly measured JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression (default: 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline with the current report instead "
        "of comparing",
    )
    args = parser.parse_args(argv)
    current_path = Path(args.current)
    baseline_path = Path(args.baseline)
    if not current_path.exists():
        print(f"error: current report {current_path} missing")
        return 2
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(current_path, baseline_path)
        print(f"baseline updated: {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(f"error: baseline {baseline_path} missing (--update to seed)")
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = json.loads(current_path.read_text(encoding="utf-8"))
    regressions, notes = compare(baseline, current, args.tolerance)
    print(f"compare {current_path} vs {baseline_path}:")
    for note in notes:
        print(f"  {note}")
    if regressions:
        print(
            f"benchmark regression(s) beyond {args.tolerance:.0%}: "
            + ", ".join(regressions)
        )
        print(
            f"  compared against: {baseline_path} "
            f"(baseline cpu_count {baseline.get('cpu_count')}, "
            f"current cpu_count {current.get('cpu_count')})"
        )
        print(
            "  if the host class changed rather than the code, refresh "
            "the baseline (see docs/performance.md): "
            f"python tools/compare_bench.py --baseline {baseline_path} "
            f"--current {current_path} --update"
        )
        return 1
    print("benchmark gate: no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
