"""perfbench: the repo's end-to-end benchmark, layer-traced from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl_categorical --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve_burst --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1      # every workload, untraced
    python3 perfbench/run.py --selftest          # tiny sizes, gate checks

Each repetition runs in a fresh interpreter (``child.py``) that enters
the program only through ``repro.crawl``'s CLI ``main(argv)`` or the
``CrawlService`` API.  Untraced runs repeat the workload for about
``--seconds`` and report the median of each end-to-end metric; traced
runs print the per-layer table (see README.md).  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
clock = time.monotonic

#: Repetitions per untraced run: at least this many, whatever --seconds.
MIN_REPS = 3
#: A run never starts a repetition that would end past this many seconds.
RUN_LIMIT_S = 165.0
#: One repetition that takes longer than this has hung.
REP_TIMEOUT_S = 150.0


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def check_checkout() -> None:
    """Refuse to run without the program's sources next to us."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository"
        )
    sys.path.insert(0, str(ROOT / "src"))


def prepare(workload: dict, seed: int) -> dict:
    """Generate the workload's inputs (untimed); return child settings.

    The serve workload's correctness reference is built here too: one
    standalone partitioned CLI crawl per dataset, same ``k``, sessions
    and seed as the jobs, reduced to a digest of its rows in order.
    """
    import contextlib
    import io

    from workloads import dataset_csv, rows_digest

    WORK.mkdir(exist_ok=True)
    if workload["kind"] == "cli":
        csv = dataset_csv(WORK, *workload["dataset"])
        return {"csv": str(csv)}
    from repro.crawl.__main__ import main as crawl_main
    from repro.datasets.io import load_csv

    csvs = [dataset_csv(WORK, *spec) for spec in workload["datasets"]]
    reference = []
    for csv in csvs:
        out = WORK / f"reference-{os.getpid()}.csv"
        argv = [str(csv), "--k", str(workload["k"]),
                "--workers", str(workload["sessions"]),
                "--seed", str(seed), "--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = crawl_main(argv)
        if code != 0:
            raise SystemExit(f"perfbench: reference crawl failed: {argv}")
        reference.append(rows_digest(load_csv(out).rows))
        out.unlink()
    return {"csvs": [str(csv) for csv in csvs], "reference": reference}


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def run_rep(workload: dict, inputs: dict, seed: int, *, trace: bool,
            argv_key: str = "argv", drop_row: bool = False) -> dict:
    """Spawn one fresh interpreter for one repetition; return its record."""
    config = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "drop_row": drop_row,
    }
    store = None
    if workload["kind"] == "cli":
        config["argv"] = [inputs["csv"], *workload[argv_key],
                          "--seed", str(seed)]
    else:
        store = WORK / f"store-{os.getpid()}.db"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
        config.update(inputs, store=str(store))
    config["spawn"] = clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: a repetition hung; killed it")
    finally:
        if store is not None:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{store}{suffix}").unlink(missing_ok=True)
    lines = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH_REP ")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise SystemExit(
            f"perfbench: repetition exited {proc.returncode} without a "
            "record"
        )
    record = json.loads(lines[-1][len("PERFBENCH_REP "):])
    expected = str(ROOT / "src" / "repro")
    if not record["repro_file"].startswith(expected):
        raise SystemExit(
            f"perfbench: imported {record['repro_file']}, not {expected}"
        )
    if record["setup_end"] is None:
        raise SystemExit(
            f"perfbench: no end-of-set-up mark; probes missing: "
            f"{record['missing']}"
        )
    return record


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(records: list[dict]) -> dict:
    """End-to-end numbers over a run's untraced repetitions.

    Times are the median over repetitions, memory the maximum.  The
    burst's latency percentiles pool every repetition's samples, so
    each percentile keeps at least ten samples beyond it.
    """
    walls = [r["end"] - r["setup_end"] for r in records]
    summary = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_end"] - r["spawn"]
                                     for r in records),
        # The gate checks that every repetition reports this same count.
        "queries": records[0]["queries"],
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        # A CLI invocation is one crawl job; the burst runs many.
        "jobs_per_s": statistics.median(r.get("jobs", 1) / wall
                                        for r, wall in zip(records, walls)),
        "total_s": statistics.median(r["end"] - r["spawn"] for r in records),
    }
    if "first_rows" in records[0]:
        first = [v for r in records for v in r["first_rows"]]
        reads = [v for r in records for v in r["read_latencies"]]
        summary.update({
            "first_row_p50_s": percentile(first, 0.50),
            "first_row_p90_s": percentile(first, 0.90),
            "first_row.samples": len(first),
            "read_p50_s": percentile(reads, 0.50),
            "read_p99_s": percentile(reads, 0.99),
            "read.samples": len(reads),
        })
    return summary


# ----------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ----------------------------------------------------------------------
def measure(workload: dict, inputs: dict, seed: int, seconds: float,
            started: float) -> list[dict]:
    """Repeat the workload for about ``seconds``, at least MIN_REPS times."""
    records = []
    begin = clock()
    while True:
        records.append(run_rep(workload, inputs, seed, trace=False))
        elapsed = clock() - begin
        per_rep = elapsed / len(records)
        if len(records) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if clock() - started + 1.5 * per_rep > RUN_LIMIT_S:
            break
    return records


def gate(records: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Correctness over every repetition: (correct, attempted, failed)."""
    problems = []
    for record in records:
        if not record["ok"]:
            problems.append(
                f"repetition failed its gate (exit code "
                f"{record.get('exit_code')}): {record.get('stdout_tail')}")
    counts = {record["queries"] for record in records}
    if len(counts) > 1:
        problems.append(f"query count not exact across repetitions: "
                        f"{sorted(counts)}")
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    return not problems and failed == 0, attempted, failed, problems


# ----------------------------------------------------------------------
# Traced runs: the per-layer table
# ----------------------------------------------------------------------
def crawl_split(record: dict, span: float, prefix: str = "") -> dict:
    """Split an in-thread crawl span with the profiling seam's phases.

    ``span`` is the crawl's wall clock (end of set-up to verify).  The
    seam's ``client.server_wait`` is the part spent inside the server;
    of that, ``server.engine_top`` is the engine and the rest is
    admission.  ``runtime.region`` spans the region crawls, so the span
    outside them is the runtime's own dispatch and merge time.
    """
    phases = record["phases"]

    def seconds(name):
        return phases.get(name, {}).get("seconds", 0.0)

    def calls(name):
        return phases.get(name, {}).get("calls", 0)

    wait = seconds("client.server_wait")
    engine = seconds("server.engine_top")
    regions = seconds("runtime.region")
    inside = regions if calls("runtime.region") else span
    out = {
        "engine.s": engine,
        "admission.s": wait - engine,
        "crawler.self_s": inside - wait,
        "runtime.self_s": span - inside,
        "engine.calls": calls("server.engine_top"),
        "engine.us_per_query": (
            1e6 * engine / calls("server.engine_top")
            if calls("server.engine_top") else 0.0
        ),
        "client.hits": calls("client.cache_hit"),
        "client.misses": calls("client.cache_miss"),
        "runtime.region.s": regions,
        "runtime.regions": calls("runtime.region"),
    }
    return {prefix + name: value for name, value in out.items()}


def layer_table(workload: dict, traced: dict, untraced: dict,
                inthread: dict | None) -> tuple[dict, list[tuple]]:
    """Per-layer metrics and the rows of the additive table.

    Table rows are ``(name, seconds, counted)``: counted rows add up,
    with ``trace.unattributed_s``, to the traced wall clock (interpreter
    start to result).  On ``serve_burst`` the fleet's rows are summed
    over its threads, so they enter the sum divided by the fleet size;
    the submitting main thread and the reader run beside the fleet and
    are shown uncounted.
    """
    seconds = traced["seconds"]
    counts = traced["counts"]
    wall = traced["end"] - traced["spawn"]
    m = {
        "import_s": traced["imported"] - traced["spawn"],
        "load.s": seconds.get("load", 0.0),
        "plan.s": seconds.get("plan", 0.0),
        "plan.regions": counts.get("plan.regions", 0),
        "server_build.s": seconds.get("server_build", 0.0),
        "verify.s": seconds.get("verify", 0.0),
        "runtime.payload_bytes": counts.get("runtime.payload_bytes", 0),
        "trace.wall_s": wall,
        "trace.overhead": wall / untraced["total_s"] - 1.0,
    }
    rows: list[tuple] = [("import_s", m["import_s"], True),
                         ("load.s", m["load.s"], True)]
    if workload["kind"] == "cli":
        span = (traced["crawl_end"] or traced["end"]) - traced["setup_end"]
        rows += [("plan.s", m["plan.s"], True),
                 ("server_build.s", m["server_build.s"], True)]
        if traced["phases"].get("client.server_wait"):
            m.update(crawl_split(traced, span))
            rows += [(name, m[name], True) for name in (
                "crawler.self_s", "admission.s", "engine.s",
                "runtime.self_s")]
        else:
            # Process backend: worker-side layers stay in the workers.
            m["runtime.executor_s"] = span
            rows.append(("runtime.executor_s", span, True))
        rows.append(("verify.s", m["verify.s"], True))
        m["queries.local"] = traced["queries"] - m.get("engine.calls", 0)
    else:
        fleet = workload["fleet"]
        m.update(crawl_split(traced, 0.0))
        phases = traced["phases"]
        unit = phases.get("runtime.region_unit", {}).get("seconds", 0.0)
        m["runtime.self_s"] = unit - m["runtime.region.s"]
        m.update({
            "service.start_s": seconds.get("service.start", 0.0),
            "jobs.submit_s": seconds.get("jobs.submit", 0.0),
            "store.commits": traced["calls"].get("store.commit", 0),
            "store.commit_s": seconds.get("store.commit", 0.0),
            "store.reads": traced["reads"],
            "store.read_s": traced["read_service_s"],
            "reader.late_max_s": traced["reader_late_max_s"],
            "budget.charged": traced["charged"],
            "queries.local": traced["queries"] - m["engine.calls"],
        })
        m.update({name: untraced[name] for name in (
            "first_row_p50_s", "first_row_p90_s", "first_row.samples",
            "read_p50_s", "read_p99_s", "read.samples")})
        rows.append(("service.start_s", m["service.start_s"], True))
        for name in ("crawler.self_s", "admission.s", "engine.s",
                     "runtime.self_s", "store.commit_s"):
            rows.append((f"{name} / fleet {fleet}", m[name] / fleet, True))
        rows += [("jobs.submit_s (main thread)", m["jobs.submit_s"], False),
                 ("  of which plan.s", m["plan.s"], False),
                 ("  of which server_build.s", m["server_build.s"], False),
                 ("store.read_s (reader thread)", m["store.read_s"], False)]
    counted = sum(value for _, value, on in rows if on)
    m["trace.unattributed_s"] = wall - counted
    rows.append(("trace.unattributed_s", m["trace.unattributed_s"], True))
    if inthread is not None:
        span = ((inthread["crawl_end"] or inthread["end"])
                - inthread["setup_end"])
        m["inthread.wall_s"] = span
        m.update(crawl_split(inthread, span, "inthread."))
        m["queries.local"] = inthread["queries"] - m["inthread.engine.calls"]
    return m, rows


def print_table(title: str, rows: list[tuple], total: float,
                total_name: str = "traced wall") -> None:
    print(f"{title}")
    print(f"  {'layer':<34} {'seconds':>10} {'share':>7}")
    for name, value, counted in rows:
        share = f"{100 * value / total:6.1f}%" if counted else "   side"
        print(f"  {name:<34} {value:>10.4f} {share}")
    counted = sum(value for _, value, on in rows if on)
    print(f"  {'= ' + total_name:<34} {counted:>10.4f} {100.0:6.1f}%")


def traced_run(name: str, workload: dict, inputs: dict, seed: int):
    """MIN_REPS untraced repetitions, then one traced (and in-thread).

    The untraced ones give ``trace.overhead``'s denominator and the
    burst's latency percentiles, which are measured with tracing off.
    """
    plain = measure(workload, inputs, seed, 0.0, clock())
    untraced = summarize(plain)
    traced = run_rep(workload, inputs, seed, trace=True)
    inthread = None
    if "inthread_argv" in workload:
        inthread = run_rep(workload, inputs, seed, trace=True,
                           argv_key="inthread_argv")
    records = plain + [traced] + ([inthread] if inthread else [])
    metrics, rows = layer_table(workload, traced, untraced, inthread)
    if workload.get("pin_one_cpu"):
        # What pinning hides: the same burst free to use every CPU.
        free = run_rep({**workload, "pin_one_cpu": False}, inputs, seed,
                       trace=False)
        records.append(free)
        metrics["unpinned.wall_s"] = free["end"] - free["setup_end"]
    print_table(f"{name}: per-layer table (traced wall "
                f"{metrics['trace.wall_s']:.3f} s)", rows,
                metrics["trace.wall_s"])
    if inthread is not None:
        span = metrics["inthread.wall_s"]
        print_table(
            f"{name}: in-thread pass of the same plan (--executor "
            f"sequential), crawl span {span:.3f} s",
            [(f"inthread.{n}", metrics[f"inthread.{n}"], True) for n in (
                "crawler.self_s", "admission.s", "engine.s",
                "runtime.self_s")],
            span,
            "crawl span",
        )
    missing = sorted({m for r in records for m in r["missing"]})
    if missing:
        print(f"{name}: probes not installed (names gone): {missing}")
    return metrics, records


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def host_facts(name: str, workload: dict, seed: int, reps: int) -> dict:
    import numpy

    sizes = {key: value for key, value in workload.items() if key != "kind"}
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repetitions": reps,
        "sizes": sizes,
    }


def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool, bench: dict) -> dict:
    """One run of one workload: the result object the last line prints."""
    started = clock()
    inputs = prepare(workload, seed)
    if trace:
        values, records = traced_run(name, workload, inputs, seed)
        specs = bench["per_layer"]
    else:
        records = measure(workload, inputs, seed, seconds, started)
        values = summarize(records)
        specs = bench["end_to_end"]
        walls = [r["end"] - r["setup_end"] for r in records]
        print(f"{name}: wall_s per repetition: "
              + " ".join(f"{w:.4f}" for w in walls))
        extra = ("first_row_p50_s", "first_row_p90_s", "read_p50_s",
                 "read_p99_s")
        if "read_p50_s" in values:
            print(f"{name}: burst latencies (tracing off): " + ", ".join(
                f"{key}={values[key]:.6g} s" for key in extra)
                + f" over {values['first_row.samples']} jobs and "
                f"{values['read.samples']} reads")
            if values["first_row.samples"] < 100 or \
                    values["read.samples"] < 1000:
                print(f"{name}: NOTE: fewer than ten samples lie beyond "
                      "first_row_p90_s or read_p99_s in this run")
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0),
                       "unit": spec["unit"]}
        for spec in specs
    }
    if not trace:
        print(f"{name}: " + ", ".join(
            f"{key}={m['value']:.6g} {m['unit']}"
            for key, m in metrics.items()))
    correct, attempted, failed, problems = gate(records)
    for problem in problems:
        print(f"{name}: GATE: {problem}")
    print("facts: " + json.dumps(host_facts(name, workload, seed,
                                            len(records))))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def selftest() -> int:
    """Tiny sizes: every metric printed with its unit; a dropped row fails.

    Runs each workload untraced and traced through the same code as a
    real run, then once more with one extracted row dropped before the
    gate looks at it -- that run must come out ``correct: false``.
    """
    from workloads import SELFTEST

    bench = load_benchmark()
    names = {w["name"] for w in bench["workloads"]}
    errors = []
    if names != set(SELFTEST):
        errors.append(f"BENCHMARK.json workloads {names} != {set(SELFTEST)}")
    for name, workload in SELFTEST.items():
        for trace, specs in ((False, bench["end_to_end"]),
                             (True, bench["per_layer"])):
            result = run_workload(name, workload, 3, 0.0, trace, bench)
            if not result["correct"]:
                errors.append(f"{name} trace={trace}: gate failed")
            for spec in specs:
                got = result["metrics"].get(spec["name"])
                if got is None or got["unit"] != spec["unit"]:
                    errors.append(f"{name}: metric {spec['name']} missing "
                                  f"or not in {spec['unit']}")
            if set(result["metrics"]) != {s["name"] for s in specs}:
                errors.append(f"{name} trace={trace}: extra metrics")
        inputs = prepare(workload, 3)
        record = run_rep(workload, inputs, 3, trace=False, drop_row=True)
        if gate([record])[0]:
            errors.append(f"{name}: a dropped row passed the gate")
    for error in errors:
        print(f"SELFTEST FAIL: {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    check_checkout()
    from workloads import WORKLOADS

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    if args.selftest:
        return selftest()
    if args.all:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    results = [
        run_workload(name, WORKLOADS[name], args.seed, seconds,
                     bool(args.trace), bench)
        for name in names
    ]
    result = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{name}.{key}": value
            for name, r in zip(names, results)
            for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
