"""CLI: serve multi-tenant crawl jobs over a durable SQLite store.

``repro-serve`` (also ``python -m repro.service``) drives
:class:`~repro.service.api.CrawlService` from a *jobs file* -- tenants
with their quotas, plus one entry per crawl job::

    {
      "tenants": {"acme": {"budget": 500}, "umbrella": {}},
      "jobs": [
        {"tenant": "acme", "name": "demo", "csv": "demo.csv", "k": 64,
         "algorithm": "hybrid", "workers": 2}
      ]
    }

A job entry needs ``tenant``, ``name``, ``csv`` and ``k``, and may set
``seed`` and the batch CLI's crawl flags ``algorithm``, ``workers``,
``executor`` and ``shard_subtrees``: both front ends build their
:class:`~repro.crawl.spec.CrawlSpec` through the one
:func:`~repro.crawl.spec.spec_from_args` mapping, so a flag cannot mean
two things.  Two service-only keys ride along: ``priority`` (integer
admission class; higher classes drain strictly first) and ``backend``
(override the server's unit backend for one job).  Any other key -- a
misspelt or a retired one -- is an error, because ignoring it would run
a different crawl.  ``run`` checks every entry (keys, CSV, crawl flags)
and exits 2 on the first bad one before it submits any job.  Usage::

    repro-serve run jobs.json --store crawl.db --fleet 4
    repro-serve run jobs.json --store crawl.db --backend process
    repro-serve status --store crawl.db
    repro-serve rows --store crawl.db --tenant acme --name demo

``--backend process`` crawls region units on a worker-process pool
(per-tenant limits hosted on a coordinator process, admission
exactly-once); ``--max-pending N`` bounds each tenant's pending +
running jobs -- the CLI then waits for a slot and resubmits when the
service refuses with ``RetryAfter``.

``run`` submits every job (resuming any with committed regions already
in the store -- those re-issue zero queries), waits for the fleet, and
prints one status line per job; it exits 0 only when every job is
done.  ``status`` lists the store's jobs with their committed
progress.  ``rows`` prints a job's committed rows (merge-ordered,
mid-crawl included) as comma-separated values, or writes them to
``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

from repro.crawl.spec import spec_from_args
from repro.datasets.io import load_csv
from repro.exceptions import ReproError, RetryAfter
from repro.service.api import CrawlService
from repro.service.jobs import BACKENDS, DEFAULT_FLEET, JobState
from repro.service.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve multi-tenant crawl jobs over a durable "
        "SQLite store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="submit a jobs file and wait for the fleet"
    )
    run.add_argument("jobs", help="jobs file (JSON: tenants + jobs)")
    run.add_argument(
        "--store", required=True, help="SQLite result store path"
    )
    run.add_argument(
        "--fleet",
        type=int,
        default=DEFAULT_FLEET,
        help=f"shared worker fleet size (default: {DEFAULT_FLEET})",
    )
    run.add_argument(
        "--backend",
        choices=BACKENDS,
        default="thread",
        help="where region units crawl (default: thread; a job entry's "
        "'backend' key overrides per job)",
    )
    run.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="per-tenant bound on pending + running jobs (default: "
        "unbounded); the CLI waits and resubmits on refusal",
    )

    status = commands.add_parser(
        "status", help="list the store's jobs and committed progress"
    )
    status.add_argument("--store", required=True)
    status.add_argument(
        "--tenant", default=None, help="restrict to one tenant"
    )

    rows = commands.add_parser(
        "rows", help="print a job's committed rows, merge-ordered"
    )
    rows.add_argument("--store", required=True)
    rows.add_argument("--tenant", required=True)
    rows.add_argument("--name", required=True)
    rows.add_argument(
        "--output", default=None, help="write rows here instead of stdout"
    )
    rows.add_argument(
        "--offset",
        type=int,
        default=0,
        help="skip this many rows of the merge order (default: 0)",
    )
    rows.add_argument(
        "--limit",
        type=int,
        default=None,
        help="print at most this many rows (default: all)",
    )
    return parser


def _status_line(status) -> str:
    state = getattr(status, "state", None)
    label = state.value if state is not None else status["status"]
    get = (
        (lambda key: getattr(status, key))
        if state is not None
        else status.__getitem__
    )
    line = (
        f"{get('tenant')}/{get('name')}: {label} "
        f"[{get('regions_done')}/{get('regions_total')} regions, "
        f"{get('cost')} queries, {get('tuples')} tuples]"
    )
    priority = get("priority")
    if priority:
        line += f" (priority {priority})"
    error = get("error")
    if error:
        line += f" -- {error}"
    return line


#: Every key a job entry may carry: exactly what :func:`_run` and
#: :func:`~repro.crawl.spec.spec_from_args` read.
_JOB_KEYS = frozenset(
    "tenant name csv k seed priority workers algorithm executor backend "
    "shard_subtrees".split()
)


def _entry_error(entry: dict) -> str | None:
    """Why a job entry cannot run, or ``None`` when it can."""
    for field in ("tenant", "name", "csv", "k"):
        if field not in entry:
            return f"job entry missing {field!r}: {entry}"
    unknown = ", ".join(repr(key) for key in entry if key not in _JOB_KEYS)
    if unknown:
        return (
            f"job entry has unknown key {unknown}: {entry} (accepted: "
            f"{', '.join(sorted(_JOB_KEYS))})"
        )
    return None


def _run(args) -> int:
    try:
        with open(args.jobs) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load {args.jobs}: {exc}", file=sys.stderr)
        return 2
    entries = config.get("jobs", [])
    if not entries:
        print(f"error: {args.jobs} declares no jobs", file=sys.stderr)
        return 2
    # Everything is checked before the first submission: a bad entry
    # must not leave the entries before it half-crawled.
    datasets = {}
    specs = []
    for entry in entries:
        error = _entry_error(entry)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        path = entry["csv"]
        try:
            if path not in datasets:
                datasets[path] = load_csv(path)
        except (OSError, ReproError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 2
        try:
            specs.append(spec_from_args(SimpleNamespace(**entry)))
        except ValueError as exc:
            print(f"error: job {entry['name']!r}: {exc}", file=sys.stderr)
            return 2
    with CrawlService(
        args.store,
        workers=args.fleet,
        backend=args.backend,
        max_pending=args.max_pending,
    ) as service:
        for tenant, quota in config.get("tenants", {}).items():
            service.register_tenant(
                tenant,
                budget=quota.get("budget"),
                per_day=quota.get("per_day"),
            )
        submitted = []
        for entry, spec in zip(entries, specs):
            while True:
                try:
                    job_id = service.submit(
                        entry["tenant"],
                        datasets[entry["csv"]],
                        int(entry["k"]),
                        name=entry["name"],
                        spec=spec,
                        sessions=entry.get("workers"),
                        seed=int(entry.get("seed", 0)),
                        priority=int(entry.get("priority", 0)),
                    )
                    break
                except RetryAfter as refusal:
                    # Backpressure, not failure: the tenant is at its
                    # pending bound.  Wait for one of its jobs to
                    # drain, then resubmit this entry.
                    print(
                        f"waiting: {refusal}",
                        file=sys.stderr,
                    )
                    service.wait_for_slot(entry["tenant"])
            submitted.append(job_id)
        failed = 0
        for job_id in submitted:
            status = service.wait(job_id)
            print(_status_line(status))
            if status.state is not JobState.DONE:
                failed += 1
    return 1 if failed else 0


def _status(args) -> int:
    with ResultStore(args.store) as store:
        jobs = store.list_jobs(args.tenant)
    if not jobs:
        print("no jobs in store")
        return 0
    for snapshot in jobs:
        print(_status_line(snapshot))
    return 0


def _rows(args) -> int:
    with ResultStore(args.store) as store:
        job_id = store.find_job(args.tenant, args.name)
        if job_id is None:
            print(
                f"error: no job {args.tenant}/{args.name} in "
                f"{args.store}",
                file=sys.stderr,
            )
            return 2
        rows = store.rows(job_id, offset=args.offset, limit=args.limit)
    lines = "".join(",".join(str(v) for v in row) + "\n" for row in rows)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(lines)
        print(f"{len(rows)} rows written to {args.output}")
    else:
        sys.stdout.write(lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "status":
        return _status(args)
    return _rows(args)


if __name__ == "__main__":
    raise SystemExit(main())
