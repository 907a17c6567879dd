"""Durable SQLite result store for the job service.

One database file holds every tenant's jobs: their identity (plan and
data-space signatures, reusing the checkpoint codecs of
:mod:`repro.crawl.checkpoint`), their lifecycle status, every completed
region's result, the extracted rows themselves, and each tenant's exact
admission charge.  Regions land in **one transaction each** -- region
metadata, its rows (batch-inserted) and the tenant's charge snapshot
commit atomically at the executor layer's ``on_region`` boundary -- so
killing the server at any instant loses at most the region in flight,
never a committed one, and a restarted server resumes from the store
re-issuing zero queries.

Rows are stored per (job, session, region index, position) and read
back ordered by exactly that key, which *is* the deterministic merge
order of :func:`~repro.crawl.partition._merge_session_results`: a
mid-crawl ``rows`` query returns a prefix-consistent view of what the
finished crawl will return, byte-identical region by region.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections.abc import Callable
from pathlib import Path

from repro.crawl.base import CrawlResult
from repro.crawl.checkpoint import (
    decode_result,
    encode_result,
    plan_signature,
    space_signature,
)
from repro.crawl.partition import PartitionPlan
from repro.crawl.rebalance import RegionKey
from repro.exceptions import SchemaError

__all__ = ["ResultStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant        TEXT NOT NULL,
    name          TEXT NOT NULL,
    status        TEXT NOT NULL,
    k             INTEGER NOT NULL,
    space         TEXT NOT NULL,
    plan          TEXT NOT NULL,
    regions_total INTEGER NOT NULL,
    priority      INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    UNIQUE (tenant, name)
);
CREATE TABLE IF NOT EXISTS regions (
    job_id       INTEGER NOT NULL REFERENCES jobs (job_id),
    session      INTEGER NOT NULL,
    region_index INTEGER NOT NULL,
    result       TEXT NOT NULL,
    cost         INTEGER NOT NULL,
    tuples       INTEGER NOT NULL,
    PRIMARY KEY (job_id, session, region_index)
);
CREATE TABLE IF NOT EXISTS rows (
    job_id       INTEGER NOT NULL,
    session      INTEGER NOT NULL,
    region_index INTEGER NOT NULL,
    position     INTEGER NOT NULL,
    row          TEXT NOT NULL,
    PRIMARY KEY (job_id, session, region_index, position)
);
CREATE TABLE IF NOT EXISTS tenants (
    tenant TEXT PRIMARY KEY,
    charge TEXT NOT NULL
);
"""

#: Job statuses the store accepts (the service's JobState values).
_STATUSES = frozenset({"pending", "running", "done", "failed", "cancelled"})


class ResultStore:
    """The service's one durable plane: jobs, regions, rows, charges.

    Thread-safe over a single connection (one lock serialises access;
    SQLite's WAL journal keeps each region commit atomic), usable from
    however many fleet workers file regions at once.  Open it as a
    context manager or call :meth:`close`.

    Examples
    --------
    File regions as they complete, query rows mid-crawl::

        with ResultStore("crawl.db") as store:
            job_id, completed = store.open_job("acme", "demo", plan, k)
            store.region_done(job_id, (0, 0), result)
            store.rows(job_id)   # every committed row, merge-ordered
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        # Autocommit mode: every write lands immediately unless wrapped
        # in the explicit BEGIN IMMEDIATE of region_done, whose commit
        # is the one durability boundary that must be atomic.
        self._conn = sqlite3.connect(
            str(self._path), check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            # Databases created before job priorities existed lack the
            # column; add it in place (default 0 = the old behaviour)
            # so an upgraded server opens its old store unchanged.
            columns = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(jobs)")
            }
            if "priority" not in columns:
                self._conn.execute(
                    "ALTER TABLE jobs ADD COLUMN priority "
                    "INTEGER NOT NULL DEFAULT 0"
                )
            self._conn.commit()

    @property
    def path(self) -> Path:
        """The database file."""
        return self._path

    def close(self) -> None:
        """Close the connection (committed state stays on disk)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def open_job(
        self,
        tenant: str,
        name: str,
        plan: PartitionPlan,
        k: int,
        *,
        priority: int = 0,
    ) -> tuple[int, dict[RegionKey, CrawlResult]]:
        """Create -- or resume -- the job ``(tenant, name)``.

        A new job is inserted as ``pending`` with the plan's identity
        embedded.  An existing job is validated against it (same data
        space, same ``k``, same plan -- :class:`SchemaError` otherwise,
        foreign results must never be spliced) and its committed
        regions are returned as a ``completed`` map: pre-file them into
        the executor and those regions re-issue **zero** queries.  A
        non-terminal existing job is reset to ``pending`` (the previous
        server died mid-crawl).  ``priority`` is recorded either way --
        a resubmission may re-class a job (the rows it already
        committed are priority-independent).
        """
        space = json.dumps(space_signature(plan.space))
        signature = json.dumps(plan_signature(plan), sort_keys=True)
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, status, k, space, plan FROM jobs "
                "WHERE tenant = ? AND name = ?",
                (tenant, name),
            ).fetchone()
            if row is None:
                cursor = self._conn.execute(
                    "INSERT INTO jobs (tenant, name, status, k, space, "
                    "plan, regions_total, priority) VALUES (?, ?, "
                    "'pending', ?, ?, ?, ?, ?)",
                    (
                        tenant,
                        name,
                        int(k),
                        space,
                        signature,
                        len(plan.regions),
                        int(priority),
                    ),
                )
                self._conn.commit()
                return int(cursor.lastrowid), {}
            job_id, status, stored_k, stored_space, stored_plan = row
            if int(stored_k) != int(k):
                raise SchemaError(
                    f"job {tenant!r}/{name!r} was stored at "
                    f"k={stored_k}, the submission requests k={k}; "
                    "results would be inconsistent"
                )
            if stored_space != space:
                raise SchemaError(
                    f"job {tenant!r}/{name!r} was stored against a "
                    "different data space; its rows cannot be reused"
                )
            if stored_plan != signature:
                raise SchemaError(
                    f"job {tenant!r}/{name!r} was stored for a "
                    "different partition plan; its regions cannot be "
                    "filed into this plan's positions"
                )
            if status not in ("done", "cancelled"):
                self._conn.execute(
                    "UPDATE jobs SET status = 'pending', error = NULL, "
                    "priority = ? WHERE job_id = ?",
                    (int(priority), job_id),
                )
            else:
                self._conn.execute(
                    "UPDATE jobs SET priority = ? WHERE job_id = ?",
                    (int(priority), job_id),
                )
            self._conn.commit()
            return int(job_id), self._completed(int(job_id), plan)

    def find_job(self, tenant: str, name: str) -> int | None:
        """The job id of ``(tenant, name)``, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id FROM jobs WHERE tenant = ? AND name = ?",
                (tenant, name),
            ).fetchone()
        return int(row[0]) if row is not None else None

    def set_status(
        self, job_id: int, status: str, *, error: str | None = None
    ) -> None:
        """Record a lifecycle transition (with an error for failures)."""
        if status not in _STATUSES:
            raise ValueError(f"unknown job status {status!r}")
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET status = ?, error = ? WHERE job_id = ?",
                (status, error, job_id),
            )
            self._conn.commit()

    def job_status(self, job_id: int) -> dict:
        """One job's durable status row, with live region aggregates.

        ``{"job_id", "tenant", "name", "status", "k", "regions_done",
        "regions_total", "cost", "tuples", "error", "priority"}`` --
        ``cost`` and ``tuples`` sum the *committed* regions, so a
        mid-crawl read reports exactly the progress that would survive
        a kill.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, tenant, name, status, k, regions_total, "
                "error, priority FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            if row is None:
                raise KeyError(f"no job {job_id} in {self._path}")
            done, cost, tuples = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(cost), 0), "
                "COALESCE(SUM(tuples), 0) FROM regions WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        return {
            "job_id": int(row[0]),
            "tenant": row[1],
            "name": row[2],
            "status": row[3],
            "k": int(row[4]),
            "regions_done": int(done),
            "regions_total": int(row[5]),
            "cost": int(cost),
            "tuples": int(tuples),
            "error": row[6],
            "priority": int(row[7]),
        }

    def list_jobs(self, tenant: str | None = None) -> list[dict]:
        """Status rows for every job (optionally one tenant's), by id."""
        with self._lock:
            query = "SELECT job_id FROM jobs"
            params: tuple = ()
            if tenant is not None:
                query += " WHERE tenant = ?"
                params = (tenant,)
            ids = [
                int(row[0])
                for row in self._conn.execute(
                    query + " ORDER BY job_id", params
                )
            ]
        return [self.job_status(job_id) for job_id in ids]

    # ------------------------------------------------------------------
    # Regions and rows
    # ------------------------------------------------------------------
    def region_done(
        self,
        job_id: int,
        key: RegionKey,
        result: CrawlResult,
        *,
        tenant_charge: tuple[str, dict | Callable[[], dict]] | None = None,
    ) -> None:
        """Commit one completed region -- atomically, rows included.

        The executor layer's ``on_region`` seam writes here: region
        metadata, its extracted rows and (when given) the tenant's
        admission-charge snapshot land in a single transaction, so the
        durable state always pairs rows with the queries they cost.
        Re-filing an already-committed region replaces it (idempotent
        -- a resumed job can safely race its own history).

        ``tenant_charge`` may carry the snapshot itself or a callable
        producing it.  Pass a callable when several workers commit for
        the same tenant concurrently: it is evaluated *inside* this
        store's serialized critical section, so the last commit always
        lands the freshest charge -- a snapshot read earlier, in the
        worker, could be overtaken by a sibling's queries and written
        last (a lost update that under-reports the charge).
        """
        session, index = key
        entry = encode_result(result)
        rows = entry.pop("rows")
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO regions (job_id, session, "
                    "region_index, result, cost, tuples) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        session,
                        index,
                        json.dumps(entry),
                        int(result.cost),
                        len(rows),
                    ),
                )
                self._conn.execute(
                    "DELETE FROM rows WHERE job_id = ? AND session = ? "
                    "AND region_index = ?",
                    (job_id, session, index),
                )
                self._conn.executemany(
                    "INSERT INTO rows (job_id, session, region_index, "
                    "position, row) VALUES (?, ?, ?, ?, ?)",
                    (
                        (job_id, session, index, pos, json.dumps(row))
                        for pos, row in enumerate(rows)
                    ),
                )
                if tenant_charge is not None:
                    tenant, charge = tenant_charge
                    if callable(charge):
                        charge = charge()
                    self._conn.execute(
                        "INSERT OR REPLACE INTO tenants (tenant, charge) "
                        "VALUES (?, ?)",
                        (tenant, json.dumps(charge)),
                    )
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()

    def _completed(
        self, job_id: int, plan: PartitionPlan
    ) -> dict[RegionKey, CrawlResult]:
        # Caller holds self._lock.  A partial result (older writers
        # filed budget-interrupted regions) is left out, so the resumed
        # job crawls that region again and region_done replaces it.
        completed: dict[RegionKey, CrawlResult] = {}
        for session, index, entry_json in self._conn.execute(
            "SELECT session, region_index, result FROM regions "
            "WHERE job_id = ? ORDER BY session, region_index",
            (job_id,),
        ):
            entry = json.loads(entry_json)
            if not entry["complete"]:
                continue
            entry["rows"] = [
                json.loads(row)
                for (row,) in self._conn.execute(
                    "SELECT row FROM rows WHERE job_id = ? AND "
                    "session = ? AND region_index = ? ORDER BY position",
                    (job_id, session, index),
                )
            ]
            completed[(int(session), int(index))] = decode_result(
                entry, plan.space
            )
        return completed

    def completed(
        self, job_id: int, plan: PartitionPlan
    ) -> dict[RegionKey, CrawlResult]:
        """Every committed region result, keyed by plan position.

        The resume map: hand it to the executor as ``completed=`` (or
        let :meth:`open_job` do it) and those regions are pre-filed
        without re-issuing a query.
        """
        with self._lock:
            return self._completed(job_id, plan)

    def rows(
        self,
        job_id: int,
        *,
        offset: int = 0,
        limit: int | None = None,
    ) -> list[tuple[int, ...]]:
        """Committed rows of a job, in deterministic merge order.

        Ordered by (session, region index, extraction position) --
        exactly the finished crawl's ``result.rows`` order -- and
        queryable **mid-crawl**: the answer is always the committed
        prefix of the final bag.  ``offset``/``limit`` page through
        that order (``limit=None`` reads to the end); because a page
        is read under the same lock region commits take, every page is
        a contiguous slice of some committed prefix -- never a torn
        view of a region mid-commit.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0 or None, got {limit}")
        with self._lock:
            return [
                tuple(json.loads(row))
                for (row,) in self._conn.execute(
                    "SELECT row FROM rows WHERE job_id = ? "
                    "ORDER BY session, region_index, position "
                    "LIMIT ? OFFSET ?",
                    (job_id, -1 if limit is None else int(limit), int(offset)),
                )
            ]

    # ------------------------------------------------------------------
    # Tenant charges
    # ------------------------------------------------------------------
    def save_tenant_charge(self, tenant: str, charge: dict) -> None:
        """Persist one tenant's exact admission charge snapshot."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO tenants (tenant, charge) "
                "VALUES (?, ?)",
                (tenant, json.dumps(charge)),
            )
            self._conn.commit()

    def tenant_charge(self, tenant: str) -> dict | None:
        """The persisted charge snapshot for ``tenant`` (or ``None``)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT charge FROM tenants WHERE tenant = ?", (tenant,)
            ).fetchone()
        return json.loads(row[0]) if row is not None else None
