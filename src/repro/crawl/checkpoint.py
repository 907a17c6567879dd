"""Crawl checkpoints: persist cache *and* runtime state across restarts.

The paper's cost model assumes crawls spread over days (per-IP query
quotas).  Within one process, resuming is free: algorithms are
deterministic and a shared :class:`~repro.server.client.CachingClient`
replays the finished prefix from its cache.  This module extends that
to process restarts, at two granularities:

* **Cache checkpoints** (:func:`save_checkpoint` /
  :func:`load_checkpoint`) serialise a caching client's response cache,
  so a single-session crawler killed after day N continues on day N+1
  without re-issuing a single query.
* **Runtime checkpoints** (:func:`save_crawl_checkpoint` /
  :func:`load_crawl_checkpoint` / :class:`CheckpointWriter`) serialise
  a *partitioned* crawl's progress -- every completed region's full
  :class:`~repro.crawl.base.CrawlResult` keyed by plan position, plus
  the query-budget counters -- so a killed multi-worker crawl resumes
  by re-running the executor with the completed regions pre-filed:
  zero queries re-issued, merged bytes identical to an uninterrupted
  run (region crawls are pure functions of (source, region), so the
  still-missing regions produce exactly what they always would).

Every write is **atomic**: the JSON lands in a temp file in the target
directory and is ``os.replace``-d into place, so a crash mid-save can
never corrupt the previous checkpoint -- the file either has the old
complete state or the new complete state.

Format: a JSON object with a ``version``, a ``kind`` discriminator
(``"cache"`` / ``"runtime"``; absent in version-1 files, which are all
cache checkpoints), and the data-space signature; loading against a
different schema -- or a file written by a *newer* format version --
fails loudly with :class:`~repro.exceptions.SchemaError` instead of
misparsing forward-incompatible entries.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.crawl.base import CrawlResult, ProgressPoint
from repro.crawl.partition import PartitionPlan
from repro.crawl.rebalance import RegionKey
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.query.predicates import EqualityPredicate, RangePredicate
from repro.query.query import Query
from repro.server.client import CachingClient
from repro.server.response import QueryResponse

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CrawlCheckpoint",
    "save_crawl_checkpoint",
    "load_crawl_checkpoint",
    "CheckpointWriter",
    "encode_result",
    "decode_result",
    "plan_signature",
    "space_signature",
]

_FORMAT_VERSION = 2


def _atomic_write(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON to ``path`` without a torn-write window.

    The JSON is written to a temp file in the same directory (same
    filesystem, so the final ``os.replace`` is atomic) and renamed into
    place only once fully flushed; on any failure the temp file is
    removed and the previous checkpoint survives untouched.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _check_version(payload: dict, path: Path) -> int:
    """The file's format version, rejecting files from the future."""
    version = payload.get("version")
    if not isinstance(version, int) or version < 1:
        raise SchemaError(
            f"unsupported checkpoint version {version!r} in {path}"
        )
    if version > _FORMAT_VERSION:
        raise SchemaError(
            f"checkpoint {path} has format version {version}, but this "
            f"reader understands at most {_FORMAT_VERSION}; it was "
            "written by a newer release (forward-incompatible entries "
            "would be misparsed) -- upgrade to resume it"
        )
    return version


def _load_payload(path: Path, expected_kind: str) -> dict:
    with path.open() as handle:
        payload = json.load(handle)
    version = _check_version(payload, path)
    # Version-1 files predate the discriminator and are all cache
    # checkpoints.
    kind = payload.get("kind", "cache") if version >= 1 else "cache"
    if kind != expected_kind:
        raise SchemaError(
            f"checkpoint {path} holds {kind!r} state, not "
            f"{expected_kind!r} (cache checkpoints load with "
            "load_checkpoint, runtime checkpoints with "
            "load_crawl_checkpoint)"
        )
    return payload


def space_signature(space: DataSpace) -> list[str]:
    """The JSON-able identity of a data space (one string per attribute)."""
    return [str(attr) for attr in space]


def _encode_query(query: Query) -> list:
    tokens: list = []
    for pred in query.predicates:
        if isinstance(pred, EqualityPredicate):
            tokens.append(["eq", pred.value])
        else:
            assert isinstance(pred, RangePredicate)
            tokens.append(["range", pred.lo, pred.hi])
    return tokens


def _decode_query(tokens: list, space: DataSpace) -> Query:
    preds: list = []
    for token in tokens:
        kind = token[0]
        if kind == "eq":
            preds.append(EqualityPredicate(token[1]))
        elif kind == "range":
            preds.append(RangePredicate(token[1], token[2]))
        else:
            raise SchemaError(f"unknown predicate token {token!r}")
    return Query(tuple(preds), space)


def save_checkpoint(client: CachingClient, path: str | Path) -> Path:
    """Write the client's cached responses (and cost) to ``path``."""
    path = Path(path)
    entries = []
    for query in client.history:
        response = client.peek(query)
        assert response is not None
        entries.append(
            {
                "query": _encode_query(query),
                "rows": [list(row) for row in response.rows],
                "overflow": response.overflow,
            }
        )
    payload = {
        "version": _FORMAT_VERSION,
        "kind": "cache",
        "space": space_signature(client.space),
        "k": client.k,
        "entries": entries,
    }
    _atomic_write(path, payload)
    return path


def load_checkpoint(client: CachingClient, path: str | Path) -> int:
    """Load cached responses from ``path`` into ``client``.

    Returns the number of entries restored.  Restored entries cost
    nothing; the client's cost counter keeps counting only queries that
    actually reach the server.

    Raises
    ------
    SchemaError
        If the checkpoint was taken against a different data space or
        retrieval limit (resuming would silently corrupt the crawl),
        holds runtime rather than cache state, or was written by a
        newer format version than this reader understands.
    """
    path = Path(path)
    payload = _load_payload(path, "cache")
    if payload["space"] != space_signature(client.space):
        raise SchemaError(
            "checkpoint was taken against a different data space: "
            f"{payload['space']} vs {space_signature(client.space)}"
        )
    if payload["k"] != client.k:
        raise SchemaError(
            f"checkpoint was taken at k={payload['k']}, client has "
            f"k={client.k}; responses would be inconsistent"
        )
    restored = 0
    for entry in payload["entries"]:
        query = _decode_query(entry["query"], client.space)
        response = QueryResponse(
            tuple(tuple(int(v) for v in row) for row in entry["rows"]),
            bool(entry["overflow"]),
        )
        if client.peek(query) is None:
            client._store_local(query, response)
            restored += 1
    return restored


# ----------------------------------------------------------------------
# Runtime checkpoints: completed regions + budget counters
# ----------------------------------------------------------------------
def encode_result(result: CrawlResult) -> dict:
    """One region result as a JSON-able dict (rows, cost, progress...)."""
    return {
        "algorithm": result.algorithm,
        "rows": [list(row) for row in result.rows],
        "cost": result.cost,
        "complete": result.complete,
        "progress": [[p.queries, p.tuples] for p in result.progress],
        "phase_costs": dict(result.phase_costs),
    }


def decode_result(entry: dict, space: DataSpace) -> CrawlResult:
    """Inverse of :func:`encode_result`, rebinding ``space``."""
    return CrawlResult(
        algorithm=str(entry["algorithm"]),
        space=space,
        rows=[tuple(int(v) for v in row) for row in entry["rows"]],
        cost=int(entry["cost"]),
        complete=bool(entry["complete"]),
        progress=[
            ProgressPoint(int(q), int(t)) for q, t in entry["progress"]
        ],
        phase_costs={
            str(name): int(cost)
            for name, cost in entry.get("phase_costs", {}).items()
        },
    )


def plan_signature(plan: PartitionPlan) -> dict:
    """The JSON-able identity of a partition plan (attribute + regions)."""
    return {
        "attribute": plan.attribute,
        "bundles": [
            [_encode_query(region) for region in bundle]
            for bundle in plan.bundles
        ],
    }


@dataclass
class CrawlCheckpoint:
    """A loaded runtime checkpoint, ready to hand to an executor.

    ``completed`` maps plan positions to their full results -- pass it
    as the executor's ``completed`` argument (or the CLI's ``--resume``
    path does) so those regions are pre-filed and never re-crawled.
    ``budget`` is the ``QueryBudget.state()`` snapshot taken with the
    checkpoint (``None`` when the crawl ran without a budget): restore
    it before resuming so the queries already paid stay charged.
    """

    completed: dict[RegionKey, CrawlResult] = field(default_factory=dict)
    budget: dict | None = None


def save_crawl_checkpoint(
    path: str | Path,
    plan: PartitionPlan,
    k: int,
    completed: dict[RegionKey, CrawlResult],
    *,
    budget: dict | None = None,
) -> Path:
    """Atomically write a partitioned crawl's runtime state to ``path``.

    ``completed`` holds every region result finished so far, keyed by
    plan position; ``budget`` is an optional ``QueryBudget.state()``
    snapshot.  The file embeds the data-space signature, ``k`` and the
    full plan signature, so resuming against a different schema, limit
    or plan fails loudly instead of splicing foreign results.
    """
    path = Path(path)
    payload = {
        "version": _FORMAT_VERSION,
        "kind": "runtime",
        "space": space_signature(plan.space),
        "k": int(k),
        "plan": plan_signature(plan),
        "completed": [
            {
                "session": session,
                "index": index,
                "result": encode_result(result),
            }
            for (session, index), result in sorted(completed.items())
        ],
        "budget": dict(budget) if budget is not None else None,
    }
    _atomic_write(path, payload)
    return path


def load_crawl_checkpoint(
    path: str | Path, plan: PartitionPlan, k: int
) -> CrawlCheckpoint:
    """Load a runtime checkpoint taken for exactly this plan and ``k``.

    A region whose stored result is partial (``"complete": false``, as
    older writers filed a budget-interrupted region) is left out, so
    the resumed crawl crawls it again.

    Raises
    ------
    SchemaError
        If the checkpoint was taken against a different data space,
        retrieval limit or partition plan (its results would be spliced
        into the wrong regions), holds cache rather than runtime state,
        or was written by a newer format version.
    """
    path = Path(path)
    payload = _load_payload(path, "runtime")
    if payload["space"] != space_signature(plan.space):
        raise SchemaError(
            "runtime checkpoint was taken against a different data "
            f"space: {payload['space']} vs {space_signature(plan.space)}"
        )
    if payload["k"] != int(k):
        raise SchemaError(
            f"runtime checkpoint was taken at k={payload['k']}, the "
            f"resume requests k={k}; results would be inconsistent"
        )
    if payload["plan"] != plan_signature(plan):
        raise SchemaError(
            "runtime checkpoint was taken for a different partition "
            "plan (sessions, regions or split attribute differ); its "
            "results cannot be filed into this plan's positions"
        )
    completed: dict[RegionKey, CrawlResult] = {}
    for entry in payload["completed"]:
        session, index = int(entry["session"]), int(entry["index"])
        if not (
            0 <= session < plan.sessions
            and 0 <= index < len(plan.bundles[session])
        ):
            raise SchemaError(
                f"runtime checkpoint entry ({session}, {index}) lies "
                "outside the plan"
            )
        if entry["result"]["complete"]:
            completed[(session, index)] = decode_result(
                entry["result"], plan.space
            )
    return CrawlCheckpoint(completed=completed, budget=payload["budget"])


class CheckpointWriter:
    """Incremental runtime-checkpoint writer for a running crawl.

    Wire its :meth:`region_done` as the executor's ``on_region``
    callback: each newly completed region atomically rewrites the
    checkpoint with everything finished so far (plus a fresh budget
    snapshot when a ``budget`` object was given), so killing the
    process at *any* point leaves a loadable checkpoint of some prefix
    of the crawl -- and resuming from it re-issues zero queries for
    that prefix.  Thread-safe: whichever worker files a region may
    invoke it.

    Examples
    --------
    ::

        writer = CheckpointWriter(path, plan, k=64, budget=budget)
        spec = CrawlSpec(on_region=writer.region_done)
        executor.run(sources, plan, spec)
    """

    def __init__(
        self,
        path: str | Path,
        plan: PartitionPlan,
        k: int,
        *,
        budget=None,
        completed: dict[RegionKey, CrawlResult] | None = None,
    ):
        self._path = Path(path)
        self._plan = plan
        self._k = int(k)
        #: An object with a ``state()`` snapshot method (a
        #: :class:`~repro.server.limits.QueryBudget`), or ``None``.
        self._budget = budget
        self._completed = dict(completed or {})
        self._lock = threading.Lock()

    @property
    def completed(self) -> dict[RegionKey, CrawlResult]:
        """A snapshot of every region filed so far."""
        with self._lock:
            return dict(self._completed)

    def region_done(self, key: RegionKey, result: CrawlResult) -> None:
        """File one completed region and rewrite the checkpoint."""
        with self._lock:
            self._completed[key] = result
            self._write_locked()

    def write(self) -> Path:
        """Rewrite the checkpoint from the current state (e.g. to seed
        the file before any region completes)."""
        with self._lock:
            self._write_locked()
        return self._path

    def _write_locked(self) -> None:
        budget = self._budget.state() if self._budget is not None else None
        save_crawl_checkpoint(
            self._path,
            self._plan,
            self._k,
            self._completed,
            budget=budget,
        )
