"""Cross-process shared-limit control plane for the process backend.

The paper charges every issued query against the server's interface
limits, but a plain pickled source copy gives each pool worker its
*own* ``QueryBudget``/``DailyRateLimit`` -- exact accounting, the
repo's core determinism contract, would silently break across
processes.  This module closes that gap, and the process executor uses
it exactly when :func:`carries_limits` finds a limit in its sources:

* :class:`LimitCoordinator` starts a lightweight coordinator process (a
  :class:`multiprocessing.managers.BaseManager`) whose
  :class:`_ControlPlane` owns the **authoritative**
  :class:`~repro.server.limits.QueryBudget`,
  :class:`~repro.server.limits.DailyRateLimit` and
  :class:`~repro.server.limits.SimulatedClock` objects;
* workers receive thin :class:`SharedLimitClient` / :class:`SharedClock`
  proxies -- the shared-state counterparts of the ``LocklessPickle``
  per-copy paths -- that admit and tick through the plane with
  **exactly-once** semantics (the authoritative object's own lock
  serialises admissions, no matter how many processes race).

The plane hosts admission only.  Server
:class:`~repro.server.stats.QueryStats` stay per-worker copies: each
pool unit sends its counts home with its outcome, and the parent folds
them into the caller's own stats (see
:class:`~repro.crawl.executors.PoolUnitRunner`).

Ownership and write-back
------------------------
:meth:`LimitCoordinator.share_sources` walks a source stack (servers,
caching clients, latency wrappers), moves each limit / clock object's
state into the plane once (object identity is preserved: two servers
sharing one budget share one authoritative copy) and returns rewired
shallow clones that are safe to pickle into pool workers.  The
caller's original limits are never mutated during the crawl; after it,
:meth:`LimitCoordinator.writeback` copies the authoritative counters
back into them, so ``budget.used`` reads exactly what was charged --
even when the crawl died on exhaustion.

Client-side caches are deliberately *not* shared: a
:class:`~repro.server.client.CachingClient` stays a per-worker copy
(distinct regions issue distinct queries, so per-worker caches change
nothing about the total charged cost), while the server-side admission
behind it becomes globally exact.

Lease-batched admission
-----------------------
Exactly-once admission used to cost one coordinator round trip per
query -- interface-layer chatter, the very cost the hidden-web
literature says dominates real deployments.  The plane amortises it
with budget leases, without giving up a single unit of exactness.
:meth:`SharedLimitClient.lease` admits query budget in chunks
(:class:`~repro.server.limits.LimitLease` of
:data:`DEFAULT_LEASE_CHUNK` units): ``admit()`` consumes the local
lease at zero round trips and only returns to the coordinator when the
chunk runs dry.  Unused units
flow back on region completion (the runtime's region-boundary flush) and
on exhaustion, so a completing crawl charges exactly the queries it
issued; a *refused* budget is terminally exhausted and reads fully
charged -- byte-for-byte the observable state per-query admission leaves
behind.  The one semantic a chunk buys away: units leased to one worker
are invisible to the others until its next flush, so a crawl whose
demand lands within ``fleet x chunk`` of the budget can be refused where
strictly per-query admission would have squeaked through (admission is
*conservative*, never over).  The executor therefore clamps the
chunk against the budgets' remaining headroom
(:func:`clamp_lease_chunk`): tight budgets degrade to exact per-query
admission, and batching only engages when the budget dwarfs what the
fleet could strand.

The chatter itself is measured: the plane counts every worker-originated
round trip (leases, releases, clock ticks -- not the parent's own
write-back reads) and write-back adds the fleet-wide total to each
rewired server's
:attr:`~repro.server.stats.QueryStats.round_trips`, which is what the
benchmarks gate on.
"""

from __future__ import annotations

import copy
import threading
from collections.abc import Iterator, Sequence
from multiprocessing.managers import BaseManager

from repro.exceptions import QueryBudgetExhausted
from repro.server.limits import (
    DailyRateLimit,
    LimitLease,
    QueryBudget,
    QueryLimit,
    SimulatedClock,
)
from repro.server.server import TopKServer
from repro.server.stats import QueryStats

__all__ = [
    "DEFAULT_LEASE_CHUNK",
    "LimitCoordinator",
    "SharedLimitClient",
    "SharedBudget",
    "SharedClock",
    "TenantLimitRegistry",
    "carries_limits",
    "clamp_lease_chunk",
    "set_lease_chunk",
]

#: Budget units a worker leases per coordinator round trip (before
#: :func:`clamp_lease_chunk` caps it against the remaining budget).
DEFAULT_LEASE_CHUNK = 32

#: The attributes through which a wrapper (caching client, latency
#: simulator, patient client, web session) reaches its wrapped source.
_WRAPPED = ("_server", "_source", "_site")


def _servers(obj) -> Iterator[TopKServer]:
    """Every :class:`TopKServer` reachable down ``obj``'s wrapper chain."""
    if isinstance(obj, TopKServer):
        yield obj
        return
    for attr in _WRAPPED:
        inner = getattr(obj, attr, None)
        if inner is not None:
            yield from _servers(inner)


def _server_stats(source) -> list[QueryStats]:
    """The distinct stats objects of the servers down ``source``'s chain.

    In :func:`_servers` walk order, deduplicated by identity, so a
    stats object shared by several servers appears once.  A pool worker
    and the parent walk their own copies of one source the same way,
    which is what pairs the two lists index by index.
    """
    distinct: dict[int, QueryStats] = {}
    for server in _servers(source):
        distinct.setdefault(id(server.stats), server.stats)
    return list(distinct.values())


def carries_limits(sources) -> bool:
    """Whether any source stack holds a server-side query limit.

    The process executor's one switch for the control plane: per-worker
    source copies are exact for limit-free crawls, while a single
    :class:`~repro.server.limits.QueryLimit` anywhere in the stacks
    means copies would admit it once per worker -- so the limits must
    move into a :class:`LimitCoordinator`.  Walks the same wrapper
    chains (``_server`` / ``_source`` / ``_site``) that
    :meth:`LimitCoordinator.share_sources` rewires.
    """
    return any(
        server._limits for source in sources for server in _servers(source)
    )


def clamp_lease_chunk(stubs, chunk: int, fleet: int) -> int:
    """Cap a lease chunk against the budgets' headroom.

    A fleet of ``fleet`` workers can strand at most ``fleet x chunk``
    leased-but-unissued units between region boundaries; near a
    budget's edge that stranding could refuse a crawl per-query
    admission would have satisfied.  Clamping the chunk to
    ``remaining // (4 x fleet)`` for every :class:`SharedBudget` in
    ``stubs`` keeps the whole fleet's possible stranding under a
    quarter of the tightest remaining budget -- and collapses to exact
    per-query admission (chunk 1) on tight budgets, where
    sequential-equivalent exhaustion behaviour matters most.  Only the
    stubs passed in bound the chunk: the job service passes one
    tenant's, so a poor tenant never shrinks a rich one's batching.
    """
    if fleet < 1:
        raise ValueError(f"fleet must be positive, got {fleet}")
    for stub in stubs:
        if isinstance(stub, SharedBudget):
            chunk = min(chunk, max(1, stub.remaining // (4 * fleet)))
    return max(1, chunk)


def set_lease_chunk(stubs, chunk: int) -> None:
    """Set the admission lease chunk on every budget stub in ``stubs``.

    Applied to :class:`SharedBudget` stubs only: a budget chunk is a
    pure round-trip amortisation, while clock-coupled limits (a
    :class:`~repro.server.limits.DailyRateLimit` rolling over under the
    lessee's feet) stay at exact per-query admission.  Call before
    pickling the stubs' sources into a pool -- the chunk travels with
    them.
    """
    if chunk < 1:
        raise ValueError(f"lease chunk must be positive, got {chunk}")
    for stub in stubs:
        if isinstance(stub, SharedBudget):
            stub.lease_chunk = chunk


class TenantLimitRegistry:
    """Per-tenant admission limits, one authoritative set per tenant.

    The multi-tenant counterpart of the paper's interface limits: every
    tenant of the job service gets its *own*
    :class:`~repro.server.limits.QueryBudget` and (optionally)
    :class:`~repro.server.limits.DailyRateLimit`, so one tenant
    exhausting a quota can never refuse another tenant's queries.  The
    registry owns the objects; every source serving a tenant's jobs
    references the same instances, which is what makes per-tenant
    charges exact across however many jobs and workers the tenant runs
    at once (the limits' own locks serialise admission).

    On an in-process fleet the objects are shared by reference; for a
    process fleet, :meth:`share` rehosts a tenant's limits on a
    :class:`LimitCoordinator` so admission stays exactly-once across
    the pool -- same objects, same registry bookkeeping.

    Examples
    --------
    Two tenants, separate budgets, zero cross-tenant admission::

        registry = TenantLimitRegistry()
        registry.register("acme", budget=500)
        registry.register("umbrella", budget=80, per_day=40)
        server = TopKServer(
            dataset, k, limits=registry.limits("acme")
        )
    """

    def __init__(self, *, clock: SimulatedClock | None = None):
        self._lock = threading.Lock()
        self._clock = clock if clock is not None else SimulatedClock()
        self._budgets: dict[str, QueryBudget] = {}
        self._dailies: dict[str, DailyRateLimit] = {}
        self._quotas: dict[str, tuple[int | None, int | None]] = {}

    @property
    def clock(self) -> SimulatedClock:
        """The one simulated clock every tenant's daily quota ticks on."""
        return self._clock

    def register(
        self,
        tenant: str,
        *,
        budget: int | None = None,
        per_day: int | None = None,
    ) -> None:
        """Create ``tenant``'s limits (idempotent for equal quotas).

        ``budget`` caps the tenant's total queries across all of its
        jobs; ``per_day`` its daily quota on the registry clock; either
        may be ``None`` for unlimited.  Re-registering with the same
        quotas is a no-op (a restarted server re-declares its tenants);
        different quotas raise :class:`ValueError` -- changing a live
        tenant's quota mid-flight would corrupt its exact charge.
        """
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        if per_day is not None and per_day < 1:
            raise ValueError(f"per_day must be positive, got {per_day}")
        with self._lock:
            quota = (budget, per_day)
            existing = self._quotas.get(tenant)
            if existing is not None:
                if existing != quota:
                    raise ValueError(
                        f"tenant {tenant!r} is already registered with "
                        f"quota {existing}, not {quota}"
                    )
                return
            self._quotas[tenant] = quota
            if budget is not None:
                self._budgets[tenant] = QueryBudget(budget)
            if per_day is not None:
                self._dailies[tenant] = DailyRateLimit(
                    per_day, self._clock
                )

    def _known(self, tenant: str) -> None:
        if tenant not in self._quotas:
            known = ", ".join(sorted(self._quotas)) or "(none)"
            raise KeyError(
                f"unknown tenant {tenant!r}; registered: {known}"
            )

    def tenants(self) -> list[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._quotas)

    def limits(self, tenant: str) -> list[QueryLimit]:
        """The tenant's limit objects, for a server's ``limits=``.

        Always the same instances for the same tenant -- hand them to
        every source that serves the tenant's jobs and the charges add
        up in one place.
        """
        with self._lock:
            self._known(tenant)
            limits: list[QueryLimit] = []
            if tenant in self._budgets:
                limits.append(self._budgets[tenant])
            if tenant in self._dailies:
                limits.append(self._dailies[tenant])
            return limits

    def budget(self, tenant: str) -> QueryBudget | None:
        """The tenant's budget object (``None`` if unlimited)."""
        with self._lock:
            self._known(tenant)
            return self._budgets.get(tenant)

    def charges(self) -> dict[str, dict]:
        """Every tenant's exact charge so far, as ``state()`` snapshots.

        ``{tenant: {"budget": state | None, "daily": state | None}}`` --
        JSON-able, which is how the job service persists per-tenant
        admission state across a server death.
        """
        with self._lock:
            return {
                tenant: {
                    "budget": (
                        self._budgets[tenant].state()
                        if tenant in self._budgets
                        else None
                    ),
                    "daily": (
                        self._dailies[tenant].state()
                        if tenant in self._dailies
                        else None
                    ),
                }
                for tenant in self._quotas
            }

    def restore(self, tenant: str, charge: dict) -> bool:
        """Restore a tenant's persisted charge (same-window semantics).

        A stored budget charge counts only while it belongs to the
        *same admission window*: the stored ``max_queries`` still
        matches the registered quota and the window was not already
        refused.  A changed quota or an exhausted window is the quota
        *reset* -- the fresh limits stand untouched, exactly the CLI's
        ``--resume`` contract.  Returns whether anything was restored.
        """
        with self._lock:
            self._known(tenant)
            quota_budget, quota_daily = self._quotas[tenant]
            restored = False
            stored = charge.get("budget")
            budget = self._budgets.get(tenant)
            if stored is not None and budget is not None:
                same_window = int(
                    stored.get("max_queries", -1)
                ) == quota_budget and not stored.get("refused", False)
                if same_window:
                    budget.restore_state(stored)
                    restored = True
            stored = charge.get("daily")
            daily = self._dailies.get(tenant)
            if stored is not None and daily is not None:
                if int(stored.get("per_day", -1)) == quota_daily:
                    daily.restore_state(stored)
                    restored = True
            return restored

    def share(self, tenant: str, coordinator: "LimitCoordinator") -> list:
        """The tenant's limits as coordinator-hosted shared stubs.

        For process fleets: each limit object is rehosted on
        ``coordinator`` (identity-memoised, so repeated calls return
        the same stubs) and admission happens in the coordinator
        process; ``coordinator.writeback()`` lands the exact charges
        back in the registry's objects.
        """
        return [coordinator.share(limit) for limit in self.limits(tenant)]

    def pull_shared(self, tenant: str, stubs: list) -> dict:
        """Land a shared tenant's authoritative charge in the registry.

        The per-commit counterpart of ``coordinator.writeback()``: each
        stub in ``stubs`` (from :meth:`share`, same order as
        :meth:`limits`) is flushed -- returning any parked lease
        headroom -- and its authoritative state is restored into the
        registry's local objects, so in-process reads
        (:meth:`charges`, :meth:`budget`) stay exact while the fleet
        runs on another process.  Returns the tenant's
        :meth:`charges`-shaped snapshot ``{"budget": ..., "daily":
        ...}``, which is what the job service persists at each region
        commit.
        """
        states = []
        for stub in stubs:
            stub.flush()
            states.append(stub.state())
        with self._lock:
            self._known(tenant)
            index = 0
            if tenant in self._budgets:
                self._budgets[tenant].restore_state(states[index])
                index += 1
            if tenant in self._dailies:
                self._dailies[tenant].restore_state(states[index])
                index += 1
            if index != len(states):
                raise ValueError(
                    f"tenant {tenant!r} has {index} registered limits "
                    f"but {len(states)} shared stubs"
                )
            return {
                "budget": (
                    self._budgets[tenant].state()
                    if tenant in self._budgets
                    else None
                ),
                "daily": (
                    self._dailies[tenant].state()
                    if tenant in self._dailies
                    else None
                ),
            }


class _ControlPlane:
    """The coordinator-process side: owns the authoritative objects.

    Lives inside the manager process; every public method is called
    through a proxy, each client connection served by its own manager
    thread.  Registration happens from the parent before the pool
    starts; after that the handle table is read-only, and all mutation
    goes through the owned objects' internal locks -- which is exactly
    the exactly-once admission contract: ``admit`` on one authoritative
    limit is atomic no matter how many worker processes race.

    Admission refusals are returned as values, not raised: a remote
    exception would be re-pickled by the manager machinery, while the
    value path lets :class:`SharedLimitClient` raise a faithful
    :class:`~repro.exceptions.QueryBudgetExhausted` (message and
    ``issued`` intact) in the worker.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._objects: dict[int, object] = {}
        self._next_handle = 0
        self._round_trips = 0

    def _add(self, obj) -> int:
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._objects[handle] = obj
            return handle

    def _get(self, handle: int):
        with self._lock:
            return self._objects[handle]

    def _count(self) -> None:
        # One worker-originated round trip.  Registration and state
        # reads (write-back, telemetry) are not counted: the metric is
        # the admission chatter that lease batching exists to shrink,
        # so it must not move with how often a monitor polls.
        with self._lock:
            self._round_trips += 1

    def round_trips(self) -> int:
        """Worker-originated round trips served so far (see _count)."""
        with self._lock:
            return self._round_trips

    # ------------------------------------------------------------------
    # Registration (parent only, before workers exist)
    # ------------------------------------------------------------------
    def add_budget(self, state: dict) -> int:
        """Own a budget seeded from a ``QueryBudget.state()`` snapshot."""
        budget = QueryBudget(int(state["max_queries"]))
        budget.restore_state(state)
        return self._add(budget)

    def add_clock(self, state: dict) -> int:
        """Own a clock seeded from a ``SimulatedClock.state()`` snapshot."""
        clock = SimulatedClock(int(state["day"]))
        return self._add(clock)

    def add_daily(self, state: dict, clock_handle: int) -> int:
        """Own a daily limit ticking against an already-owned clock.

        The limit and its clock live in the same (coordinator) process
        and reference each other directly -- no nested proxies.
        """
        limit = DailyRateLimit(int(state["per_day"]), self._get(clock_handle))
        limit.restore_state(state)
        return self._add(limit)

    # ------------------------------------------------------------------
    # Admission and clock ticks (called from every worker)
    # ------------------------------------------------------------------
    def lease(self, handle: int, n: int) -> tuple[int, str, int]:
        """Admit up to ``n`` queries against an owned limit, atomically.

        Returns ``(granted, "", 0)`` on success -- ``granted`` units
        are charged and held by the caller until consumed or released
        -- and ``(0, message, issued)`` on refusal, so
        :class:`SharedLimitClient` can raise a faithful
        :class:`~repro.exceptions.QueryBudgetExhausted` in the worker.
        ``n == 1`` is exactly the old per-query ``admit`` round trip.
        """
        self._count()
        try:
            lease = self._get(handle).lease(n)
        except QueryBudgetExhausted as exc:
            return (0, str(exc), exc.issued)
        return (lease.granted, "", 0)

    def release(self, handle: int, unused: int) -> None:
        """Return a lease's unused units to an owned limit."""
        self._count()
        if unused <= 0:
            return
        self._get(handle).release(LimitLease(unused))

    def object_state(self, handle: int) -> dict:
        """The ``state()`` snapshot of any owned object."""
        return self._get(handle).state()

    def clock_sleep(self, handle: int) -> int:
        """Advance an owned clock to the next day; returns its index."""
        self._count()
        return self._get(handle).sleep_until_next_day()


class _CoordinatorManager(BaseManager):
    """The manager hosting one control plane."""


_CoordinatorManager.register("ControlPlane", _ControlPlane)


# ----------------------------------------------------------------------
# Worker-side stubs
# ----------------------------------------------------------------------
class SharedLimitClient(QueryLimit):
    """A :class:`QueryLimit` admitting through the control plane.

    The worker-side counterpart of one coordinator-owned limit: thin
    (a proxy plus a handle), picklable into pool workers, and exact --
    an ``admit()`` either charges the single authoritative counter or
    raises :class:`~repro.exceptions.QueryBudgetExhausted` with the
    authoritative message and ``issued`` count.

    With ``lease_chunk > 1`` the client admits in batches: one
    :meth:`lease` round trip charges a chunk up front, subsequent
    ``admit()`` calls consume it locally at zero round trips, and
    :meth:`flush` returns whatever a finished region left unused (the
    runtime calls it at every region boundary).  ``lease_chunk == 1``
    (the default) is exactly the classic per-query protocol.  A stub
    is a per-worker object; pickling it hands the clone a fresh empty
    lease -- held units never travel, so they can never double-spend.
    """

    def __init__(self, plane, handle: int, *, lease_chunk: int = 1):
        self._plane = plane
        self._handle = handle
        self.lease_chunk = lease_chunk
        #: Admissions this copy granted since the count was last zeroed
        #: (a pool worker zeroes it per unit; see
        #: :meth:`LimitCoordinator.credit`).
        self.admitted = 0
        self._lease: LimitLease | None = None
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # The held lease and the lock stay home: the original keeps
        # (and eventually flushes) its unused units, while the clone
        # starts empty -- exactly-once accounting either way.
        state = self.__dict__.copy()
        state["_lease"] = None
        state["admitted"] = 0
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def admit(self) -> None:
        with self._lock:
            if self._lease is None or not self._lease.take():
                self.lease(max(1, int(self.lease_chunk)))
                self._lease.take()
            self.admitted += 1

    def lease(self, n: int) -> LimitLease:
        """Fetch a fresh chunk of ``n`` admissions from the plane.

        One coordinator round trip charges up to ``n`` units against
        the authoritative limit and installs them as the client's local
        lease; raises a faithful
        :class:`~repro.exceptions.QueryBudgetExhausted` (authoritative
        message and ``issued`` count) when nothing remains.  Called
        automatically by :meth:`admit` whenever the local lease runs
        dry.  A still-undrained prior lease is released first, so
        explicit re-leasing can never strand charged units.  Caller
        holds ``self._lock`` or owns the stub outright.
        """
        prior, self._lease = self._lease, None
        if prior is not None and prior.unused > 0:
            self._plane.release(self._handle, prior.unused)
        granted, message, issued = self._plane.lease(self._handle, n)
        if granted == 0:
            self._lease = None
            raise QueryBudgetExhausted(message, issued=issued)
        self._lease = LimitLease(granted)
        return self._lease

    def flush(self) -> None:
        """Return the local lease's unused units to the coordinator.

        The runtime's region-boundary hook: admission headroom a
        finished (or failed) region leased but did not spend flows back
        so other workers -- and the final write-back -- see the exact
        charge.  A no-op when nothing is held.
        """
        with self._lock:
            lease, self._lease = self._lease, None
        if lease is not None and lease.unused > 0:
            self._plane.release(self._handle, lease.unused)

    def state(self) -> dict:
        """The authoritative counters, straight from the coordinator."""
        return self._plane.object_state(self._handle)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(handle={self._handle}, "
            f"lease_chunk={self.lease_chunk})"
        )


class SharedBudget(SharedLimitClient):
    """Shared-state counterpart of :class:`QueryBudget`."""

    @property
    def remaining(self) -> int:
        """Queries the authoritative budget still admits."""
        state = self.state()
        return int(state["max_queries"]) - int(state["used"])

    @property
    def used(self) -> int:
        """Queries the authoritative budget has admitted."""
        return int(self.state()["used"])


class SharedClock:
    """Shared-state counterpart of :class:`SimulatedClock`.

    Any worker's :meth:`sleep_until_next_day` advances the one
    authoritative day counter, so daily quotas roll over for the whole
    fleet at once -- exactly the per-IP timeline the paper's cost model
    assumes.
    """

    def __init__(self, plane, handle: int):
        self._plane = plane
        self._handle = handle

    def sleep_until_next_day(self) -> int:
        """Advance the authoritative clock; returns the new day."""
        return self._plane.clock_sleep(self._handle)

    def __repr__(self) -> str:
        return f"SharedClock(handle={self._handle})"


class LimitCoordinator:
    """Lifecycle owner of the control plane, and the rewiring front.

    Use as a context manager around a process-pool crawl::

        with LimitCoordinator() as coordinator:
            shared = coordinator.share_sources(sources)
            ...  # pickle `shared` into pool workers, crawl
            coordinator.writeback()

    ``share_sources`` moves each limit / clock object into the
    coordinator exactly once (object identity preserved, so a budget
    shared by several servers stays one budget) and returns rewired
    source clones; ``writeback`` copies the authoritative counters back
    into the caller's original objects.  Server stats never move: the
    clones record into the caller's own
    :class:`~repro.server.stats.QueryStats`, and the process backend
    folds each pool unit's counts into them as the unit's outcome
    lands.  The process executor drives all of this automatically
    whenever :func:`carries_limits` is true.
    """

    def __init__(self):
        self._manager = _CoordinatorManager()
        self._plane = None
        self._shared: dict[int, object] = {}
        self._writeback: list[tuple[object, int]] = []
        # The rewired servers' distinct stats objects, which write-back
        # credits with the plane's round trips.
        self._stats: dict[int, QueryStats] = {}
        self._trips_written = 0
        # Serialises credit(): each is a read-modify-write of the
        # caller's objects, from whichever parent thread a unit lands on.
        self._credit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LimitCoordinator":
        """Start the coordinator process (idempotent)."""
        if self._plane is None:
            self._manager.start()
            self._plane = self._manager.ControlPlane()
        return self

    def shutdown(self) -> None:
        """Stop the coordinator process.

        Shared stubs handed out by this coordinator stop working; call
        :meth:`writeback` first if the final counters matter.
        """
        if self._plane is not None:
            self._plane = None
            self._manager.shutdown()

    def __enter__(self) -> "LimitCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def plane(self):
        """The control-plane proxy (picklable into pool workers)."""
        if self._plane is None:
            raise RuntimeError("LimitCoordinator is not started")
        return self._plane

    # ------------------------------------------------------------------
    # Sharing
    # ------------------------------------------------------------------
    def share(self, obj):
        """The shared-state stub for one limit or clock object.

        Idempotent per object identity: sharing the same object twice
        returns the same stub, so state that several sources reference
        (one budget across a fleet of identities) stays authoritative
        in one place.  Raises :class:`TypeError` for limit types the
        control plane cannot host.
        """
        if isinstance(obj, (SharedLimitClient, SharedClock)):
            return obj
        stub = self._shared.get(id(obj))
        if stub is not None:
            return stub
        if isinstance(obj, QueryBudget):
            handle = self.plane.add_budget(obj.state())
            stub = SharedBudget(self.plane, handle)
        elif isinstance(obj, DailyRateLimit):
            clock = self.share(obj.clock)
            handle = self.plane.add_daily(obj.state(), clock._handle)
            stub = SharedLimitClient(self.plane, handle)
        elif isinstance(obj, SimulatedClock):
            handle = self.plane.add_clock(obj.state())
            stub = SharedClock(self.plane, handle)
        else:
            raise TypeError(
                "the shared-limit control plane can host QueryBudget, "
                "DailyRateLimit and SimulatedClock objects; "
                f"got {type(obj).__name__} (exact cross-process "
                "accounting cannot be guaranteed for it)"
            )
        self._shared[id(obj)] = stub
        self._writeback.append((obj, handle))
        return stub

    def share_sources(self, sources) -> list:
        """Rewired clones of ``sources`` admitting through the plane.

        Walks each source stack -- :class:`TopKServer` directly, or
        wrappers (caching clients, latency simulators, patient clients,
        web sessions) through their wrapped source -- and replaces
        every server-side limit with its shared stub.  A rewired server
        keeps recording into the original's stats.  The originals are
        untouched; the clones are what the process executor pickles
        into its pool.

        Raises :class:`TypeError` for a source whose stack exposes no
        rewireable server at all: silently shipping per-worker limit
        copies would break the exactly-once contract without anyone
        noticing.
        """
        rewired = []
        for source in sources:
            for stats in _server_stats(source):
                self._stats.setdefault(id(stats), stats)
            clone = self._rewire(source)
            if clone is source:
                raise TypeError(
                    "the control plane could not rewire a source of type "
                    f"{type(source).__name__}: expected a TopKServer or "
                    "a wrapper chain (attributes _server/_source/_site) "
                    "ending in one; without rewiring, each pool worker "
                    "would admit against its own limit copy"
                )
            rewired.append(clone)
        return rewired

    def _rewire(self, obj):
        if isinstance(obj, TopKServer):
            return obj.with_accounting(
                limits=[self.share(limit) for limit in obj._limits]
            )
        clone = obj
        for attr in _WRAPPED:
            inner = getattr(obj, attr, None)
            if inner is None:
                continue
            rewired = self._rewire(inner)
            if rewired is not inner:
                if clone is obj:
                    clone = copy.copy(obj)
                setattr(clone, attr, rewired)
        # A PatientClient sleeps its own clock reference; share it so
        # the whole fleet observes the same day boundaries.
        inner_clock = getattr(obj, "_clock", None)
        if isinstance(inner_clock, SimulatedClock):
            if clone is obj:
                clone = copy.copy(obj)
            clone._clock = self.share(inner_clock)
        return clone

    def shared_stubs(self) -> list:
        """Every flushable stub this coordinator has handed out.

        The :class:`SharedLimitClient` instances created by
        :meth:`share` (in creation order, deduplicated by construction
        -- sharing is identity-memoised).
        The process executor pickles this list *together with* the
        rewired sources, so each pool worker's unpickled stub objects
        are exactly the ones its source clones reference (pickle
        memoisation preserves the shared identity) and can be
        ``flush()``-ed at every region boundary.
        """
        return [
            stub
            for stub in self._shared.values()
            if isinstance(stub, SharedLimitClient)
        ]

    def credit(self, admitted: Sequence[int]) -> None:
        """Add one pool unit's budget admissions to the originals.

        ``admitted`` holds the admissions each of :meth:`shared_stubs`
        granted during the unit, in that order (a pool worker counts
        them on its copies of the stubs).  The process backend calls
        this as each unit lands in the parent, so a caller's
        :class:`~repro.server.limits.QueryBudget` reads the queries of
        every unit landed so far -- what a checkpoint written for that
        unit must store -- and only rises.  The plane's own counter
        would not do: it also holds the units other workers have leased
        but not yet spent.  Other limits, and a refusal, settle at
        :meth:`writeback`.
        """
        originals = {handle: obj for obj, handle in self._writeback}
        stubs = self.shared_stubs()
        with self._credit_lock:
            for stub, count in zip(stubs, admitted, strict=True):
                budget = originals[stub._handle]
                if count and isinstance(budget, QueryBudget):
                    state = budget.state()
                    state["used"] += count
                    budget.restore_state(state)

    def writeback(self) -> None:
        """Copy the authoritative counters back into the originals.

        After this, the caller's own ``QueryBudget.used``,
        ``DailyRateLimit.used_today`` and ``SimulatedClock.day`` read
        exactly what the whole pool charged -- including a crawl that
        died on exhaustion.  Parent-held leases are returned first, so
        no charge the caller could have stranded is lost.  Each
        rewired server's stats gain the worker round trips the plane
        served since the last write-back, once per distinct stats
        object.  Call before :meth:`shutdown`.
        """
        for stub in self.shared_stubs():
            stub.flush()
        for original, handle in self._writeback:
            original.restore_state(self.plane.object_state(handle))
        trips = self.plane.round_trips()
        delta = QueryStats(round_trips=trips - self._trips_written).state()
        self._trips_written = trips
        for stats in self._stats.values():
            stats.merge_counts(delta)
