"""Shared-limit control plane: exact accounting across processes.

Whenever its sources carry a limit, the process backend must keep
every interface limit *globally* exact -- one authoritative
``QueryBudget``/``DailyRateLimit``/``SimulatedClock`` admits for the
whole pool -- while the merged result stays byte-identical to the
sequential executor on limit-bearing plans, and every caller-side
``server.stats`` reads the sequential counts.  These tests pin:

* the coordinator primitives (exactly-once admission, identity-memoised
  sharing, write-back, source rewiring, limit detection);
* byte-parity of the process backend on budgeted sources across
  static / rebalanced / subtree-sharded dispatch, with the charged cost
  equal to the sequential count exactly;
* limit-exhaustion behaviour: a budget that runs out mid-crawl raises
  (or, with ``allow_partial``, truncates) identically across
  sequential, thread and process execution, never over-admitting by
  even one query;
* a hypothesis property: no interleaving of racing admitters can
  double-admit -- exactly ``min(budget, attempts)`` admissions succeed.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.coordinator import (
    LimitCoordinator,
    SharedBudget,
    SharedClock,
    SharedLimitClient,
    carries_limits,
    clamp_lease_chunk,
    set_lease_chunk,
)
from repro.crawl.executors import (
    ProcessExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted
from repro.server.client import CachingClient, PatientClient
from repro.server.latency import LatencySource
from repro.server.limits import DailyRateLimit, QueryBudget, SimulatedClock
from repro.server.server import TopKServer

SESSIONS = 3

#: Process dispatch shapes the budgeted parity contract covers.
SHARED_MATRIX = [
    pytest.param({}, id="static"),
    pytest.param({"rebalance": True}, id="rebalance"),
    pytest.param(
        {"rebalance": True, "shard_subtrees": 4}, id="rebalance-sharded"
    ),
]


def limited_dataset(seed=3, n=300):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 6), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 499)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 7, n),
            rng.integers(1, 4, n),
            rng.integers(0, 500, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return limited_dataset()


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


def budgeted_sources(dataset, budget):
    """One server per session, all admitting against one budget."""
    return [
        TopKServer(dataset, k=32, limits=[budget]) for _ in range(SESSIONS)
    ]


@pytest.fixture(scope="module")
def reference(dataset, plan):
    """Sequential crawl of the limit-bearing plan + its exact charge."""
    budget = QueryBudget(100_000)
    result = crawl_partitioned(budgeted_sources(dataset, budget), plan)
    return result, budget.used


@pytest.fixture(scope="module")
def coordinator():
    with LimitCoordinator() as running:
        yield running


def assert_identical(result, reference):
    assert result.rows == reference.rows
    assert result.cost == reference.cost
    assert result.complete == reference.complete
    assert result.session_costs() == reference.session_costs()
    assert result.progress == reference.progress


class TestCoordinatorPrimitives:
    def test_share_is_identity_memoised(self, coordinator):
        budget = QueryBudget(5)
        stub = coordinator.share(budget)
        assert isinstance(stub, SharedBudget)
        assert coordinator.share(budget) is stub
        # A different object of the same shape gets its own handle.
        assert coordinator.share(QueryBudget(5)) is not stub

    def test_budget_admits_exactly_once_and_writes_back(self, coordinator):
        budget = QueryBudget(4)
        stub = coordinator.share(budget)
        for _ in range(4):
            stub.admit()
        with pytest.raises(QueryBudgetExhausted) as excinfo:
            stub.admit()
        assert excinfo.value.issued == 4
        assert stub.used == 4
        assert stub.remaining == 0
        # The caller's object is untouched until write-back...
        assert budget.used == 0
        coordinator.writeback()
        # ...then reads the authoritative counters exactly.
        assert budget.used == 4
        assert budget.remaining == 0

    def test_stub_pickles_and_still_charges_the_one_budget(self, coordinator):
        budget = QueryBudget(2)
        stub = coordinator.share(budget)
        clone = pickle.loads(pickle.dumps(stub))
        stub.admit()
        clone.admit()
        with pytest.raises(QueryBudgetExhausted):
            clone.admit()
        assert stub.used == 2

    def test_daily_limit_rolls_over_through_the_shared_clock(
        self, coordinator
    ):
        clock = SimulatedClock()
        daily = DailyRateLimit(3, clock)
        shared_daily = coordinator.share(daily)
        shared_clock = coordinator.share(clock)
        assert type(shared_daily) is SharedLimitClient
        assert isinstance(shared_clock, SharedClock)
        for _ in range(3):
            shared_daily.admit()
        with pytest.raises(QueryBudgetExhausted):
            shared_daily.admit()
        assert shared_daily.state()["used_today"] == 3
        assert shared_clock.sleep_until_next_day() == 1
        shared_daily.admit()
        coordinator.writeback()
        assert clock.day == 1
        assert daily.used_today == 1

    def test_daily_limit_shares_its_clock_automatically(self, coordinator):
        """Sharing a daily limit shares its clock under the same handle."""
        clock = SimulatedClock()
        daily = DailyRateLimit(2, clock)
        shared_daily = coordinator.share(daily)
        shared_clock = coordinator.share(clock)
        shared_daily.admit()
        shared_daily.admit()
        shared_clock.sleep_until_next_day()
        shared_daily.admit()  # would raise if the clocks were distinct
        assert shared_daily.state()["used_today"] == 1

    def test_unknown_limit_type_is_a_clear_error(self, coordinator):
        class OddLimit:
            def admit(self):
                pass

        with pytest.raises(TypeError, match="control plane"):
            coordinator.share(OddLimit())

    def test_rewire_walks_wrappers_and_preserves_originals(
        self, coordinator, dataset
    ):
        budget = QueryBudget(50)
        server = TopKServer(dataset, k=32, limits=[budget])
        source = LatencySource(CachingClient(server), 0.0)
        (rewired,) = coordinator.share_sources([source])
        # New wrapper objects down the rewired chain, same originals.
        assert rewired is not source
        assert rewired._source is not source._source
        inner = rewired._source._server
        assert isinstance(inner._limits[0], SharedBudget)
        # The clone records into the original's stats.
        assert inner.stats is server.stats
        assert source._source._server is server
        assert server._limits[0] is budget
        # Queries through the rewired stack charge the shared budget.
        from repro.query.query import Query

        rewired.run(Query.full(dataset.space))
        assert inner._limits[0].used == 1
        assert budget.used == 0  # original untouched until writeback

    def test_rewire_shares_a_patient_clients_clock(self, coordinator, dataset):
        clock = SimulatedClock()
        server = TopKServer(
            dataset, k=32, limits=[DailyRateLimit(1000, clock)]
        )
        patient = PatientClient(server, clock)
        (rewired,) = coordinator.share_sources([patient])
        assert isinstance(rewired._clock, SharedClock)
        assert patient._clock is clock

    def test_plane_property_requires_start(self):
        idle = LimitCoordinator()
        with pytest.raises(RuntimeError, match="not started"):
            idle.plane


class TestProcessSharedParity:
    """Acceptance: byte-identical to sequential on a limit-bearing plan,
    and the total charged cost equals the sequential count exactly."""

    @pytest.mark.parametrize("kwargs", SHARED_MATRIX)
    def test_limit_bearing_plan_matches_sequential(
        self, kwargs, dataset, plan, reference
    ):
        expected, expected_charge = reference
        budget = QueryBudget(100_000)
        result = ProcessExecutor(max_workers=2).run(
            budgeted_sources(dataset, budget),
            plan,
            CrawlSpec(**kwargs),
        )
        assert_identical(result, expected)
        assert budget.used == expected_charge

    @pytest.mark.parametrize(
        "budgeted", [True, False], ids=["budgeted", "limit-free"]
    )
    @pytest.mark.parametrize("kwargs", SHARED_MATRIX)
    def test_server_stats_are_exact_per_source(
        self, kwargs, budgeted, dataset, plan
    ):
        """Each unit's server counts come home with its outcome, with
        or without a control plane."""

        def sources():
            if budgeted:
                return budgeted_sources(dataset, QueryBudget(100_000))
            return [TopKServer(dataset, k=32) for _ in range(SESSIONS)]

        seq_sources = sources()
        crawl_partitioned(seq_sources, plan)
        pool_sources = sources()
        ProcessExecutor(max_workers=2).run(
            pool_sources, plan, CrawlSpec(**kwargs)
        )
        for sequential, pooled in zip(seq_sources, pool_sources):
            assert pooled.stats.queries == sequential.stats.queries > 0
            assert pooled.stats.resolved == sequential.stats.resolved
            assert (
                pooled.stats.tuples_returned
                == sequential.stats.tuples_returned
            )
            assert pooled.stats.phase_costs == sequential.stats.phase_costs

    def test_refused_units_still_count(self, dataset, plan):
        """A unit that raises sends its counts home before the parent
        re-raises: after the refusal, every source's stats read what
        its budget charged, exactly as on the thread backend."""

        def run(executor):
            budgets = [QueryBudget(7) for _ in range(SESSIONS)]
            sources = [
                TopKServer(dataset, k=32, limits=[budget])
                for budget in budgets
            ]
            with pytest.raises(QueryBudgetExhausted) as excinfo:
                executor.run(sources, plan)
            return sources, budgets, excinfo.value

        thread_sources, _, _ = run(ThreadExecutor(max_workers=2))
        pool_sources, budgets, exc = run(ProcessExecutor(max_workers=2))
        for threaded, pooled, budget in zip(
            thread_sources, pool_sources, budgets
        ):
            assert pooled.stats.queries == threaded.stats.queries
            assert pooled.stats.queries == budget.used == 7
        # The worker's side of the traceback travels home as a note.
        assert "admit" in exc.__notes__[0]

    def test_on_region_receives_exact_observed_costs(
        self, dataset, plan, reference
    ):
        expected, _ = reference
        costs = {}
        result = ProcessExecutor(max_workers=2).run(
            budgeted_sources(dataset, QueryBudget(100_000)),
            plan,
            CrawlSpec(
                rebalance=True,
                on_region=lambda key, region: costs.update({key: region.cost}),
            ),
        )
        assert_identical(result, expected)
        # Every region's exact cost crossed the process boundary back.
        assert sum(costs.values()) == expected.cost
        assert len(costs) == len(plan.regions)

    @pytest.mark.parametrize("kwargs", SHARED_MATRIX)
    def test_sessions_reach_terminal_states(self, kwargs, dataset, plan):
        aggregator = ProgressAggregator(SESSIONS)
        merged = ProcessExecutor(max_workers=2).run(
            budgeted_sources(dataset, QueryBudget(100_000)),
            plan,
            CrawlSpec(aggregator=aggregator, **kwargs),
        )
        assert aggregator.states() == (SessionState.DONE,) * SESSIONS
        totals = aggregator.totals()
        assert totals.queries == merged.cost
        assert totals.tuples == merged.tuples_extracted


class TestLimitExhaustion:
    """Satellite: a budget that runs out mid-crawl behaves identically
    across sequential, thread and process execution."""

    CAP = 12

    BACKENDS = [
        pytest.param("sequential", {}, id="sequential"),
        pytest.param("thread", {}, id="thread"),
        pytest.param("thread", {"rebalance": True}, id="thread-rebalance"),
        pytest.param("process", {}, id="process"),
        pytest.param("process", {"rebalance": True}, id="process-rebalance"),
        pytest.param(
            "process",
            {"rebalance": True, "shard_subtrees": 4},
            id="process-rebalance-sharded",
        ),
    ]

    @pytest.mark.parametrize("name,kwargs", BACKENDS)
    def test_exhaustion_raises_and_never_over_admits(
        self, name, kwargs, dataset, plan
    ):
        budget = QueryBudget(self.CAP)
        executor = make_executor(name, max_workers=SESSIONS)
        with pytest.raises(QueryBudgetExhausted) as excinfo:
            executor.run(
                budgeted_sources(dataset, budget), plan, CrawlSpec(**kwargs)
            )
        assert excinfo.value.issued == self.CAP
        assert budget.used == self.CAP
        assert budget.remaining == 0

    @pytest.mark.parametrize("name,kwargs", BACKENDS)
    def test_allow_partial_truncates_at_the_exact_cap(
        self, name, kwargs, dataset, plan
    ):
        budget = QueryBudget(self.CAP)
        executor = make_executor(name, max_workers=SESSIONS)
        result = executor.run(
            budgeted_sources(dataset, budget),
            plan,
            CrawlSpec(allow_partial=True, **kwargs),
        )
        assert not result.complete
        assert budget.used == self.CAP
        assert budget.remaining == 0

    def test_process_pool_admits_the_budget_once(self, dataset, plan):
        """No flag needed: budgeted sources alone route admission
        through the control plane, so the pool as a whole never spends
        more than the one budget -- and the caller's object reads it."""
        budget = QueryBudget(self.CAP)
        result = ProcessExecutor(max_workers=2).run(
            budgeted_sources(dataset, budget),
            plan,
            CrawlSpec(allow_partial=True, rebalance=True),
        )
        assert not result.complete
        assert budget.used == self.CAP
        assert budget.remaining == 0


class TestNoDoubleAdmission:
    """Hypothesis: racing admitters can never over-admit a shared budget."""

    @settings(max_examples=15, deadline=None)
    @given(
        budget_cap=st.integers(min_value=0, max_value=40),
        admitters=st.integers(min_value=1, max_value=4),
        attempts=st.integers(min_value=0, max_value=20),
    )
    def test_exactly_min_budget_attempts_admissions_succeed(
        self, coordinator, budget_cap, admitters, attempts
    ):
        budget = QueryBudget(budget_cap)
        stub = coordinator.share(budget)
        # Each admitter works through its own deserialised stub, the
        # worker-process shape, all charging one authoritative counter.
        stubs = [pickle.loads(pickle.dumps(stub)) for _ in range(admitters)]
        admitted = []

        def admitter(client):
            count = 0
            for _ in range(attempts):
                try:
                    client.admit()
                except QueryBudgetExhausted:
                    continue
                count += 1
            admitted.append(count)

        threads = [
            threading.Thread(target=admitter, args=(client,))
            for client in stubs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total_attempts = admitters * attempts
        assert sum(admitted) == min(budget_cap, total_attempts)
        assert stub.used == min(budget_cap, total_attempts)

    def test_cross_process_admissions_are_exactly_once(self, coordinator):
        """The same property with real worker processes racing."""
        from concurrent.futures import ProcessPoolExecutor as Pool

        budget = QueryBudget(10)
        stub = coordinator.share(budget)
        with Pool(max_workers=3) as pool:
            admitted = sum(pool.map(_admit_up_to, [stub] * 3, [6] * 3))
        assert admitted == 10
        assert stub.used == 10


def _admit_up_to(stub, attempts):
    count = 0
    for _ in range(attempts):
        try:
            stub.admit()
        except QueryBudgetExhausted:
            continue
        count += 1
    return count


class TestAbortDrain:
    """abort() lets surviving workers drain, never crash."""

    def test_complete_after_abort_is_silently_dropped(self, plan):
        from repro.crawl.rebalance import WorkStealingScheduler

        scheduler = WorkStealingScheduler(plan.bundles)
        task = scheduler.acquire(0)
        scheduler.abort()
        # The abort wrote the in-flight task off; its worker reporting
        # back afterwards must not trip the exactly-once check.
        scheduler.complete(task, 5)
        scheduler.fail(task)
        assert scheduler.acquire(0) is None
        assert task.key in scheduler.failed_keys()
        assert scheduler.completed_costs() == {}

    def test_publish_and_shard_completion_after_abort(self, plan):
        from repro.crawl.rebalance import SubtreeScheduler

        scheduler = SubtreeScheduler(plan.bundles)
        task = scheduler.acquire(0)
        scheduler.abort()
        assert scheduler.publish(task, _FakePlan()) is None
        assert scheduler.acquire(0, block=False) is None

    def test_double_complete_still_raises_without_abort(self, plan):
        from repro.crawl.rebalance import WorkStealingScheduler
        from repro.exceptions import AlgorithmInvariantError

        scheduler = WorkStealingScheduler(plan.bundles)
        task = scheduler.acquire(0)
        scheduler.complete(task, 5)
        with pytest.raises(AlgorithmInvariantError):
            scheduler.complete(task, 5)


class _FakePlan:
    shards = (object(),)


class TestCarriesLimits:
    """The process backend's one switch for the control plane."""

    def test_limit_free_stacks_carry_no_limits(self, dataset):
        plain = TopKServer(dataset, k=32)
        assert not carries_limits([plain, LatencySource(plain, 0.0)])
        assert not carries_limits([])

    def test_a_limit_anywhere_in_any_stack_counts(self, dataset):
        from repro.web.adapter import WebSession
        from repro.web.site import HiddenWebSite

        budgeted = TopKServer(dataset, k=32, limits=[QueryBudget(5)])
        plain = TopKServer(dataset, k=32)
        assert carries_limits([plain, budgeted])
        assert carries_limits([LatencySource(CachingClient(budgeted), 0.0)])
        assert carries_limits([WebSession(HiddenWebSite(budgeted))])

    def test_a_patient_clients_daily_quota_counts(self, dataset):
        clock = SimulatedClock()
        server = TopKServer(
            dataset, k=32, limits=[DailyRateLimit(1000, clock)]
        )
        assert carries_limits([PatientClient(server, clock)])

    @pytest.mark.parametrize("kwargs", SHARED_MATRIX)
    def test_process_backend_starts_the_coordinator_only_for_limits(
        self, kwargs, dataset, plan, reference, monkeypatch
    ):
        from repro.crawl import executors

        started = []

        class Spy(LimitCoordinator):
            def start(self):
                started.append(self)
                return super().start()

        monkeypatch.setattr(executors, "LimitCoordinator", Spy)
        expected, expected_charge = reference
        plain = [TopKServer(dataset, k=32) for _ in range(SESSIONS)]
        result = ProcessExecutor(max_workers=2).run(
            plain, plan, CrawlSpec(**kwargs)
        )
        assert_identical(result, expected)
        assert started == []
        budget = QueryBudget(100_000)
        result = ProcessExecutor(max_workers=2).run(
            budgeted_sources(dataset, budget), plan, CrawlSpec(**kwargs)
        )
        assert_identical(result, expected)
        assert len(started) == 1
        assert budget.used == expected_charge

    def test_one_budgeted_session_is_enough(self, dataset, plan):
        """A limit on one session's server puts the whole pool on the
        plane: that session's budget is charged exactly once."""

        def sources(budget):
            return [
                TopKServer(dataset, k=32, limits=[budget]),
                TopKServer(dataset, k=32),
                TopKServer(dataset, k=32),
            ]

        sequential_budget = QueryBudget(100_000)
        expected = crawl_partitioned(sources(sequential_budget), plan)
        budget = QueryBudget(100_000)
        result = ProcessExecutor(max_workers=2).run(
            sources(budget), plan, CrawlSpec(rebalance=True)
        )
        assert_identical(result, expected)
        assert budget.used == sequential_budget.used > 0


class TestPoolUnitFlush:
    """The pool wire function returns its worker's leased headroom
    before any unit's result leaves the worker: an idle worker would
    otherwise sit on charged budget units.  Each unit's server counts
    travel with its outcome, and are that unit's alone."""

    #: Small enough that the first region presplits into shards.
    K = 8

    @classmethod
    def sources(cls, dataset, budget):
        return [
            TopKServer(dataset, k=cls.K, limits=[budget])
            for _ in range(SESSIONS)
        ]

    @pytest.fixture
    def worker(self, dataset):
        from repro.crawl import executors
        from repro.crawl.hybrid import Hybrid

        budget = QueryBudget(100_000)
        with LimitCoordinator() as coordinator:
            shared = coordinator.share_sources(self.sources(dataset, budget))
            stubs = coordinator.shared_stubs()
            set_lease_chunk(stubs, 64)
            stub = next(
                stub for stub in stubs if isinstance(stub, SharedBudget)
            )
            # Install a payload as a pool worker would, then drop it.
            ticket = next(executors._TICKETS)
            executors._cached_payload(
                ticket, executors.pickle_payload(shared, Hybrid, stubs)
            )
            try:
                yield executors, ticket, stub
            finally:
                executors._PAYLOADS.pop(ticket, None)

    @classmethod
    def reference(cls, dataset):
        """An in-process runner over a local budget: the exact charges."""
        from repro.crawl.hybrid import Hybrid
        from repro.crawl.runtime import LocalUnitRunner

        budget = QueryBudget(100_000)
        runner = LocalUnitRunner(cls.sources(dataset, budget), Hybrid, False)
        return runner, budget

    def test_region_unit_flushes(self, worker, dataset, plan):
        from repro.crawl.rebalance import RegionTask

        executors, ticket, stub = worker
        region = plan.bundles[0][0]
        task = RegionTask(0, 0, region)
        result, counts, admitted = executors._pool_unit(
            ticket, None, False, task, None
        )
        runner, budget = self.reference(dataset)
        assert result.rows == runner.region(task).rows
        assert stub.used == budget.used
        assert [state["queries"] for state in counts] == [budget.used]
        assert admitted == [budget.used]

    def test_presplit_and_shard_units_flush(self, worker, dataset, plan):
        from repro.crawl.rebalance import RegionTask, ShardTask

        executors, ticket, stub = worker
        runner, budget = self.reference(dataset)
        region = plan.bundles[0][0]
        task = RegionTask(0, 0, region)
        shard_plan, counts, _ = executors._pool_unit(
            ticket, None, False, task, 4
        )
        runner.presplit(task, 4)
        assert shard_plan.shards
        answered = counts[0]["queries"]
        assert stub.used == budget.used == answered
        for shard in shard_plan.shards:
            shard_task = ShardTask(0, 0, region, shard)
            _, counts, _ = executors._pool_unit(
                ticket, None, False, shard_task, None
            )
            answered += counts[0]["queries"]
            runner.shard(shard_task)
            assert stub.used == budget.used == answered


class TestRewireValidation:
    def test_unrewireable_source_is_a_clear_error(self, coordinator):
        class OpaqueSource:
            def run(self, query):
                raise NotImplementedError

        with pytest.raises(TypeError, match="could not rewire"):
            coordinator.share_sources([OpaqueSource()])

    def test_web_session_stack_is_rewired(self, coordinator, dataset):
        from repro.web.adapter import WebSession
        from repro.web.site import HiddenWebSite

        budget = QueryBudget(1000)
        session = WebSession(
            HiddenWebSite(TopKServer(dataset, k=32, limits=[budget]))
        )
        (rewired,) = coordinator.share_sources([session])
        assert rewired is not session
        inner = rewired._site._server
        assert isinstance(inner._limits[0], SharedBudget)


class TestLeaseBatching:
    """Tentpole: chunked admission through the plane stays exact."""

    def test_chunked_admit_consumes_locally_and_flush_returns(
        self, coordinator
    ):
        budget = QueryBudget(100)
        stub = coordinator.share(budget)
        stub.lease_chunk = 8
        for _ in range(3):
            stub.admit()
        # One chunk charged upfront; the extra units are held locally.
        assert stub.used == 8
        stub.flush()
        assert stub.used == 3  # unused units returned exactly
        stub.flush()  # idempotent on an empty lease
        assert stub.used == 3
        coordinator.writeback()
        assert budget.used == 3

    def test_writeback_flushes_parent_held_leases(self, coordinator):
        budget = QueryBudget(50)
        stub = coordinator.share(budget)
        stub.lease_chunk = 16
        stub.admit()
        coordinator.writeback()
        assert budget.used == 1

    def test_pickled_clone_starts_without_the_lease(self, coordinator):
        budget = QueryBudget(100)
        stub = coordinator.share(budget)
        stub.lease_chunk = 5
        stub.admit()  # stub now holds 4 unused units
        clone = pickle.loads(pickle.dumps(stub))
        assert clone.lease_chunk == 5
        clone.admit()  # must lease afresh, not double-spend stub's
        assert stub.used == 10
        stub.flush()
        clone.flush()
        assert stub.used == 2

    def test_exhaustion_via_chunked_leases_is_faithful(self, coordinator):
        budget = QueryBudget(7)
        stub = coordinator.share(budget)
        stub.lease_chunk = 4
        for _ in range(7):
            stub.admit()
        with pytest.raises(QueryBudgetExhausted) as excinfo:
            stub.admit()
        assert excinfo.value.issued == 7
        assert stub.used == 7
        coordinator.writeback()
        assert budget.used == 7

    def test_daily_limits_stay_per_query_under_a_budget_chunk(
        self, coordinator
    ):
        """set_lease_chunk touches budgets only: clock-coupled limits
        keep exact per-query admission."""
        clock = SimulatedClock()
        daily = DailyRateLimit(5, clock)
        shared_daily = coordinator.share(daily)
        budget_stub = coordinator.share(QueryBudget(50))
        set_lease_chunk(coordinator.shared_stubs(), 10)
        assert budget_stub.lease_chunk == 10
        assert shared_daily.lease_chunk == 1
        shared_daily.admit()
        coordinator.writeback()
        assert daily.used_today == 1

    def test_set_lease_chunk_rejects_nonpositive(self, coordinator):
        with pytest.raises(ValueError):
            set_lease_chunk(coordinator.shared_stubs(), 0)

    def test_clamp_collapses_tight_budgets_to_per_query(self, coordinator):
        """The conservative-admission guard: a chunk may never let the
        fleet strand more than a quarter of the remaining budget, and a
        tight budget degrades to exact per-query admission."""
        tight = coordinator.share(QueryBudget(12))
        assert clamp_lease_chunk([tight], 32, fleet=3) == 1
        roomy = coordinator.share(QueryBudget(100_000))
        # The tightest budget among the stubs still governs.
        assert clamp_lease_chunk([tight, roomy], 32, fleet=3) == 1
        with pytest.raises(ValueError):
            clamp_lease_chunk([tight], 32, fleet=0)

    def test_clamp_leaves_roomy_budgets_alone(self, coordinator):
        roomy = coordinator.share(QueryBudget(100_000))
        assert clamp_lease_chunk([roomy], 32, fleet=4) == 32
        # Only the stubs passed in bound the chunk: another tenant's
        # tight budget on the same coordinator does not.
        coordinator.share(QueryBudget(12))
        assert clamp_lease_chunk([roomy], 32, fleet=4) == 32
        # No budgets at all: nothing to clamp against.
        assert clamp_lease_chunk([], 32, fleet=4) == 32


class TestLeaseExactnessProperty:
    """Satellite hypothesis property: for any interleaving of lease
    sizes, demands and flush points, the charged cost is exact --
    no over-admission ever, unused leases returned whenever no refusal
    occurred, and a refused budget reading fully charged."""

    @settings(max_examples=40, deadline=None)
    @given(
        cap=st.integers(min_value=0, max_value=60),
        clients=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),  # lease chunk
                st.integers(min_value=0, max_value=25),  # demand
            ),
            min_size=1,
            max_size=4,
        ),
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # client index
                st.booleans(),  # admit (True) or flush (False)
            ),
            max_size=120,
        ),
    )
    def test_any_interleaving_charges_sequential_cost(
        self, cap, clients, schedule
    ):
        from repro.crawl.coordinator import (
            SharedBudget,
            _ControlPlane,
        )

        plane = _ControlPlane()
        budget = QueryBudget(cap)
        handle = plane._add(budget)
        stubs = [
            SharedBudget(plane, handle, lease_chunk=chunk)
            for chunk, _ in clients
        ]
        demands = [demand for _, demand in clients]
        issued = [0] * len(clients)
        refused = False
        for index, is_admit in schedule:
            if index >= len(stubs):
                continue
            stub = stubs[index]
            if not is_admit:
                stub.flush()
                continue
            if issued[index] >= demands[index]:
                continue
            try:
                stub.admit()
            except QueryBudgetExhausted as exc:
                # A refusal reports the fully-charged budget.
                assert exc.issued == cap
                refused = True
            else:
                issued[index] += 1
        for stub in stubs:
            stub.flush()
        total_issued = sum(issued)
        # Never over-admitted, whatever the interleaving.
        assert total_issued <= cap
        if refused:
            # Terminal exhaustion reads fully charged, exactly as
            # per-query admission would have left it.
            assert budget.used == cap
        else:
            # Every admitted query charged once, every unused leased
            # unit returned: the exact sequential charge.
            assert budget.used == total_issued


class TestRoundTripReduction:
    """Acceptance: lease batching cuts coordinator round trips >= 2x on
    a limit-bearing plan, with byte-identical results and the exact
    same charge."""

    def crawl(self, dataset, plan, lease_chunk):
        budget = QueryBudget(100_000)
        sources = budgeted_sources(dataset, budget)
        executor = ProcessExecutor(max_workers=2, lease_chunk=lease_chunk)
        result = executor.run(sources, plan)
        return result, budget.used, sources[0].stats.round_trips

    def test_leased_crawl_is_identical_with_far_fewer_round_trips(
        self, dataset, plan, reference
    ):
        expected, expected_charge = reference
        per_query = self.crawl(dataset, plan, 1)
        leased = self.crawl(dataset, plan, 16)
        for result, charge, _ in (per_query, leased):
            assert_identical(result, expected)
            assert charge == expected_charge
        assert per_query[2] > 0 and leased[2] > 0
        assert leased[2] * 2 <= per_query[2], (
            f"expected >= 2x fewer coordinator round trips with lease "
            f"batching, got {per_query[2]} per-query vs {leased[2]} leased"
        )

    def test_round_trips_land_in_caller_stats(self, dataset, plan):
        budget = QueryBudget(100_000)
        sources = budgeted_sources(dataset, budget)
        assert sources[0].stats.round_trips == 0
        ProcessExecutor(max_workers=2).run(
            sources, plan, CrawlSpec(rebalance=True)
        )
        # Fleet-wide plane chatter written back into every stats object.
        totals = {source.stats.round_trips for source in sources}
        assert len(totals) == 1
        assert totals.pop() > 0

    def test_explicit_release_returns_the_prior_chunk(self, coordinator):
        """Re-leasing over an undrained lease must not strand its
        charged units: the prior chunk flows back first."""
        budget = QueryBudget(100)
        stub = coordinator.share(budget)
        first = stub.lease(8)
        assert first.take()
        stub.lease(8)  # prior lease: 7 unused units released, not lost
        stub.flush()
        assert stub.used == 1


class TestCheckpointedCharge:
    """A checkpoint written mid-crawl stores the charge so far."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stored_budget_tracks_every_landed_region(
        self, backend, tmp_path
    ):
        """Each region's checkpoint stores a positive, nondecreasing
        ``used``, and the last one equals the final charge -- so a kill
        mid-window resumes with the window's true remainder."""
        import json

        from repro.crawl.checkpoint import CheckpointWriter
        from repro.datasets.adult import adult

        data = adult(n=3000, seed=3)
        plan = partition_space(data.space, 2)
        budget = QueryBudget(10_000_000)
        path = tmp_path / "crawl.ckpt"
        writer = CheckpointWriter(path, plan, 32, budget=budget)
        stored = []
        lock = threading.Lock()

        def on_region(key, result):
            # Write, read back and record as one step, so the list keeps
            # the order in which the checkpoints were written.
            with lock:
                writer.region_done(key, result)
                checkpoint = json.loads(path.read_text())
                stored.append(checkpoint["budget"]["used"])

        spec = CrawlSpec(
            executor=backend,
            max_workers=2,
            rebalance=True,
            on_region=on_region,
        )
        sources = [
            TopKServer(data, 32, limits=[budget])
            for _ in range(plan.sessions)
        ]
        make_executor(spec=spec).run(sources, plan, spec)
        assert len(stored) == len(plan.regions)
        assert stored[0] > 0
        assert stored == sorted(stored)
        assert stored[-1] == budget.used
