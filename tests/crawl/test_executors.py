"""Executor-parity suite: every backend, byte-identical results.

The executor abstraction promises that the
:class:`~repro.crawl.partition.PartitionedResult` is a pure function of
(sources, plan, crawler factory) -- never of the backend, the worker
count, or the stealing schedule.  These tests pin that contract:
sequential, thread and process backends against the sequential
reference, field by field, and one failure rule for all of them and
the job service: the lowest failing plan position is raised.
"""

import functools
import os
import pickle
import time

import numpy as np
import pytest

from repro.crawl.spec import CrawlSpec
from repro.crawl.base import ProgressAggregator, SessionState
from repro.crawl.executors import (
    EXECUTORS,
    ProcessExecutor,
    SequentialExecutor,
    ThreadExecutor,
    default_workers,
)
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted, SchemaError
from repro.server.client import CachingClient
from repro.server.latency import LatencySource
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from repro.web.adapter import WebSession
from repro.web.site import HiddenWebSite

SESSIONS = 3

#: Every backend the parity contract covers.
BACKENDS = ("sequential", "thread", "process")


def mixed_dataset(seed=3, n=300):
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
    return mixed_dataset()


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


def make_sources(dataset):
    return [TopKServer(dataset, k=32) for _ in range(SESSIONS)]


@pytest.fixture(scope="module")
def reference(dataset, plan):
    return crawl_partitioned(make_sources(dataset), plan)


class AwaitMarker:
    """Crawler factory: ``region``'s crawl waits for ``marker`` to exist.

    Picklable for the process backend.  Raises :class:`TimeoutError`
    if the marker has not appeared within ``timeout`` seconds.
    """

    def __init__(self, region, marker, timeout=5.0):
        self.region = region
        self.marker = str(marker)
        self.timeout = timeout

    def __call__(self, view):
        if view.region == self.region:
            deadline = time.monotonic() + self.timeout
            while not os.path.exists(self.marker):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{self.marker} never appeared")
                time.sleep(0.01)
        return Hybrid(view)


class FailOn(Hybrid):
    """A ``Hybrid`` whose construction over a region of ``failing``
    raises.

    ``failing`` pairs plan positions with their regions; the error
    names the position, so a test can tell which failure a run raised.
    Bound with :func:`functools.partial`, it stays a ``Hybrid`` factory
    that subtree sharding can presplit, and picklable for the process
    backend.
    """

    def __init__(self, view, *, failing=()):
        for key, region in failing:
            if view.region == region:
                raise RuntimeError(f"region {key} failed")
        super().__init__(view)


def assert_identical(result, reference):
    """The full determinism contract, field by field."""
    assert result.rows == reference.rows  # byte-identical order
    assert result.cost == reference.cost
    assert result.complete == reference.complete
    assert result.session_costs() == reference.session_costs()
    assert result.progress == reference.progress
    for i in range(result.plan.sessions):
        assert len(result.results[i]) == len(reference.results[i])
        for a, b in zip(result.results[i], reference.results[i]):
            assert a.rows == b.rows
            assert a.cost == b.cost
            assert a.progress == b.progress


class TestParity:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_backend_matches_sequential(self, name, dataset, plan, reference):
        result = crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(executor=name, max_workers=SESSIONS),
        )
        assert_identical(result, reference)
        assert result.complete
        assert sorted(result.rows) == sorted(dataset.iter_rows())

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_fewer_workers_than_sessions(
        self, name, dataset, plan, reference
    ):
        result = crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(executor=name, max_workers=2),
        )
        assert_identical(result, reference)

    def test_latency_wrapped_sources(self, dataset, plan):
        """The same parity through latency wrappers on worker threads."""
        def wrapped():
            return [
                LatencySource(TopKServer(dataset, k=32), 0.0005)
                for _ in range(SESSIONS)
            ]

        reference = crawl_partitioned(wrapped(), plan)
        result = crawl_partitioned(
            wrapped(),
            plan,
            CrawlSpec(executor="thread", max_workers=SESSIONS),
        )
        assert_identical(result, reference)

    def test_web_adapter_sources_on_threads(self, dataset):
        """Thread sessions against repro.web, through its plain run."""

        def web_sources():
            return [
                LatencySource(
                    WebSession(HiddenWebSite(TopKServer(dataset, k=32))),
                    0.0005,
                )
                for _ in range(2)
            ]

        # The web layer reconstructs the space from the search form, so
        # the plan must be built against the reconstructed schema.
        plan = partition_space(web_sources()[0].space, 2)
        reference = crawl_partitioned(web_sources(), plan)
        result = crawl_partitioned(
            web_sources(),
            plan,
            CrawlSpec(executor="thread", max_workers=2),
        )
        assert_identical(result, reference)
        assert sorted(result.rows) == sorted(dataset.iter_rows())


class TestProcessBackend:
    def test_pickles_sources_once_and_matches(self, dataset, plan, reference):
        result = crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(
                executor="process",
                max_workers=2,
                crawler_factory=functools.partial(Hybrid),
            ),
        )
        assert_identical(result, reference)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_pooled_crawl_files_each_region_as_it_lands(
        self, name, dataset, tmp_path
    ):
        """Session 0's second region waits, in its worker, for the
        marker ``on_region`` writes when the first one lands -- which
        only happens if each region is filed as it arrives."""
        plan = partition_space(dataset.space, 2)
        assert len(plan.bundles[0]) >= 2
        marker = tmp_path / "first-region-filed"

        def on_region(key, result):
            if key == (0, 0):
                marker.touch()

        reference = crawl_partitioned(make_sources(dataset)[:2], plan)
        result = crawl_partitioned(
            make_sources(dataset)[:2],
            plan,
            CrawlSpec(
                executor=name,
                max_workers=2,
                crawler_factory=AwaitMarker(plan.bundles[0][1], marker),
                on_region=on_region,
            ),
        )
        assert_identical(result, reference)

    def test_unpicklable_factory_is_a_clear_error(self, dataset, plan):
        with pytest.raises(TypeError, match="picklable"):
            crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(
                    executor="process",
                    max_workers=2,
                    crawler_factory=lambda view: Hybrid(view),
                ),
            )

    def test_client_pickle_drops_listeners_keeps_cache(self, dataset):
        client = CachingClient(TopKServer(dataset, k=32))
        client.add_listener(lambda query, response: None)
        from repro.query.query import Query

        query = Query.full(dataset.space)
        first = client.run(query)
        clone = pickle.loads(pickle.dumps(client))
        assert clone.cost == client.cost
        assert clone.peek(query) == first  # cache travelled
        assert clone.run(query) == first  # and still answers for free
        assert clone.cost == client.cost


class TestValidation:
    def test_unknown_backend_name(self):
        with pytest.raises(ValueError, match="unknown executor"):
            CrawlSpec(executor="fiber")

    def test_registry_names(self):
        assert set(EXECUTORS) == {"sequential", "thread", "process"}

    def test_nonpositive_workers(self):
        for name in ("thread", "process"):
            with pytest.raises(ValueError):
                CrawlSpec(executor=name, max_workers=0)

    def test_source_count_must_match_plan(self, dataset, plan):
        with pytest.raises(SchemaError):
            SequentialExecutor().run([TopKServer(dataset, k=32)], plan)

    def test_mismatched_aggregator(self, dataset, plan):
        with pytest.raises(ValueError):
            crawl_partitioned(
                make_sources(dataset),
                plan,
                CrawlSpec(
                    executor="thread",
                    max_workers=2,
                    aggregator=ProgressAggregator(SESSIONS + 2),
                ),
            )

    def test_default_workers_bounds(self):
        assert default_workers(1) == 1
        assert 1 <= default_workers(10_000) <= 10_000

    def test_executors_take_every_setting_from_the_spec(
        self, dataset, plan
    ):
        """An instance carries no worker count and no crawl knobs: the
        spec alone configures a run, and a spec naming another backend
        is rejected, never silently ignored."""
        with pytest.raises(TypeError):
            ThreadExecutor(max_workers=2)
        with pytest.raises(TypeError):
            ProcessExecutor(max_workers=2)
        with pytest.raises(TypeError):
            crawl_partitioned(
                make_sources(dataset), plan, crawler_factory=Hybrid
            )
        with pytest.raises(ValueError, match="process"):
            ThreadExecutor().run(
                make_sources(dataset), plan, CrawlSpec(executor="process")
            )
        result = ThreadExecutor().run(
            make_sources(dataset), plan, CrawlSpec(max_workers=2)
        )
        assert result.complete

    @pytest.mark.parametrize("name", [None, "sequential", "thread", "process"])
    def test_crawl_partitioned_dispatches_on_the_spec(
        self, name, dataset, plan, reference
    ):
        """``crawl_partitioned`` runs the backend ``spec.executor`` names,
        the sequential reference when it is ``None``: all four merge to
        the same bytes, and their failure contracts tell them apart."""
        spec = CrawlSpec(executor=name, max_workers=SESSIONS)
        merged = crawl_partitioned(make_sources(dataset), plan, spec)
        assert merged.rows == reference.rows
        # Sessions 0 and 2 run out of budget; session 1 does not.
        budgets = [QueryBudget(1), None, QueryBudget(2)]
        sources = [
            TopKServer(dataset, k=32, limits=[b] if b else [])
            for b in budgets
        ]
        with pytest.raises(QueryBudgetExhausted, match="budget of 1 "):
            crawl_partitioned(sources, plan, spec)
        drained = sources[1].stats.queries > 0
        if name in (None, "sequential"):
            # Stops at the first failing session: nothing after it ran.
            assert not drained
            assert budgets[2].used == 0
        else:
            # Drains every session, then raises the lowest failure.
            assert drained
            assert budgets[2].used == 2


class TestFailureRule:
    LEGS = (None, *BACKENDS)

    @pytest.mark.parametrize(
        "leg,shards",
        [
            *(pytest.param(name, None, id=str(name)) for name in LEGS),
            pytest.param("thread", 4, id="thread-sharded"),
            pytest.param("process", 4, id="process-sharded"),
            pytest.param("service", None, id="service"),
        ],
    )
    def test_lowest_plan_position_is_raised(
        self, leg, shards, dataset, plan, tmp_path
    ):
        """Two regions of different sessions raise.  Every backend and
        the job service report the lower position's failure -- not the
        first to happen: a pooled worker reaches session 1's first
        region before session 0's last.  The pooled runs land every
        other region first; the sequential reference, which
        ``crawl_partitioned`` runs for ``executor=None`` too, stops
        where the lower failure is.  Under subtree sharding the failing
        regions raise in their presplit, by the same rule."""
        low = (0, len(plan.bundles[0]) - 1)
        high = (1, 0)
        factory = functools.partial(
            FailOn,
            failing=[
                (key, plan.bundles[key[0]][key[1]]) for key in (low, high)
            ],
        )
        landed = []
        spec = CrawlSpec(
            max_workers=2,
            shard_subtrees=shards,
            crawler_factory=factory,
            on_region=lambda key, result: landed.append(key),
        )
        if leg == "service":
            from repro.service.api import CrawlService
            from repro.service.jobs import JobState

            with CrawlService(tmp_path / "crawl.db", workers=2) as service:
                service.register_tenant("acme")
                job = service.submit(
                    "acme",
                    dataset,
                    32,
                    name="f",
                    spec=spec,
                    sessions=SESSIONS,
                )
                status = service.wait(job, timeout=60)
            assert status.state is JobState.FAILED
            assert status.error == f"region {low} failed"
        else:
            with pytest.raises(RuntimeError) as raised:
                crawl_partitioned(
                    make_sources(dataset), plan, spec.replace(executor=leg)
                )
            assert str(raised.value) == f"region {low} failed"
        others = [
            (session, index)
            for session, bundle in enumerate(plan.bundles)
            for index in range(len(bundle))
            if (session, index) not in (low, high)
        ]
        if leg in (None, "sequential"):
            assert landed == [key for key in others if key < low]
        else:
            assert sorted(landed) == others


class TestTerminalStates:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_all_sessions_marked_done(self, name, dataset, plan):
        aggregator = ProgressAggregator(SESSIONS)
        merged = crawl_partitioned(
            make_sources(dataset),
            plan,
            CrawlSpec(
                executor=name,
                max_workers=SESSIONS,
                aggregator=aggregator,
            ),
        )
        assert aggregator.states() == (SessionState.DONE,) * SESSIONS
        assert aggregator.all_terminal()
        totals = aggregator.totals()
        assert totals.queries == merged.cost
        assert totals.tuples == merged.tuples_extracted

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_failed_session_is_not_left_in_flight(self, name, dataset, plan):
        """A failed session reads failed, not running, so monitors and
        stealing stop waiting on ghosts -- on both pooled backends."""
        sources = [
            TopKServer(dataset, k=32, limits=[QueryBudget(1)]),
            TopKServer(dataset, k=32),
            TopKServer(dataset, k=32),
        ]
        aggregator = ProgressAggregator(SESSIONS)
        with pytest.raises(QueryBudgetExhausted):
            crawl_partitioned(
                sources,
                plan,
                CrawlSpec(
                    executor=name,
                    max_workers=SESSIONS,
                    aggregator=aggregator,
                ),
            )
        assert aggregator.state(0) is SessionState.FAILED
        assert aggregator.state(1) is SessionState.DONE
        assert aggregator.state(2) is SessionState.DONE
        assert aggregator.all_terminal()
        # Snapshot pairs every session with its terminal state.
        for point, state in aggregator.snapshot():
            assert state.terminal

    def test_sequential_marks_abandoned_sessions_cancelled(
        self, dataset, plan
    ):
        """Stopping at the first failure must not leave never-started
        sessions reading as running forever."""
        sources = [
            TopKServer(dataset, k=32, limits=[QueryBudget(1)]),
            TopKServer(dataset, k=32),
            TopKServer(dataset, k=32),
        ]
        aggregator = ProgressAggregator(SESSIONS)
        with pytest.raises(QueryBudgetExhausted):
            SequentialExecutor().run(
                sources, plan, CrawlSpec(aggregator=aggregator)
            )
        assert aggregator.states() == (
            SessionState.FAILED,
            SessionState.CANCELLED,
            SessionState.CANCELLED,
        )
        assert aggregator.all_terminal()

    def test_states_api(self):
        aggregator = ProgressAggregator(2)
        assert aggregator.active() == 2
        assert not aggregator.all_terminal()
        aggregator.mark_done(0)
        aggregator.mark_done(0)  # idempotent
        with pytest.raises(ValueError):
            aggregator.mark_failed(0)  # terminal states don't flip
        aggregator.mark_cancelled(1)
        assert aggregator.states() == (
            SessionState.DONE,
            SessionState.CANCELLED,
        )
        assert aggregator.all_terminal()


class TestPayloadSlimming:
    """Process payloads carry data, never rebuildable derived state."""

    def sources(self, dataset, warmed=True):
        from repro.query.query import Query

        sources = [
            TopKServer(dataset, k=8, priority_seed=0)
            for _ in range(SESSIONS)
        ]
        if warmed:
            # Build row-tuple caches and lazy value indexes: exactly
            # the derived state that must not travel.
            for server in sources:
                query = Query.full(server.space).with_value(0, 1)
                server.run(query)
        return sources

    def test_warmed_caches_do_not_inflate_the_payload(self, dataset):
        from repro.crawl.executors import pickle_payload

        cold = len(pickle_payload(self.sources(dataset, False), Hybrid))
        warm = len(pickle_payload(self.sources(dataset, True), Hybrid))
        assert warm == cold

    def test_duplicate_matrices_ship_once(self, dataset):
        from repro.crawl.executors import pickle_payload

        one = len(pickle_payload(self.sources(dataset)[:1], Hybrid))
        all_sessions = len(pickle_payload(self.sources(dataset), Hybrid))
        # Each extra session adds bookkeeping, not another copy of the
        # (deduplicated) engine matrix / dataset rows.
        matrix_bytes = dataset.rows.nbytes
        assert all_sessions - one < matrix_bytes

    def test_payload_unpickles_to_working_sources(self, dataset):
        from repro.crawl.executors import pickle_payload
        from repro.query.query import Query

        sources = self.sources(dataset)
        payload = pickle_payload(sources, Hybrid)
        clones, factory, stubs = pickle.loads(payload)
        assert factory is Hybrid
        assert stubs == ()
        query = Query.full(dataset.space).with_value(0, 2)
        for clone, original in zip(clones, sources):
            assert clone.run(query) == original.run(query)

    def test_dedup_respects_dtype_and_shape(self):
        from repro.crawl.executors import _PayloadPickler
        import io

        same = np.arange(64, dtype=np.int64)
        grid = same.reshape(8, 8)
        symmetric = grid + grid.T  # equal bytes in either memory order
        pairs = (
            (same, same.copy()),  # content-equal: deduplicated
            (same, same.astype(np.int32)),  # dtype differs: kept apart
            (same, grid),  # shape differs: kept apart
            (grid, np.asfortranarray(grid)),  # order differs: kept apart
            (symmetric, np.asfortranarray(symmetric)),
        )
        sizes = []
        for left, right in pairs:
            buffer = io.BytesIO()
            _PayloadPickler(buffer).dump((left, right))
            sizes.append(len(buffer.getvalue()))
            # Each array unpickles in its own memory order.
            unpickled = pickle.loads(buffer.getvalue())
            for sent, got in zip((left, right), unpickled):
                assert np.array_equal(sent, got)
                assert got.flags.f_contiguous == sent.flags.f_contiguous
                assert got.flags.c_contiguous == sent.flags.c_contiguous
        deduped, *kept = sizes
        assert all(deduped < size for size in kept)
        # And the deduplicated pair still round-trips content-equal.
        buffer = io.BytesIO()
        _PayloadPickler(buffer).dump((same, same.copy()))
        left, right = pickle.loads(buffer.getvalue())
        assert np.array_equal(left, right)

    def test_process_executor_records_payload_bytes(
        self, dataset, plan, reference
    ):
        executor = ProcessExecutor()
        assert executor.payload_bytes == 0
        result = executor.run(
            make_sources(dataset),
            plan,
            CrawlSpec(
                max_workers=2, crawler_factory=functools.partial(Hybrid)
            ),
        )
        assert_identical(result, reference)
        assert executor.payload_bytes > 0
