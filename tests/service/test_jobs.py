"""The job server's acceptance contract, end to end.

Two concurrent tenants with separate budgets complete jobs whose
stored rows are byte-identical to standalone sequential crawls, with
exact per-tenant charges and zero cross-tenant admission; an exhausted
tenant fails only its own job; ``rows`` works mid-crawl; and a
killed-and-restarted server resumes from SQLite re-issuing zero
queries for committed regions.  The contracts are backend-agnostic:
tests taking the ``service_backend`` fixture re-run under the
process backend when ``REPRO_SERVICE_BACKENDS`` says so.

The admission layer (bounded per-tenant pending queues, priority
classes) is pinned by hypothesis property suites: arbitrary
submit/cancel interleavings never over-admit past the bound, the
rotation never starves a ready tenant of its class, and shutdown
drains to empty.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawl.coordinator import TenantLimitRegistry
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.spec import CrawlSpec
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import RetryAfter, SchemaError
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from repro.service.api import CrawlService
from repro.service.jobs import JobManager, JobState, rotation_order
from repro.service.store import ResultStore

K = 32
SESSIONS = 3


def service_dataset(seed=9, n=240):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 5), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 399)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 6, n),
            rng.integers(1, 4, n),
            rng.integers(0, 400, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return service_dataset()


@pytest.fixture(scope="module")
def reference(dataset):
    """The sequential reference crawl, with its physical query count.

    ``result.cost`` is the paper's logical cost metric;
    ``queries`` meters what admission limits actually see -- the
    cache-miss queries that reach the server -- via a throwaway
    budget on the reference sources.
    """
    plan = partition_space(dataset.space, SESSIONS)
    meter = QueryBudget(1_000_000)
    sources = [
        TopKServer(dataset, K, priority_seed=0, limits=[meter])
        for _ in range(SESSIONS)
    ]
    result = crawl_partitioned(sources, plan)
    return result, meter.used


@pytest.fixture(scope="module")
def standalone(reference):
    return reference[0]


@pytest.fixture(scope="module")
def standalone_queries(reference):
    return reference[1]


def open_service(
    tmp_path,
    workers=2,
    name="crawl.db",
    backend="thread",
    max_pending=None,
):
    return CrawlService(
        tmp_path / name,
        workers=workers,
        backend=backend,
        max_pending=max_pending,
    )


class TestLifecycle:
    def test_done_job_matches_standalone(
        self, tmp_path, dataset, standalone, service_backend
    ):
        with open_service(tmp_path, backend=service_backend) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            status = service.wait(job, timeout=60)
            assert status.state is JobState.DONE
            assert status.regions_done == status.regions_total
            assert status.cost == standalone.cost
            assert service.rows(job) == list(standalone.rows)
            merged = service.result(job)
            assert merged.rows == standalone.rows
            assert merged.cost == standalone.cost

    def test_status_transitions_reach_the_store(
        self, tmp_path, dataset, service_backend
    ):
        with open_service(tmp_path, backend=service_backend) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            service.wait(job, timeout=60)
        with ResultStore(tmp_path / "crawl.db") as store:
            assert store.job_status(job)["status"] == "done"

    def test_resubmit_active_job_rejected(self, tmp_path, dataset):
        gate = threading.Event()
        release = threading.Event()

        def on_region(key, result):
            gate.set()
            release.wait(30)

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert gate.wait(30)
            with pytest.raises(ValueError, match="already active"):
                service.submit(
                    "acme", dataset, K, name="demo", sessions=SESSIONS
                )
            release.set()
            service.wait(job, timeout=60)

    def test_spec_executor_overrides_service_backend(
        self, tmp_path, dataset, standalone
    ):
        """One job can opt into another backend via its spec."""
        with open_service(tmp_path) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(executor="process"),
                sessions=SESSIONS,
            )
            status = service.wait(job, timeout=60)
            assert status.state is JobState.DONE
            assert service.rows(job) == list(standalone.rows)

    @pytest.mark.parametrize(
        "leg",
        [
            "sequential",
            "thread",
            "process",
            "service",
            "thread+rebalance",
        ],
    )
    def test_only_the_stealing_loop_presplits(
        self, tmp_path, monkeypatch, leg
    ):
        """Shards pay only where a thief can take them: under
        ``shard_subtrees=N`` the sequential reference, static dispatch
        on both pooled backends and the job service's fleet crawl every
        region whole, while the rebalanced loop presplits each region
        it takes exactly once.  Every leg keeps the reference bytes."""
        from repro.crawl.executors import PoolUnitRunner, make_executor
        from repro.crawl.runtime import LocalUnitRunner
        from repro.datasets.adult import adult

        presplits = []
        for runner_class in (LocalUnitRunner, PoolUnitRunner):

            def spy(self, task, max_shards, original=runner_class.presplit):
                presplits.append(task.key)
                return original(self, task, max_shards)

            monkeypatch.setattr(runner_class, "presplit", spy)
        data = adult(n=2000, seed=11)
        plan = partition_space(data.space, 2)

        def sources():
            return [TopKServer(data, 64) for _ in range(plan.sessions)]

        expected = crawl_partitioned(sources(), plan)
        if leg == "service":
            spec = CrawlSpec(max_workers=2, shard_subtrees=4)
            with open_service(tmp_path) as service:
                service.register_tenant("acme")
                job = service.submit("acme", data, 64, name="n", spec=spec)
                assert service.wait(job, timeout=60).state is JobState.DONE
                assert service.rows(job) == list(expected.rows)
        else:
            name, _, rebalance = leg.partition("+")
            spec = CrawlSpec(
                executor=name,
                max_workers=2,
                rebalance=bool(rebalance),
                shard_subtrees=4,
            )
            result = make_executor(spec=spec).run(sources(), plan, spec)
            assert result.rows == expected.rows
            assert result.cost == expected.cost
        if leg == "thread+rebalance":
            assert sorted(presplits) == [
                (session, index)
                for session, bundle in enumerate(plan.bundles)
                for index in range(len(bundle))
            ]
        else:
            assert presplits == []

    def test_identity_drift_raises(self, tmp_path, dataset):
        with open_service(tmp_path) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            service.wait(job, timeout=60)
            with pytest.raises(SchemaError):
                service.submit(
                    "acme", dataset, K * 2, name="demo", sessions=SESSIONS
                )

    def test_wait_timeout(self, tmp_path, dataset):
        gate = threading.Event()
        release = threading.Event()

        def on_region(key, result):
            gate.set()
            release.wait(30)

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert gate.wait(30)
            with pytest.raises(TimeoutError):
                service.wait(job, timeout=0.05)
            release.set()
            service.wait(job, timeout=60)


class TestMultiTenant:
    def test_concurrent_tenants_byte_identical_and_exactly_charged(
        self, tmp_path, dataset, standalone, standalone_queries,
        service_backend,
    ):
        """The headline contract: two tenants, one fleet, exact books."""
        with open_service(
            tmp_path, workers=3, backend=service_backend
        ) as service:
            service.register_tenant("acme", budget=100_000)
            service.register_tenant("umbrella", budget=100_000)
            a = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            b = service.submit(
                "umbrella", dataset, K, name="demo", sessions=SESSIONS
            )
            status_a = service.wait(a, timeout=60)
            status_b = service.wait(b, timeout=60)
            assert status_a.state is JobState.DONE
            assert status_b.state is JobState.DONE
            # Byte-identical to the standalone sequential crawl.
            assert service.rows(a) == list(standalone.rows)
            assert service.rows(b) == list(standalone.rows)
            # Exact per-tenant charges: each tenant's budget was hit
            # for precisely its own job's server queries, nobody
            # else's.
            assert (
                service.registry.budget("acme").used
                == standalone_queries
            )
            assert (
                service.registry.budget("umbrella").used
                == standalone_queries
            )

    def test_exhausted_tenant_never_blocks_another(
        self, tmp_path, dataset, standalone, standalone_queries,
        service_backend,
    ):
        """Tenant isolation: 'poor' runs dry, 'rich' is untouched."""
        with open_service(
            tmp_path, workers=2, backend=service_backend
        ) as service:
            service.register_tenant("poor", budget=5)
            service.register_tenant("rich", budget=100_000)
            failing = service.submit(
                "poor", dataset, K, name="doomed", sessions=SESSIONS
            )
            fine = service.submit(
                "rich", dataset, K, name="demo", sessions=SESSIONS
            )
            status_poor = service.wait(failing, timeout=60)
            status_rich = service.wait(fine, timeout=60)
            assert status_poor.state is JobState.FAILED
            assert "budget" in status_poor.error.lower()
            assert status_rich.state is JobState.DONE
            assert service.rows(fine) == list(standalone.rows)
            # Zero cross-tenant admission: rich paid for exactly its
            # own crawl, poor for at most its 5 admitted queries.
            assert (
                service.registry.budget("rich").used
                == standalone_queries
            )
            assert service.registry.budget("poor").used <= 5

    def test_charges_persist_in_the_store(
        self, tmp_path, dataset, service_backend
    ):
        with open_service(tmp_path, backend=service_backend) as service:
            service.register_tenant("acme", budget=100_000)
            job = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            service.wait(job, timeout=60)
            used = service.registry.budget("acme").used
        with ResultStore(tmp_path / "crawl.db") as store:
            charge = store.tenant_charge("acme")
        assert charge["budget"]["used"] == used


class TestMidCrawl:
    def test_rows_mid_crawl_are_the_committed_prefix(
        self, tmp_path, dataset, standalone, service_backend
    ):
        """`rows` answers during the crawl with committed data only."""
        paused = threading.Event()
        release = threading.Event()
        committed = []

        # `on_region` runs parent-side for every backend (commits are
        # the parent's job), so this gate works under `process` too.
        def on_region(key, result):
            committed.append((key, result))
            if len(committed) == 2:
                paused.set()
                release.wait(30)

        with open_service(
            tmp_path, workers=1, backend=service_backend
        ) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert paused.wait(30)
            status = service.status(job)
            assert status.state is JobState.RUNNING
            assert status.regions_done == 2
            assert 0 < status.regions_total
            mid = service.rows(job)
            expected = sorted(
                (key, [tuple(row) for row in result.rows])
                for key, result in committed[:2]
            )
            assert mid == [row for _, rows in expected for row in rows]
            release.set()
            final = service.wait(job, timeout=60)
            assert final.state is JobState.DONE
            assert service.rows(job) == list(standalone.rows)

    def test_cancel_mid_crawl(self, tmp_path, dataset):
        paused = threading.Event()
        release = threading.Event()

        def on_region(key, result):
            paused.set()
            release.wait(30)

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert paused.wait(30)
            assert service.cancel(job) is True
            release.set()
            status = service.wait(job, timeout=60)
            assert status.state is JobState.CANCELLED
            assert status.regions_done < status.regions_total
            # Cancelling a terminal job is a no-op.
            assert service.cancel(job) is False
        with ResultStore(tmp_path / "crawl.db") as store:
            assert store.job_status(job)["status"] == "cancelled"


class TestKillAndResume:
    def test_restart_reissues_zero_queries(
        self, tmp_path, dataset, standalone, standalone_queries,
        service_backend,
    ):
        """Kill the server mid-crawl; the restart's books stay exact.

        The tenant's budget doubles as the query meter: after the
        resumed job completes, ``used`` equals the standalone crawl's
        total cost exactly -- the committed regions re-issued zero
        queries, the charge snapshot survived the kill.
        """
        budget = 100_000
        paused = threading.Event()
        release = threading.Event()
        commits = []

        def on_region(key, result):
            commits.append(key)
            if len(commits) == 2:
                paused.set()
                release.wait(30)

        service = open_service(tmp_path, workers=1, backend=service_backend)
        service.register_tenant("acme", budget=budget)
        job = service.submit(
            "acme",
            dataset,
            K,
            name="demo",
            spec=CrawlSpec(on_region=on_region),
            sessions=SESSIONS,
        )
        assert paused.wait(30)
        # "Kill": drain the fleet while the job is mid-crawl.  The
        # worker finishes its in-flight (already committed) region and
        # nothing further starts.
        killer = threading.Thread(target=service.shutdown)
        killer.start()
        release.set()
        killer.join(30)
        assert not killer.is_alive()

        with ResultStore(tmp_path / "crawl.db") as store:
            snapshot = store.job_status(job)
            charge = store.tenant_charge("acme")
        assert snapshot["status"] != "done"
        assert 0 < snapshot["regions_done"] < snapshot["regions_total"]
        assert 0 < snapshot["cost"] < standalone.cost
        charged_at_kill = charge["budget"]["used"]
        assert 0 < charged_at_kill < standalone_queries

        # Restart: same store path, same tenant declaration.
        with open_service(
            tmp_path, workers=2, backend=service_backend
        ) as revived:
            revived.register_tenant("acme", budget=budget)
            # The dead server's exact charge was restored.
            assert (
                revived.registry.budget("acme").used == charged_at_kill
            )
            resumed = revived.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            status = revived.wait(resumed, timeout=60)
            assert status.state is JobState.DONE
            assert revived.rows(resumed) == list(standalone.rows)
            assert status.cost == standalone.cost
            # Zero re-issue: the tenant's lifetime total equals the
            # standalone crawl's server queries exactly -- committed
            # regions cost nothing the second time around.
            assert (
                revived.registry.budget("acme").used
                == standalone_queries
            )

    def test_done_job_resubmits_instantly(
        self, tmp_path, dataset, standalone, standalone_queries,
        service_backend,
    ):
        """A finished job resumes as a no-op: zero queries, same rows."""
        with open_service(tmp_path, backend=service_backend) as service:
            service.register_tenant("acme", budget=100_000)
            job = service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            service.wait(job, timeout=60)
        with open_service(tmp_path, backend=service_backend) as revived:
            revived.register_tenant("acme", budget=100_000)
            again = revived.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )
            status = revived.wait(again, timeout=60)
            assert status.state is JobState.DONE
            assert revived.rows(again) == list(standalone.rows)
            # Not one query issued beyond the first run's.
            assert (
                revived.registry.budget("acme").used
                == standalone_queries
            )


class TestFairness:
    def test_rotation_serves_every_tenant(self, tmp_path, dataset):
        """With a one-worker fleet, region grants alternate tenants."""
        grants = []
        lock = threading.Lock()
        both_submitted = threading.Event()

        def recorder(tenant):
            def on_region(key, result):
                with lock:
                    grants.append(tenant)
                    first = len(grants) == 1
                # Hold the one-worker fleet on its very first region
                # until the second tenant's job is queued too, so the
                # rotation has both tenants from the second grant on.
                if first:
                    both_submitted.wait(30)

            return on_region

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme")
            service.register_tenant("umbrella")
            jobs = [
                service.submit(
                    tenant,
                    dataset,
                    K,
                    name="demo",
                    spec=CrawlSpec(on_region=recorder(tenant)),
                    sessions=SESSIONS,
                )
                for tenant in ("acme", "umbrella")
            ]
            both_submitted.set()
            for job in jobs:
                service.wait(job, timeout=60)
        # Round-robin keeps the tenants in lock-step: at no point has
        # one tenant been granted more than two regions beyond the
        # other (greedy FIFO dispatch would drain one whole job first,
        # an imbalance equal to the region count).
        assert set(grants) == {"acme", "umbrella"}
        imbalance = 0
        for tenant in grants:
            imbalance += 1 if tenant == "acme" else -1
            assert abs(imbalance) <= 2, grants


class TestPriorities:
    def test_higher_class_drains_strictly_first(self, tmp_path, dataset):
        """A priority-5 arrival preempts the rotation, not the unit.

        With one worker and a low-priority job mid-flight, submitting a
        high-priority job redirects every subsequent grant to the high
        class until it drains completely -- strict priority between
        classes, not weighted interleaving.
        """
        grants = []
        lock = threading.Lock()
        low_committed = threading.Event()
        high_submitted = threading.Event()

        def on_low(key, result):
            with lock:
                grants.append("low")
                first = len(grants) == 1
            # Hold the one-worker fleet inside low's first commit until
            # the high-class job is queued, so the very next grant is
            # the dispatcher choosing between both classes.
            if first:
                low_committed.set()
                high_submitted.wait(30)

        def on_high(key, result):
            with lock:
                grants.append("high")

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme")
            low = service.submit(
                "acme",
                dataset,
                K,
                name="low",
                spec=CrawlSpec(on_region=on_low),
                sessions=SESSIONS,
            )
            assert low_committed.wait(30)
            high = service.submit(
                "acme",
                dataset,
                K,
                name="high",
                spec=CrawlSpec(on_region=on_high),
                sessions=SESSIONS,
                priority=5,
            )
            high_submitted.set()
            status_high = service.wait(high, timeout=60)
            status_low = service.wait(low, timeout=60)
        assert status_high.state is JobState.DONE
        assert status_low.state is JobState.DONE
        assert status_high.priority == 5
        assert status_low.priority == 0
        # One low region was already in flight when the high job
        # arrived; after it commits, the high class owns every grant
        # until its job is fully drained.
        total_high = status_high.regions_total
        assert grants[0] == "low"
        assert grants[1 : 1 + total_high] == ["high"] * total_high

    def test_priority_survives_in_the_store(self, tmp_path, dataset):
        with open_service(tmp_path) as service:
            service.register_tenant("acme")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="demo",
                sessions=SESSIONS,
                priority=7,
            )
            service.wait(job, timeout=60)
        with ResultStore(tmp_path / "crawl.db") as store:
            assert store.job_status(job)["priority"] == 7


class TestBackpressure:
    def test_refusal_carries_the_books(self, tmp_path, dataset):
        """A full tenant queue refuses with depth/bound, admits nothing."""
        gate = threading.Event()
        release = threading.Event()

        def on_region(key, result):
            gate.set()
            release.wait(30)

        with open_service(
            tmp_path, workers=1, max_pending=1
        ) as service:
            service.register_tenant("acme")
            service.register_tenant("umbrella")
            job = service.submit(
                "acme",
                dataset,
                K,
                name="one",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert gate.wait(30)
            assert service.queue_depth("acme") == 1
            with pytest.raises(RetryAfter) as refused:
                service.submit(
                    "acme", dataset, K, name="two", sessions=SESSIONS
                )
            assert refused.value.tenant == "acme"
            assert refused.value.depth == 1
            assert refused.value.bound == 1
            # The refusal admitted nothing: no depth, no durable row.
            assert service.queue_depth("acme") == 1
            assert service.store.find_job("acme", "two") is None
            # Other tenants are untouched by acme's full queue.
            other = service.submit(
                "umbrella", dataset, K, name="two", sessions=SESSIONS
            )
            assert not service.wait_for_slot("acme", timeout=0.05)
            release.set()
            service.wait(job, timeout=60)
            service.wait(other, timeout=60)
            assert service.wait_for_slot("acme", timeout=10)
            assert service.queue_depth("acme") == 0
            # With a free slot the resubmit is admitted normally.
            redo = service.submit(
                "acme", dataset, K, name="two", sessions=SESSIONS
            )
            status = service.wait(redo, timeout=60)
            assert status.state is JobState.DONE

    def test_unbounded_service_never_refuses(self, tmp_path, dataset):
        with open_service(tmp_path, workers=2) as service:
            service.register_tenant("acme")
            jobs = [
                service.submit(
                    "acme",
                    dataset,
                    K,
                    name=f"burst-{index}",
                    sessions=2,
                )
                for index in range(6)
            ]
            for job in jobs:
                assert service.wait(job, timeout=60).state is JobState.DONE


class TestAdmissionProperties:
    """Hypothesis: the admission layer under arbitrary traffic."""

    @settings(max_examples=8, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["acme", "umbrella", "wayne"]),
                st.integers(min_value=0, max_value=1),
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        ),
        bound=st.integers(min_value=1, max_value=3),
    )
    def test_interleavings_never_over_admit(
        self, tmp_path_factory, ops, bound
    ):
        """Submit/cancel interleavings respect the bound, always.

        Every admitted job counts against its tenant's depth until
        terminal, a refusal reports ``depth >= bound`` and admits
        nothing (no store row), and draining the admitted jobs returns
        every tenant's depth to zero before shutdown.
        """
        tenants = ("acme", "umbrella", "wayne")
        dataset = service_dataset(seed=4, n=60)
        root = tmp_path_factory.mktemp("admission")
        admitted = []
        with open_service(
            root, workers=2, max_pending=bound
        ) as service:
            for tenant in tenants:
                service.register_tenant(tenant)
            for index, (tenant, priority, cancel) in enumerate(ops):
                name = f"job-{index}"
                try:
                    job = service.submit(
                        tenant,
                        dataset,
                        K,
                        name=name,
                        sessions=2,
                        priority=priority,
                    )
                except RetryAfter as refusal:
                    assert refusal.tenant == tenant
                    assert refusal.bound == bound
                    assert refusal.depth >= bound
                    assert service.store.find_job(tenant, name) is None
                else:
                    admitted.append(job)
                    if cancel:
                        service.cancel(job)
                assert service.queue_depth(tenant) <= bound
            final = [
                service.wait(job, timeout=60) for job in admitted
            ]
            assert all(
                status.state in (JobState.DONE, JobState.CANCELLED)
                for status in final
            )
            for tenant in tenants:
                assert service.queue_depth(tenant) == 0


class TestRotationProperties:
    """Hypothesis: the pure rotation helper the dispatcher runs on."""

    @given(
        tenants=st.lists(
            st.text(min_size=1, max_size=3),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        cursor=st.integers(min_value=0, max_value=100),
    )
    def test_rotation_is_a_cyclic_permutation(self, tenants, cursor):
        order = rotation_order(tenants, cursor)
        start = cursor % len(tenants)
        assert order == tenants[start:] + tenants[:start]
        assert sorted(order) == sorted(tenants)

    def test_empty_rotation(self):
        assert rotation_order([], 7) == []

    @given(
        n_tenants=st.integers(min_value=1, max_value=5),
        rounds=st.integers(min_value=1, max_value=40),
    )
    def test_all_ready_rotation_never_starves(self, n_tenants, rounds):
        """Grant counts spread at most 1 at every prefix.

        Simulates the dispatcher's cursor update (grant the head, bump
        the cursor) with every tenant permanently ready: no tenant
        falls more than one grant behind any other, ever -- the
        bounded-prefix-imbalance guarantee the threaded fairness test
        observes end to end.
        """
        tenants = [f"t{index}" for index in range(n_tenants)]
        counts = dict.fromkeys(tenants, 0)
        cursor = 0
        for _ in range(rounds):
            tenant = rotation_order(tenants, cursor)[0]
            counts[tenant] += 1
            cursor = (cursor % n_tenants + 1) % n_tenants
            spread = max(counts.values()) - min(counts.values())
            assert spread <= 1


class TestManagerGuards:
    def test_bad_worker_count(self, tmp_path):
        with ResultStore(tmp_path / "x.db") as store:
            with pytest.raises(ValueError, match="workers"):
                JobManager(store, TenantLimitRegistry(), workers=0)

    def test_unknown_backend_rejected(self, tmp_path):
        with ResultStore(tmp_path / "x.db") as store:
            with pytest.raises(ValueError, match="unknown backend"):
                JobManager(
                    store, TenantLimitRegistry(), backend="fiber"
                )

    def test_bad_max_pending(self, tmp_path):
        with ResultStore(tmp_path / "x.db") as store:
            with pytest.raises(ValueError, match="max_pending"):
                JobManager(
                    store, TenantLimitRegistry(), max_pending=0
                )

    def test_unknown_spec_executor_rejected(self, tmp_path, dataset):
        with open_service(tmp_path) as service:
            service.register_tenant("acme")
            with pytest.raises(ValueError, match="unknown executor"):
                service.submit(
                    "acme",
                    dataset,
                    K,
                    name="demo",
                    spec=CrawlSpec(executor="fiber"),
                    sessions=SESSIONS,
                )

    def test_rehost_with_active_jobs_rejected(self, tmp_path, dataset):
        """A tenant's limits cannot move to the coordinator mid-job.

        Jobs admitting against the in-process limit objects would
        strand their charges if the authoritative copy moved; the
        per-job process override is refused until the tenant drains.
        """
        gate = threading.Event()
        release = threading.Event()

        def on_region(key, result):
            gate.set()
            release.wait(30)

        with open_service(tmp_path, workers=1) as service:
            service.register_tenant("acme", budget=100_000)
            job = service.submit(
                "acme",
                dataset,
                K,
                name="one",
                spec=CrawlSpec(on_region=on_region),
                sessions=SESSIONS,
            )
            assert gate.wait(30)
            with pytest.raises(ValueError, match="coordinator while"):
                service.submit(
                    "acme",
                    dataset,
                    K,
                    name="two",
                    spec=CrawlSpec(executor="process"),
                    sessions=SESSIONS,
                )
            release.set()
            service.wait(job, timeout=60)

    def test_submit_after_shutdown(self, tmp_path, dataset):
        service = open_service(tmp_path)
        service.register_tenant("acme")
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(
                "acme", dataset, K, name="demo", sessions=SESSIONS
            )

    def test_unknown_tenant_rejected(self, tmp_path, dataset):
        with open_service(tmp_path) as service:
            with pytest.raises(KeyError, match="unknown tenant"):
                service.submit(
                    "ghost", dataset, K, name="demo", sessions=SESSIONS
                )

    def test_result_requires_done(self, tmp_path, dataset):
        with open_service(tmp_path) as service:
            service.register_tenant("acme")
            with pytest.raises(KeyError):
                service.result(12345)
