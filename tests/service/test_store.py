"""ResultStore: durable regions, merge-ordered rows, exact charges."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.crawl.partition import crawl_partitioned, partition_space
from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.server.server import TopKServer
from repro.service.store import ResultStore

SESSIONS = 2


def tiny_dataset(seed=3, n=120):
    rng = np.random.default_rng(seed)
    space = DataSpace.mixed(
        [("make", 4), ("body", 3)],
        ["price"],
        numeric_bounds=[(0, 199)],
    )
    rows = np.column_stack(
        [
            rng.integers(1, 5, n),
            rng.integers(1, 4, n),
            rng.integers(0, 200, n),
        ]
    ).astype(np.int64)
    return Dataset(space, rows)


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset()


@pytest.fixture(scope="module")
def plan(dataset):
    return partition_space(dataset.space, SESSIONS)


@pytest.fixture(scope="module")
def reference(dataset, plan):
    sources = [TopKServer(dataset, k=32) for _ in range(SESSIONS)]
    return crawl_partitioned(sources, plan)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "test.db") as store:
        yield store


def file_all(store, job_id, plan, reference):
    for session in range(plan.sessions):
        for index, result in enumerate(reference.results[session]):
            store.region_done(job_id, (session, index), result)


class TestJobs:
    def test_open_job_creates_pending(self, store, plan):
        job_id, completed = store.open_job("acme", "demo", plan, 32)
        assert completed == {}
        status = store.job_status(job_id)
        assert status["status"] == "pending"
        assert status["regions_done"] == 0
        assert status["regions_total"] == len(plan.regions)
        assert status["tenant"] == "acme"
        assert status["name"] == "demo"

    def test_find_job(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        assert store.find_job("acme", "demo") == job_id
        assert store.find_job("acme", "other") is None

    def test_reopen_returns_same_id(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        again, _ = store.open_job("acme", "demo", plan, 32)
        assert again == job_id

    def test_reopen_resets_non_terminal_to_pending(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        store.set_status(job_id, "failed", error="boom")
        store.open_job("acme", "demo", plan, 32)
        status = store.job_status(job_id)
        assert status["status"] == "pending"
        assert status["error"] is None

    def test_reopen_keeps_done(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        store.set_status(job_id, "done")
        store.open_job("acme", "demo", plan, 32)
        assert store.job_status(job_id)["status"] == "done"

    def test_k_mismatch_raises(self, store, plan):
        store.open_job("acme", "demo", plan, 32)
        with pytest.raises(SchemaError, match="k="):
            store.open_job("acme", "demo", plan, 64)

    def test_plan_mismatch_raises(self, store, dataset, plan):
        store.open_job("acme", "demo", plan, 32)
        other = partition_space(dataset.space, SESSIONS + 1)
        with pytest.raises(SchemaError, match="partition plan"):
            store.open_job("acme", "demo", other, 32)

    def test_space_mismatch_raises(self, store, plan):
        store.open_job("acme", "demo", plan, 32)
        other_space = DataSpace.mixed([("make", 4)], ["price"])
        other = partition_space(other_space, SESSIONS)
        with pytest.raises(SchemaError, match="data space"):
            store.open_job("acme", "demo", other, 32)

    def test_same_name_different_tenants_are_distinct(self, store, plan):
        a, _ = store.open_job("acme", "demo", plan, 32)
        b, _ = store.open_job("umbrella", "demo", plan, 32)
        assert a != b

    def test_unknown_status_rejected(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        with pytest.raises(ValueError, match="unknown job status"):
            store.set_status(job_id, "paused")

    def test_unknown_job_raises(self, store):
        with pytest.raises(KeyError):
            store.job_status(999)

    def test_list_jobs_filters_by_tenant(self, store, plan):
        store.open_job("acme", "demo", plan, 32)
        store.open_job("umbrella", "demo", plan, 32)
        assert len(store.list_jobs()) == 2
        acme = store.list_jobs("acme")
        assert [job["tenant"] for job in acme] == ["acme"]


class TestRegions:
    def test_partial_region_is_left_out_of_the_resume_map(
        self, store, plan, reference
    ):
        # Older servers filed a budget-cut region as a partial result:
        # resume must crawl it again, and the recrawl replaces it.
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        whole = reference.results[0][0]
        partial = dataclasses.replace(
            whole, rows=whole.rows[:1], complete=False
        )
        store.region_done(job_id, (0, 0), partial)
        assert store.completed(job_id, plan) == {}
        assert store.open_job("acme", "demo", plan, 32)[1] == {}
        store.region_done(job_id, (0, 0), whole)
        assert store.completed(job_id, plan)[(0, 0)].rows == whole.rows

    def test_completed_round_trips(self, store, plan, reference):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        completed = store.completed(job_id, plan)
        assert len(completed) == len(plan.regions)
        for session in range(plan.sessions):
            for index, result in enumerate(reference.results[session]):
                stored = completed[(session, index)]
                assert stored.rows == result.rows
                assert stored.cost == result.cost

    def test_resume_map_from_open_job(self, store, plan, reference):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        _, completed = store.open_job("acme", "demo", plan, 32)
        assert set(completed) == {
            (session, index)
            for session in range(plan.sessions)
            for index in range(len(reference.results[session]))
        }

    def test_rows_are_merge_ordered(self, store, plan, reference):
        """Stored rows read back byte-identical to the merged crawl."""
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        assert store.rows(job_id) == list(reference.rows)

    def test_mid_crawl_rows_are_a_committed_prefix(
        self, store, plan, reference
    ):
        """Rows of a partially filed job == that prefix of the final."""
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        first = reference.results[0]
        for index, result in enumerate(first):
            store.region_done(job_id, (0, index), result)
        expected = [
            tuple(row) for result in first for row in result.rows
        ]
        assert store.rows(job_id) == expected
        assert store.job_status(job_id)["regions_done"] == len(first)

    def test_refiling_is_idempotent(self, store, plan, reference):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        result = reference.results[0][0]
        store.region_done(job_id, (0, 0), result)
        store.region_done(job_id, (0, 0), result)
        assert store.rows(job_id) == [tuple(r) for r in result.rows]
        assert store.job_status(job_id)["regions_done"] == 1

    def test_status_aggregates_committed_cost(self, store, plan, reference):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        status = store.job_status(job_id)
        assert status["cost"] == reference.cost
        assert status["tuples"] == len(reference.rows)


class TestRowPagination:
    def test_pages_are_slices_of_the_merge_order(
        self, store, plan, reference
    ):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        full = store.rows(job_id)
        total = len(full)
        for offset in (0, 1, total // 2, total - 1, total, total + 5):
            for limit in (None, 0, 1, 7, total, total * 2):
                page = store.rows(job_id, offset=offset, limit=limit)
                stop = total if limit is None else offset + limit
                assert page == full[offset:stop], (offset, limit)

    def test_paging_reassembles_the_whole_bag(
        self, store, plan, reference
    ):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        file_all(store, job_id, plan, reference)
        full = store.rows(job_id)
        pages, offset = [], 0
        while True:
            page = store.rows(job_id, offset=offset, limit=7)
            if not page:
                break
            pages.extend(page)
            offset += len(page)
        assert pages == full

    def test_bad_offset_and_limit_rejected(self, store, plan):
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        with pytest.raises(ValueError, match="offset"):
            store.rows(job_id, offset=-1)
        with pytest.raises(ValueError, match="limit"):
            store.rows(job_id, limit=-1)

    def test_pages_stay_consistent_under_a_concurrent_writer(
        self, store, plan, reference
    ):
        """Paging mid-crawl only ever sees committed-prefix slices.

        A writer thread commits the reference regions one transaction
        at a time while the main thread pages continuously.  Because
        ``region_done`` is one transaction and the merge order appends
        (sessions ascend, regions ascend within a session, rows keep
        file order), every page the reader observes must be exactly
        that window of the final merge order -- never a torn region,
        never rows out of order.
        """
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        final = [
            tuple(row)
            for session in range(plan.sessions)
            for result in reference.results[session]
            for row in result.rows
        ]
        started = threading.Event()
        done = threading.Event()

        def writer():
            started.wait(10)
            for session in range(plan.sessions):
                for index, result in enumerate(
                    reference.results[session]
                ):
                    store.region_done(job_id, (session, index), result)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        started.set()
        limit = 9
        observed_any = False
        try:
            while not done.is_set():
                total = len(store.rows(job_id))
                offset = max(0, total - limit)
                page = store.rows(job_id, offset=offset, limit=limit)
                assert len(page) <= limit
                assert page == final[offset : offset + len(page)]
                observed_any = observed_any or bool(page)
        finally:
            thread.join(30)
        assert not thread.is_alive()
        assert store.rows(job_id) == final
        # The loop really raced the writer (the writer commits one
        # region per transaction, so mid-crawl reads were available).
        assert observed_any


class TestTenantCharges:
    def test_round_trip(self, store):
        charge = {"budget": {"max_queries": 50, "used": 7}, "daily": None}
        store.save_tenant_charge("acme", charge)
        assert store.tenant_charge("acme") == charge

    def test_unknown_tenant_is_none(self, store):
        assert store.tenant_charge("nobody") is None

    def test_charge_commits_with_region(self, store, plan, reference):
        """The region transaction lands the charge snapshot too."""
        job_id, _ = store.open_job("acme", "demo", plan, 32)
        charge = {"budget": {"max_queries": 50, "used": 9}, "daily": None}
        store.region_done(
            job_id,
            (0, 0),
            reference.results[0][0],
            tenant_charge=("acme", charge),
        )
        assert store.tenant_charge("acme") == charge


class TestPersistence:
    def test_reopen_the_file(self, tmp_path, plan, reference):
        """Everything committed survives closing the store."""
        path = tmp_path / "persist.db"
        with ResultStore(path) as store:
            job_id, _ = store.open_job("acme", "demo", plan, 32)
            file_all(store, job_id, plan, reference)
            store.set_status(job_id, "done")
        with ResultStore(path) as store:
            assert store.rows(job_id) == list(reference.rows)
            assert store.job_status(job_id)["status"] == "done"
            completed = store.completed(job_id, plan)
            assert len(completed) == len(plan.regions)
