"""Tests for crawl checkpointing (cross-process resume)."""

import dataclasses
import json
import shutil

import pytest

from repro.crawl.spec import CrawlSpec
from repro.crawl.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_crawl_checkpoint,
    save_checkpoint,
    save_crawl_checkpoint,
)
from repro.crawl.executors import SequentialExecutor
from repro.crawl.hybrid import Hybrid
from repro.crawl.partition import crawl_partitioned, partition_space
from repro.crawl.verify import assert_complete
from repro.datasets.synthetic import random_dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError
from repro.server.client import CachingClient
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer


@pytest.fixture
def dataset():
    space = DataSpace.mixed([("c", 4)], ["x", "y"])
    return random_dataset(space, 400, seed=8, numeric_range=(0, 80))


class TestRoundTrip:
    def test_interrupted_crawl_resumes_across_clients(self, dataset, tmp_path):
        # "Process 1": crawl under a tight budget, checkpoint, die.
        budget = QueryBudget(12)
        server1 = TopKServer(dataset, k=16, priority_seed=4, limits=[budget])
        client1 = CachingClient(server1)
        partial = Hybrid(client1).crawl(allow_partial=True)
        assert not partial.complete
        checkpoint = save_checkpoint(client1, tmp_path / "crawl.json")

        # "Process 2": fresh client over a fresh server; same seeds.
        server2 = TopKServer(dataset, k=16, priority_seed=4)
        client2 = CachingClient(server2)
        restored = load_checkpoint(client2, checkpoint)
        assert restored == partial.cost
        finished = Hybrid(client2).crawl()
        assert finished.complete
        assert_complete(finished, dataset)
        # The resumed process never repeated the checkpointed queries.
        one_shot_cost = (
            Hybrid(TopKServer(dataset, k=16, priority_seed=4)).crawl().cost
        )
        assert server2.stats.queries == one_shot_cost - restored

    def test_restored_entries_cost_nothing(self, dataset, tmp_path):
        server = TopKServer(dataset, k=16, priority_seed=4)
        client = CachingClient(server)
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")

        fresh = CachingClient(TopKServer(dataset, k=16, priority_seed=4))
        load_checkpoint(fresh, path)
        assert fresh.cost == 0

    def test_idempotent_load(self, dataset, tmp_path):
        server = TopKServer(dataset, k=16)
        client = CachingClient(server)
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        again = CachingClient(TopKServer(dataset, k=16))
        assert load_checkpoint(again, path) > 0
        assert load_checkpoint(again, path) == 0  # everything known already


class TestSafety:
    def test_rejects_wrong_space(self, dataset, tmp_path):
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        other_space = DataSpace.mixed([("c", 5)], ["x", "y"])
        other = random_dataset(other_space, 10, seed=0)
        with pytest.raises(SchemaError):
            load_checkpoint(CachingClient(TopKServer(other, k=16)), path)

    def test_rejects_wrong_k(self, dataset, tmp_path):
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        with pytest.raises(SchemaError):
            load_checkpoint(CachingClient(TopKServer(dataset, k=32)), path)

    def test_rejects_unknown_version(self, dataset, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(SchemaError):
            load_checkpoint(CachingClient(TopKServer(dataset, k=16)), path)

    def test_preserves_overflow_flags_and_duplicates(self, tmp_path):
        space = DataSpace.categorical([3])
        from tests.conftest import make_dataset

        heavy = make_dataset(space, [[1]] * 5 + [[2], [2]])
        client = CachingClient(TopKServer(heavy, k=3, priority_seed=1))
        from repro.query.query import slice_query

        for value in (1, 2, 3):
            client.run(slice_query(space, 0, value))
        path = save_checkpoint(client, tmp_path / "c.json")

        fresh = CachingClient(TopKServer(heavy, k=3, priority_seed=1))
        load_checkpoint(fresh, path)
        restored = fresh.run(slice_query(space, 0, 1))
        assert restored.overflow
        duplicated = fresh.run(slice_query(space, 0, 2))
        assert sorted(duplicated.rows) == [(2,), (2,)]
        assert fresh.cost == 0


class TestAtomicWrites:
    """A crash mid-save never corrupts the previous checkpoint."""

    def _seeded_checkpoint(self, dataset, tmp_path):
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        return path, path.read_text()

    def test_torn_json_write_leaves_old_file_intact(
        self, dataset, tmp_path, monkeypatch
    ):
        path, before = self._seeded_checkpoint(dataset, tmp_path)

        def torn_dump(payload, handle, **kwargs):
            handle.write('{"version": 2, "kind": "cac')  # half a file
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(
                CachingClient(TopKServer(dataset, k=16)), path
            )
        monkeypatch.undo()
        # The old complete state survived, and no temp litter remains.
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []
        fresh = CachingClient(TopKServer(dataset, k=16))
        assert load_checkpoint(fresh, path) > 0

    def test_failed_replace_leaves_old_file_intact(
        self, dataset, tmp_path, monkeypatch
    ):
        import repro.crawl.checkpoint as checkpoint_module

        path, before = self._seeded_checkpoint(dataset, tmp_path)

        def no_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(checkpoint_module.os, "replace", no_replace)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(
                CachingClient(TopKServer(dataset, k=16)), path
            )
        monkeypatch.undo()
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []


class TestFormatGates:
    def test_rejects_files_from_a_newer_release(self, dataset, tmp_path):
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        payload = json.loads(path.read_text())
        payload["version"] = 3
        path.write_text(json.dumps(payload))
        fresh = CachingClient(TopKServer(dataset, k=16))
        with pytest.raises(SchemaError, match="newer release"):
            load_checkpoint(fresh, path)

    def test_rejects_non_integer_version(self, dataset, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "2", "entries": []}))
        with pytest.raises(SchemaError, match="unsupported"):
            load_checkpoint(CachingClient(TopKServer(dataset, k=16)), path)

    def test_version_one_files_still_load_as_cache(self, dataset, tmp_path):
        """Pre-discriminator files (all cache checkpoints) keep working."""
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        path = save_checkpoint(client, tmp_path / "c.json")
        payload = json.loads(path.read_text())
        payload["version"] = 1
        del payload["kind"]
        path.write_text(json.dumps(payload))
        fresh = CachingClient(TopKServer(dataset, k=16))
        assert load_checkpoint(fresh, path) > 0

    def test_loaders_reject_each_others_kind(self, dataset, tmp_path):
        plan = partition_space(dataset.space, 2)
        cache_path = tmp_path / "cache.json"
        runtime_path = tmp_path / "runtime.json"
        client = CachingClient(TopKServer(dataset, k=16))
        Hybrid(client).crawl()
        save_checkpoint(client, cache_path)
        save_crawl_checkpoint(runtime_path, plan, 16, {})
        with pytest.raises(SchemaError, match="load_crawl_checkpoint"):
            load_checkpoint(
                CachingClient(TopKServer(dataset, k=16)), runtime_path
            )
        with pytest.raises(SchemaError, match="load_checkpoint"):
            load_crawl_checkpoint(cache_path, plan, 16)


class TestRuntimeCheckpoint:
    """Full-crawl runtime state: save, load, resume byte-identically."""

    SESSIONS = 2

    def _plan(self, dataset):
        return partition_space(dataset.space, self.SESSIONS)

    def _sources(self, dataset):
        return [
            TopKServer(dataset, k=16, priority_seed=4)
            for _ in range(self.SESSIONS)
        ]

    def _assert_identical(self, result, reference):
        assert result.rows == reference.rows
        assert result.cost == reference.cost
        assert result.complete == reference.complete
        assert result.session_costs() == reference.session_costs()
        assert result.progress == reference.progress

    def test_round_trip_preserves_every_result_field(
        self, dataset, tmp_path
    ):
        plan = self._plan(dataset)
        completed = {}
        SequentialExecutor().run(
            self._sources(dataset),
            plan,
            CrawlSpec(
                on_region=lambda key, result: completed.__setitem__(
                    key, result
                )
            ),
        )
        path = save_crawl_checkpoint(
            tmp_path / "run.json", plan, 16, completed
        )
        loaded = load_crawl_checkpoint(path, plan, 16)
        assert set(loaded.completed) == set(completed)
        for key, original in completed.items():
            restored = loaded.completed[key]
            assert restored.algorithm == original.algorithm
            assert restored.rows == original.rows
            assert restored.cost == original.cost
            assert restored.complete == original.complete
            assert restored.progress == original.progress
            assert restored.phase_costs == original.phase_costs

    def test_partial_region_is_left_out_on_load(self, dataset, tmp_path):
        # Older writers filed a budget-cut region as a partial result;
        # a resume must crawl that region again, not trust it.
        plan = self._plan(dataset)
        reference = crawl_partitioned(self._sources(dataset), plan)
        whole = reference.results[0][0]
        cut = reference.results[1][0]
        partial = dataclasses.replace(cut, rows=cut.rows[:1], complete=False)
        path = save_crawl_checkpoint(
            tmp_path / "run.json", plan, 16, {(0, 0): whole, (1, 0): partial}
        )
        loaded = load_crawl_checkpoint(path, plan, 16)
        assert list(loaded.completed) == [(0, 0)]
        assert loaded.completed[(0, 0)].rows == whole.rows

    def test_rejects_wrong_plan_k_and_space(self, dataset, tmp_path):
        plan = self._plan(dataset)
        path = save_crawl_checkpoint(tmp_path / "run.json", plan, 16, {})
        with pytest.raises(SchemaError, match="plan"):
            load_crawl_checkpoint(
                path, partition_space(dataset.space, 3), 16
            )
        with pytest.raises(SchemaError, match="k="):
            load_crawl_checkpoint(path, plan, 32)
        other_space = DataSpace.mixed([("c", 5)], ["x", "y"])
        other = random_dataset(other_space, 10, seed=0)
        with pytest.raises(SchemaError, match="data"):
            load_crawl_checkpoint(
                path, partition_space(other.space, 2), 16
            )

    def test_rejects_entries_outside_the_plan(self, dataset, tmp_path):
        plan = self._plan(dataset)
        path = save_crawl_checkpoint(tmp_path / "run.json", plan, 16, {})
        payload = json.loads(path.read_text())
        payload["completed"] = [
            {
                "session": 7,
                "index": 0,
                "result": {
                    "algorithm": "x",
                    "rows": [],
                    "cost": 0,
                    "complete": True,
                    "progress": [],
                    "phase_costs": {},
                },
            }
        ]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="outside the plan"):
            load_crawl_checkpoint(path, plan, 16)

    def test_executor_rejects_completed_outside_the_plan(self, dataset):
        plan = self._plan(dataset)
        completed = {}
        SequentialExecutor().run(
            self._sources(dataset),
            plan,
            CrawlSpec(
                on_region=lambda key, result: completed.__setitem__(
                    key, result
                )
            ),
        )
        some_result = next(iter(completed.values()))
        with pytest.raises(SchemaError, match="outside the plan"):
            SequentialExecutor().run(
                self._sources(dataset),
                plan, CrawlSpec(completed={(9, 9): some_result}))

    def test_budget_state_round_trip(self, dataset, tmp_path):
        plan = self._plan(dataset)
        budget = QueryBudget(500)
        sources = [
            TopKServer(dataset, k=16, priority_seed=4, limits=[budget])
            for _ in range(self.SESSIONS)
        ]
        SequentialExecutor().run(sources, plan)
        assert budget.used > 0
        path = save_crawl_checkpoint(
            tmp_path / "run.json", plan, 16, {}, budget=budget.state()
        )
        loaded = load_crawl_checkpoint(path, plan, 16)
        fresh = QueryBudget(500)
        fresh.restore_state(loaded.budget)
        assert fresh.used == budget.used
        assert fresh.state() == budget.state()

    def test_kill_at_every_region_boundary_resumes_byte_identically(
        self, dataset, tmp_path
    ):
        """The acceptance bar: snapshot the writer's actual file after
        every region boundary, then resume each snapshot on fresh
        servers -- merged bytes identical, completed regions re-issue
        zero queries, and a full checkpoint re-issues none at all."""
        plan = self._plan(dataset)
        reference = SequentialExecutor().run(self._sources(dataset), plan)
        path = tmp_path / "crawl.json"
        writer = CheckpointWriter(path, plan, 16)
        writer.write()  # seed the file before any region completes
        seed = tmp_path / "crawl.0.json"
        shutil.copy(path, seed)
        snapshots = [seed]  # boundary 0: before any region
        count = 0

        def snapshot(key, result):
            nonlocal count
            writer.region_done(key, result)
            count += 1
            copy = tmp_path / f"crawl.{count}.json"
            shutil.copy(path, copy)
            snapshots.append(copy)

        SequentialExecutor().run(
            self._sources(dataset), plan, CrawlSpec(on_region=snapshot))
        assert count == len(plan.regions)
        for boundary, snapshot_path in enumerate(snapshots):
            checkpoint = load_crawl_checkpoint(snapshot_path, plan, 16)
            assert len(checkpoint.completed) == boundary
            sources = self._sources(dataset)
            resumed = crawl_partitioned(
                sources,
                plan,
                CrawlSpec(
                    executor="thread",
                    max_workers=self.SESSIONS,
                    completed=checkpoint.completed,
                ),
            )
            self._assert_identical(resumed, reference)
            if boundary == len(plan.regions):
                # Full checkpoint: the resume issues zero queries.
                assert [s.stats.queries for s in sources] == [0, 0]

    def test_resumed_regions_are_never_recrawled(self, dataset, tmp_path):
        """Per-session server books prove the prefix is not re-issued:
        a session whose regions are all checkpointed stays silent."""
        plan = self._plan(dataset)
        completed = {}
        SequentialExecutor().run(
            self._sources(dataset),
            plan,
            CrawlSpec(
                on_region=lambda key, result: completed.__setitem__(
                    key, result
                )
            ),
        )
        # Checkpoint exactly session 0's regions.
        prefix = {key: completed[key] for key in completed if key[0] == 0}
        path = save_crawl_checkpoint(
            tmp_path / "run.json", plan, 16, prefix
        )
        checkpoint = load_crawl_checkpoint(path, plan, 16)
        sources = self._sources(dataset)
        resumed = SequentialExecutor().run(
            sources, plan, CrawlSpec(completed=checkpoint.completed))
        assert resumed.complete
        assert sources[0].stats.queries == 0  # fully restored session
        assert sources[1].stats.queries > 0  # still had work to do
