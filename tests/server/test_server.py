"""Tests for TopKServer: the Section 1.1 interface contract."""

import pytest

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import QueryBudgetExhausted, SchemaError
from repro.query.query import Query
from repro.server.limits import QueryBudget
from repro.server.server import TopKServer
from tests.conftest import make_dataset


@pytest.fixture
def space():
    return DataSpace.categorical([3])


@pytest.fixture
def dataset(space):
    return make_dataset(space, [[1]] * 5 + [[2]] * 2 + [[3]])


class TestContract:
    def test_resolved_query_returns_everything(self, dataset):
        server = TopKServer(dataset, k=10)
        resp = server.run(Query.full(dataset.space))
        assert resp.resolved
        assert len(resp.rows) == 8

    def test_overflow_returns_exactly_k_and_flag(self, dataset):
        server = TopKServer(dataset, k=3)
        resp = server.run(Query.full(dataset.space))
        assert resp.overflow
        assert len(resp.rows) == 3

    def test_repeating_a_query_returns_the_same_response(self, dataset):
        """Crucial: re-issuing an overflowing query never reveals more."""
        server = TopKServer(dataset, k=3)
        q = Query.full(dataset.space)
        first = server.run(q)
        for _ in range(5):
            assert server.run(q) == first

    def test_determinism_across_server_instances(self, dataset):
        q = Query.full(dataset.space)
        a = TopKServer(dataset, k=3, priority_seed=42).run(q)
        b = TopKServer(dataset, k=3, priority_seed=42).run(q)
        assert a == b

    def test_different_seeds_may_return_different_tuples(self, dataset):
        q = Query.full(dataset.space).with_value(0, 1)
        responses = {
            TopKServer(dataset, k=3, priority_seed=seed).run(q).rows
            for seed in range(20)
        }
        # 5 identical tuples at value 1 are indistinguishable; probe a
        # mixed query instead.
        q2 = Query.full(dataset.space)
        responses = {
            TopKServer(dataset, k=3, priority_seed=seed).run(q2).rows
            for seed in range(20)
        }
        assert len(responses) > 1

    def test_explicit_priorities(self, dataset):
        # Highest priority wins; row order breaks ties.
        priorities = [0, 1, 2, 3, 4, 10, 11, 12]
        server = TopKServer(dataset, k=3, priorities=priorities)
        resp = server.run(Query.full(dataset.space))
        assert resp.rows == ((3,), (2,), (2,))

    def test_priority_length_validated(self, dataset):
        with pytest.raises(SchemaError):
            TopKServer(dataset, k=3, priorities=[1, 2])

    def test_k_validated(self, dataset):
        with pytest.raises(SchemaError):
            TopKServer(dataset, k=0)

    def test_space_mismatch_rejected(self, dataset):
        server = TopKServer(dataset, k=3)
        other = Query.full(DataSpace.categorical([4]))
        with pytest.raises(SchemaError):
            server.run(other)


class TestAccounting:
    def test_stats_count_queries(self, dataset):
        server = TopKServer(dataset, k=3)
        q = Query.full(dataset.space)
        server.run(q)
        server.run(q.with_value(0, 3))
        assert server.stats.queries == 2
        assert server.stats.overflowed == 1
        assert server.stats.resolved == 1

    def test_budget_enforced_and_query_not_counted(self, dataset):
        server = TopKServer(dataset, k=3, limits=[QueryBudget(1)])
        server.run(Query.full(dataset.space))
        with pytest.raises(QueryBudgetExhausted):
            server.run(Query.full(dataset.space).with_value(0, 1))
        assert server.stats.queries == 1

    def test_engines_give_same_answers(self, dataset):
        q = Query.full(dataset.space).with_value(0, 1)
        vec = TopKServer(dataset, k=3, engine="vector").run(q)
        lin = TopKServer(dataset, k=3, engine="linear").run(q)
        assert vec == lin

    def test_empty_dataset(self, space):
        server = TopKServer(Dataset(space, []), k=3)
        resp = server.run(Query.full(space))
        assert resp.resolved and resp.rows == ()


class TestBatchContext:
    """A thread's evaluation context across consecutive batch epochs."""

    @pytest.fixture
    def mixed(self):
        space = DataSpace.mixed([("c", 3)], ["x"])
        return make_dataset(space, [[1 + i % 3, i] for i in range(40)])

    def contexts(self, server, queries):
        """The context of each epoch, one query per epoch."""
        seen = []
        for query in queries:
            with server.batch_context():
                seen.append(server._batch.evaluator)  # noqa: SLF001
                server.run(query)
        assert server._batch.evaluator is None  # noqa: SLF001
        return seen

    def test_vector_context_carries_its_masks_over(self, mixed):
        # Value 1 holds 14 of 40 rows, more than n / 4: a full scan.
        # The mask of its shared part carries over; its base does not.
        server = TopKServer(mixed, k=3)
        query = Query.full(mixed.space).with_value(0, 1).with_range(1, 0, 20)
        first, second = self.contexts(server, [query, query])
        assert first is second
        assert list(first.masks) == [(0, query.predicates[0])]
        assert first.bases == {}

    def test_other_contexts_serve_one_epoch(self, mixed):
        base = Query.full(mixed.space).with_value(0, 1)
        for engine in ("linear", "indexed"):
            server = TopKServer(mixed, k=3, engine=engine)
            first, second = self.contexts(server, [base, base])
            assert first is not second

    def test_context_past_the_matrix_size_is_replaced(self, mixed):
        # Each range-only query caches one 40-byte mask; the matrix is
        # 40 x 2 int64 = 640 bytes, so the 17th mask tips the context
        # over and the next epoch starts from a fresh one.
        server = TopKServer(mixed, k=3)
        linear = TopKServer(mixed, k=3, engine="linear")
        base = Query.full(mixed.space)
        queries = [base.with_range(1, lo, 39) for lo in range(18)]
        seen = self.contexts(server, queries)
        assert all(context is seen[0] for context in seen[:17])
        assert seen[17] is not seen[0]
        for query in queries:
            assert server.run(query) == linear.run(query)
