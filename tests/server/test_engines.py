"""Engine tests: correctness of both engines and their equivalence."""

import pickle
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.query.query import Query
from repro.server.engines import (
    LinearScanEngine,
    VectorEngine,
    make_engine,
)
from repro.server.server import TopKServer
from tests.conftest import small_instances


@pytest.fixture
def matrix():
    # Already in "priority order": earlier rows are returned first.
    return np.asarray(
        [[1, 10], [2, 20], [1, 30], [2, 40], [1, 50]], dtype=np.int64
    )


@pytest.fixture
def space():
    from repro.dataspace.space import DataSpace

    return DataSpace.mixed([("c", 2)], ["v"])


@pytest.mark.parametrize("engine_cls", [LinearScanEngine, VectorEngine])
class TestEngines:
    def test_full_query_overflow(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        rows, overflow = engine.top(Query.full(space), 3)
        assert overflow
        assert rows == [(1, 10), (2, 20), (1, 30)]

    def test_full_query_resolved(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        rows, overflow = engine.top(Query.full(space), 5)
        assert not overflow
        assert len(rows) == 5

    def test_equality_filter(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_value(0, 1)
        rows, overflow = engine.top(q, 10)
        assert not overflow
        assert rows == [(1, 10), (1, 30), (1, 50)]

    def test_range_filter(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 20, 40)
        rows, overflow = engine.top(q, 10)
        assert rows == [(2, 20), (1, 30), (2, 40)]
        assert not overflow

    def test_half_open_ranges(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        low = Query.full(space).with_range(1, None, 20)
        rows, _ = engine.top(low, 10)
        assert rows == [(1, 10), (2, 20)]
        high = Query.full(space).with_range(1, 40, None)
        rows, _ = engine.top(high, 10)
        assert rows == [(2, 40), (1, 50)]

    def test_point_range(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 30, 30)
        rows, overflow = engine.top(q, 1)
        assert rows == [(1, 30)]
        assert not overflow

    def test_empty_result(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_range(1, 1000, None)
        rows, overflow = engine.top(q, 3)
        assert rows == []
        assert not overflow

    def test_overflow_returns_exactly_k(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        q = Query.full(space).with_value(0, 1)
        rows, overflow = engine.top(q, 2)
        assert overflow
        assert rows == [(1, 10), (1, 30)]

    def test_empty_matrix(self, engine_cls, space):
        engine = engine_cls(np.empty((0, 2), dtype=np.int64))
        rows, overflow = engine.top(Query.full(space), 3)
        assert rows == [] and not overflow


class TestFactory:
    def test_make_engine(self, matrix):
        assert isinstance(make_engine("linear", matrix), LinearScanEngine)
        assert isinstance(make_engine("vector", matrix), VectorEngine)
        for name in ("gpu", "indexed"):
            with pytest.raises(ValueError) as error:
                make_engine(name, matrix)
            assert re.findall(r"'(\w+)'", str(error.value)) == [
                name,
                "linear",
                "vector",
            ]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            VectorEngine(np.zeros(3, dtype=np.int64))


class TestEquivalence:
    """Property: the vector engine agrees with the reference scan."""

    @given(instance=small_instances())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_structured_queries(self, instance):
        dataset, k = instance
        linear = LinearScanEngine(dataset.rows)
        vector = VectorEngine(dataset.rows)
        queries = [Query.full(dataset.space)]
        # Probe a few single-attribute refinements of each kind.
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, None, -1))
                queries.append(queries[0].with_range(i, 2, None))
                queries.append(queries[0].with_range(i, 3, 3))
        for q in queries:
            expected = linear.top(q, k)
            assert vector.top(q, k) == expected

    @given(instance=small_instances())
    @settings(max_examples=15, deadline=None)
    def test_engines_agree_under_concurrent_top(self, instance):
        """Racing top() calls (lazy indexes built mid-race) stay exact.

        A fresh vector engine is hammered by several threads at once,
        so its lazily built per-value index is constructed *during* the
        race; every response must still equal the single-threaded
        linear-scan reference.
        """
        dataset, k = instance
        queries = [Query.full(dataset.space)]
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, None, -1))
                queries.append(queries[0].with_range(i, 2, None))
        linear = LinearScanEngine(dataset.rows)
        expected = [linear.top(q, k) for q in queries]
        engine = VectorEngine(dataset.rows)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(engine.top, q, k)
                for _ in range(4)
                for q in queries
            ]
            answers = [f.result() for f in futures]
        assert answers == expected * 4


class TestBatchSeam:
    """``top_batch`` answers exactly like a per-query ``top`` loop."""

    @pytest.mark.parametrize("engine_cls", [LinearScanEngine, VectorEngine])
    def test_empty_batch(self, engine_cls, matrix):
        assert engine_cls(matrix).top_batch([], 3) == []

    @pytest.mark.parametrize("engine_cls", [LinearScanEngine, VectorEngine])
    def test_sibling_slices(self, engine_cls, matrix, space):
        engine = engine_cls(matrix)
        queries = [Query.full(space).with_value(0, v) for v in (1, 2)]
        queries += [
            Query.full(space).with_value(0, v).with_range(1, 15, 45)
            for v in (1, 2)
        ]
        assert engine.top_batch(queries, 2) == [
            engine.top(q, 2) for q in queries
        ]

    @pytest.mark.parametrize("engine_cls", [LinearScanEngine, VectorEngine])
    def test_repeated_queries_share_cached_work(
        self, engine_cls, matrix, space
    ):
        # The same query twice in one batch must hit the context's
        # mask cache and still answer identically.
        engine = engine_cls(matrix)
        query = Query.full(space).with_value(0, 1).with_range(1, 10, 50)
        first, second = engine.top_batch([query, query], 2)
        assert first == second == engine.top(query, 2)

    @given(instance=small_instances())
    @settings(max_examples=40, deadline=None)
    def test_batch_agrees_across_engines(self, instance):
        dataset, k = instance
        queries = [Query.full(dataset.space)]
        for i, attr in enumerate(dataset.space):
            if attr.is_categorical:
                for v in range(1, attr.domain_size + 1):
                    queries.append(queries[0].with_value(i, v))
            else:
                queries.append(queries[0].with_range(i, 0, 5))
                queries.append(queries[0].with_range(i, 3, 3))
        linear = LinearScanEngine(dataset.rows)
        expected = [linear.top(q, k) for q in queries]
        for engine in (
            LinearScanEngine(dataset.rows),
            VectorEngine(dataset.rows),
        ):
            assert engine.top_batch(queries, k) == expected


@st.composite
def narrowing_instances(draw):
    """A dataset in which every ``(attribute, value)`` index is small.

    Each categorical column is a permutation holding every value of a
    4-6 value domain exactly ``n / domain`` times, so no index exceeds
    ``n / 4`` rows and every query with an equality takes the vector
    engine's narrowing path.  Queries pin 2 or more categorical
    attributes -- to a stored tuple's values (a non-empty answer) or
    to any values (often an empty one) -- with and without ranges on
    the numeric attributes.
    """
    n = 60 * draw(st.integers(1, 2))  # divisible by every domain size
    domains = draw(st.lists(st.integers(4, 6), min_size=2, max_size=4))
    numeric = draw(st.integers(0, 2))
    columns = [
        draw(st.permutations(np.repeat(np.arange(1, size + 1), n // size)))
        for size in domains
    ]
    columns += [
        draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        for _ in range(numeric)
    ]
    space = DataSpace.mixed(
        [(f"C{i}", size) for i, size in enumerate(domains)],
        [f"N{i}" for i in range(numeric)],
    )
    dataset = Dataset(space, np.column_stack(columns).astype(np.int64))
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        pinned = draw(
            st.lists(
                st.sampled_from(range(len(domains))),
                min_size=2,
                max_size=len(domains),
                unique=True,
            )
        )
        row = dataset.rows[draw(st.integers(0, n - 1))]
        query = Query.full(space)
        for j in pinned:
            value = draw(
                st.one_of(st.just(int(row[j])), st.integers(1, domains[j]))
            )
            query = query.with_value(j, value)
        for j in range(len(domains), space.dimensionality):
            lo = draw(st.one_of(st.none(), st.integers(0, 9)))
            hi = draw(st.one_of(st.none(), st.integers(0, 9)))
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            query = query.with_range(j, lo, hi)
        queries.append(query)
    return dataset, queries, draw(st.integers(1, 8))


class TestNarrowingPath:
    """The vector engine's row-id narrowing against the reference scan."""

    @given(instance=narrowing_instances())
    @settings(max_examples=60, deadline=None)
    def test_narrowing_agrees_with_linear_scan(self, instance):
        dataset, queries, k = instance
        vector = VectorEngine(dataset.rows)
        for j, attr in enumerate(dataset.space):
            if attr.is_categorical:
                # No index is large enough to send a query to the full
                # scan.
                counts = np.bincount(dataset.rows[:, j])
                assert counts.max() * 4 <= dataset.n
        linear = LinearScanEngine(dataset.rows)
        expected = [linear.top(q, k) for q in queries]
        assert [vector.top(q, k) for q in queries] == expected
        context = vector.batch()
        assert [context.top(q, k) for q in queries] == expected

    def test_first_filter_empties_the_ids(self):
        # Value 1 of attribute 0 and value 1 of attribute 1 never meet:
        # the first narrowing step leaves no id, and the later ones
        # (another equality, a range) must cope with the empty array.
        rows = np.array(
            [
                [1 + i % 4, 1 + (i + 1) % 4, 1 + i % 3, i % 5]
                for i in range(16)
            ],
            dtype=np.int64,
        )
        assert not ((rows[:, 0] == 1) & (rows[:, 1] == 1)).any()
        space = DataSpace.mixed([("a", 4), ("b", 4), ("c", 3)], ["x"])
        query = (
            Query.full(space)
            .with_value(0, 1)
            .with_value(1, 1)
            .with_value(2, 2)
            .with_range(3, 1, 3)
        )
        engine = VectorEngine(rows)
        assert engine.top(query, 2) == ([], False)
        assert engine.batch().top(query, 2) == ([], False)
        assert LinearScanEngine(rows).top(query, 2) == ([], False)

    @given(instance=small_instances(max_dim=4, max_domain=3))
    @settings(max_examples=40, deadline=None)
    def test_battery_siblings_share_a_base(self, instance):
        """Siblings varying the deepest or a middle attribute, batched.

        Small domains send most queries to the full scan, where one
        context shares the ids of every predicate but the last; every
        answer must still equal the reference scan.
        """
        dataset, k = instance
        space = dataset.space
        base = Query.full(space)
        for i, attr in enumerate(space):
            if attr.is_categorical:
                base = base.with_value(i, 1)
            else:
                base = base.with_range(i, -4, 8)
        queries = []
        for i, attr in enumerate(space):
            if attr.is_categorical:
                siblings = [
                    base.with_value(i, v)
                    for v in range(1, attr.domain_size + 1)
                ]
            else:
                siblings = [
                    base.with_range(i, lo, hi)
                    for lo, hi in ((None, 0), (1, 5), (6, None))
                ]
            queries += siblings + siblings[:1]
        linear = LinearScanEngine(dataset.rows)
        context = VectorEngine(dataset.rows).batch()
        assert [context.top(q, k) for q in queries] == [
            linear.top(q, k) for q in queries
        ]


class TestColumnMajorMatrix:
    @pytest.fixture
    def dataset(self):
        rng = np.random.default_rng(7)
        space = DataSpace.mixed([("a", 5), ("b", 6)], ["x"])
        rows = np.column_stack(
            [
                rng.integers(1, 6, 200),
                rng.integers(1, 7, 200),
                rng.integers(0, 50, 200),
            ]
        ).astype(np.int64)
        return Dataset(space, rows)

    def queries(self, space):
        base = Query.full(space)
        return [
            base,
            base.with_value(0, 2),
            base.with_value(0, 2).with_value(1, 3),
            base.with_value(0, 4).with_value(1, 1).with_range(2, 10, 30),
            base.with_range(2, None, 20),
        ]

    def test_c_order_matrix_gives_the_same_answers(self, dataset):
        row_major = np.ascontiguousarray(dataset.rows)
        assert row_major.flags.c_contiguous
        from_c = VectorEngine(row_major)
        from_f = VectorEngine(np.asfortranarray(row_major))
        assert from_c._matrix.flags.f_contiguous  # noqa: SLF001
        for query in self.queries(dataset.space):
            assert from_c.top(query, 7) == from_f.top(query, 7)

    def test_server_builds_the_vector_matrix_column_major(self, dataset):
        server = TopKServer(dataset, 7, priority_seed=3)
        matrix = server._engine._matrix  # noqa: SLF001
        assert matrix.flags.f_contiguous
        order = np.argsort(
            -np.random.default_rng(3).permutation(dataset.n), kind="stable"
        )
        assert np.array_equal(matrix, dataset.rows[order])
        linear = TopKServer(dataset, 7, priority_seed=3, engine="linear")
        for query in self.queries(dataset.space):
            assert server.run(query) == linear.run(query)

    def test_pickle_keeps_column_major_and_size(self, dataset):
        engine = VectorEngine(dataset.rows)
        for query in self.queries(dataset.space):
            engine.top(query, 7)  # build the derived index and row cache
        payload = pickle.dumps(engine)
        clone = pickle.loads(payload)
        assert clone._matrix.flags.f_contiguous  # noqa: SLF001
        for query in self.queries(dataset.space):
            assert clone.top(query, 7) == engine.top(query, 7)
        # The column-major matrix costs no pickle bytes over a
        # row-major one, and derived data stays out of the payload.
        row_major = VectorEngine(dataset.rows)
        row_major._matrix = np.ascontiguousarray(dataset.rows)  # noqa: SLF001
        assert len(payload) == len(pickle.dumps(row_major))
