"""Attribute-ordering strategies (ablation support).

Every algorithm in the paper "works with an ordering of the attributes
in the underlying dataset (i.e., which attribute is A1, which one is A2,
and so on)" (Section 6).  The ordering changes nothing about
correctness, but it moves costs around, and no direction wins
everywhere.  Queries of the CLI's hybrid crawl (seed 1) on permuted
copies of the generated tables:

==========  ==============================  ==================
table, k    schema order = domains upward   domains downward
==========  ==============================  ==================
Adult, 16   16,849                          10,422
Adult, 64   3,750                           2,839
Adult, 256  764                             785
NSF, 64     27,437                          36,549
==========  ==============================  ==================

Rank-shrink performs fewer 3-way splits when the leading attribute has
many distinct values.

These helpers permute a dataset's columns -- categorical attributes stay
ahead of numeric ones so the mixed-space convention is preserved -- and
are exercised by ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dataspace.dataset import Dataset
from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError

__all__ = [
    "reorder_dataset",
    "order_by_domain_size",
    "order_by_distinct_count",
]


def reorder_dataset(dataset: Dataset, permutation: Sequence[int]) -> Dataset:
    """Apply a column permutation to a dataset.

    The permutation must keep every categorical attribute before every
    numeric one (the Section 1.1 convention); :class:`DataSpace`'s
    constructor enforces it.
    """
    d = dataset.dimensionality
    if sorted(permutation) != list(range(d)):
        raise SchemaError(
            f"permutation {list(permutation)} is not a permutation of 0..{d - 1}"
        )
    space = DataSpace(dataset.space[i] for i in permutation)
    rows = dataset.rows[:, list(permutation)]
    return Dataset(space, rows, name=dataset.name, validate=False)


def _blockwise_order(dataset: Dataset, key, ascending: bool) -> Dataset:
    """Sort the categorical block and the numeric block independently."""
    cat = dataset.space.cat
    d = dataset.dimensionality
    sign = 1 if ascending else -1

    def sort_block(indices: list[int]) -> list[int]:
        return sorted(indices, key=lambda j: (sign * key(j), j))

    permutation = sort_block(list(range(cat))) + sort_block(
        list(range(cat, d))
    )
    return reorder_dataset(dataset, permutation)


def order_by_domain_size(
    dataset: Dataset, *, ascending: bool = True
) -> Dataset:
    """Order categorical attributes by domain size ``U``.

    Numeric attributes (no finite ``U``) are ordered by their distinct
    counts so mixed datasets get a deterministic order too.
    """
    counts = dataset.distinct_counts()

    def key(j: int) -> int:
        attr = dataset.space[j]
        return attr.domain_size if attr.is_categorical else counts[j]

    return _blockwise_order(dataset, key, ascending)


def order_by_distinct_count(
    dataset: Dataset, *, ascending: bool = True
) -> Dataset:
    """Order attributes by the number of distinct values present."""
    counts = dataset.distinct_counts()
    return _blockwise_order(dataset, lambda j: counts[j], ascending)
