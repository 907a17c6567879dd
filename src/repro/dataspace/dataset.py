"""Dataset container: the hidden database's content as a bag of tuples.

A :class:`Dataset` couples a :class:`~repro.dataspace.space.DataSpace`
with an ``(n, d)`` integer matrix of tuples.  Bag (multiset) semantics
are first-class because the paper allows duplicate tuples -- indeed the
solvability condition of Problem 1 is about the maximum number of
duplicates at a single point.

The container is immutable; transformation methods (projection,
sampling) return new datasets.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.dataspace.space import DataSpace
from repro.exceptions import SchemaError

__all__ = ["Dataset"]

Row = tuple[int, ...]


class Dataset:
    """An immutable bag of ``n`` tuples in a data space.

    Parameters
    ----------
    space:
        The schema the tuples live in.
    rows:
        An ``(n, d)`` array-like of integers.  Categorical coordinates
        are validated against their domains; numeric coordinates may be
        any integer.
    name:
        Optional label used in reports (for example ``"NSF"``).
    """

    __slots__ = ("_space", "_rows", "_name")

    def __init__(
        self,
        space: DataSpace,
        rows: Iterable[Sequence[int]] | np.ndarray,
        *,
        name: str = "",
        validate: bool = True,
    ):
        matrix = np.asarray(rows, dtype=np.int64)
        if matrix.size == 0:
            matrix = matrix.reshape(0, space.dimensionality)
        if matrix.ndim != 2 or matrix.shape[1] != space.dimensionality:
            raise SchemaError(
                f"rows must form an (n, {space.dimensionality}) matrix, got "
                f"shape {matrix.shape}"
            )
        if validate and matrix.shape[0]:
            for j in range(space.cat):
                size = space[j].domain_size
                assert size is not None
                column = matrix[:, j]
                if column.min() < 1 or column.max() > size:
                    raise SchemaError(
                        f"column {space[j].name!r} has values outside its "
                        f"categorical domain [1, {size}]"
                    )
        matrix.setflags(write=False)
        self._space = space
        self._rows = matrix
        self._name = name

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> DataSpace:
        """The schema of the dataset."""
        return self._space

    @property
    def rows(self) -> np.ndarray:
        """Read-only ``(n, d)`` int64 view of the tuples."""
        return self._rows

    @property
    def n(self) -> int:
        """Number of tuples (with multiplicity)."""
        return int(self._rows.shape[0])

    @property
    def dimensionality(self) -> int:
        """Number of attributes ``d``."""
        return self._space.dimensionality

    @property
    def name(self) -> str:
        """Report label of the dataset."""
        return self._name

    def __len__(self) -> int:
        return self.n

    def row(self, i: int) -> Row:
        """The ``i``-th tuple as a plain Python tuple."""
        return tuple(int(v) for v in self._rows[i])

    def iter_rows(self) -> Iterable[Row]:
        """Iterate over all tuples as Python tuples (with multiplicity)."""
        for i in range(self.n):
            yield self.row(i)

    # ------------------------------------------------------------------
    # Bag semantics
    # ------------------------------------------------------------------
    def multiset(self) -> Counter[Row]:
        """The bag as a :class:`collections.Counter` keyed by tuple."""
        return Counter(zip(*self._rows.T.tolist()))

    def max_multiplicity(self) -> int:
        """The largest number of identical tuples at any point.

        Problem 1 is solvable at retrieval limit ``k`` iff this value is
        at most ``k`` (paper Section 1.1).
        """
        if self.n == 0:
            return 0
        _, counts = np.unique(self._rows, axis=0, return_counts=True)
        return int(counts.max())

    def min_feasible_k(self) -> int:
        """Smallest retrieval limit at which a complete crawl exists."""
        return max(1, self.max_multiplicity())

    def distinct_counts(self) -> tuple[int, ...]:
        """Per-attribute number of distinct values present in the data.

        The paper's Figure 10b / 11b experiments rank attributes by this
        statistic when building lower-dimensional variants of a dataset.
        """
        return tuple(
            int(np.unique(self._rows[:, j]).size) if self.n else 0
            for j in range(self.dimensionality)
        )

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def project(self, indices: Sequence[int]) -> "Dataset":
        """Keep only the attributes at ``indices`` (strictly increasing)."""
        sub_space = self._space.project(indices)
        matrix = self._rows[:, list(indices)]
        return Dataset(sub_space, matrix, name=self._name, validate=False)

    def top_distinct_projection(self, d: int) -> "Dataset":
        """The ``d``-attribute dataset used by Figures 10b and 11b.

        Selects the ``d`` attributes with the most distinct values (ties
        broken by original position) and keeps them in their original
        relative order, as the paper describes for Adult-numeric ("the
        attribute with the most distinct values is FNALWGT, ...").
        """
        if not 1 <= d <= self.dimensionality:
            raise SchemaError(
                f"d must be in [1, {self.dimensionality}], got {d}"
            )
        counts = self.distinct_counts()
        ranked = sorted(
            range(self.dimensionality), key=lambda j: (-counts[j], j)
        )
        chosen = sorted(ranked[:d])
        return self.project(chosen)

    def sample_fraction(self, fraction: float, *, seed: int = 0) -> "Dataset":
        """Independent Bernoulli sample of the tuples (Figures 10c / 11c).

        Each tuple is kept with probability ``fraction``, matching the
        paper: "a 20% dataset corresponds to a random sample set ... by
        independently sampling each of its tuples with a 20% probability".
        """
        if not 0.0 <= fraction <= 1.0:
            raise SchemaError(f"fraction must be in [0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = np.random.default_rng(seed)
        keep = rng.random(self.n) < fraction
        label = f"{self._name}@{fraction:.0%}" if self._name else ""
        return Dataset(
            self._space, self._rows[keep], name=label, validate=False
        )

    def with_bounds_from_data(self) -> "Dataset":
        """Attach observed min/max bounds to every numeric attribute.

        ``binary-shrink`` needs finite extents; experiment harnesses call
        this once on generated data, mirroring the fact that a real
        crawler would read plausible bounds off the search form.
        """
        attrs = []
        for j, attr in enumerate(self._space):
            if attr.is_numeric and self.n:
                column = self._rows[:, j]
                attrs.append(
                    attr.with_bounds(int(column.min()), int(column.max()))
                )
            else:
                attrs.append(attr)
        return Dataset(
            DataSpace(attrs), self._rows, name=self._name, validate=False
        )

    def concat(self, other: "Dataset") -> "Dataset":
        """Bag union of two datasets over the same space."""
        if other.space != self._space:
            raise SchemaError("cannot concatenate datasets over different spaces")
        matrix = np.vstack([self._rows, other._rows])
        return Dataset(self._space, matrix, name=self._name, validate=False)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Bag equality: same space and same multiset of tuples."""
        if not isinstance(other, Dataset):
            return NotImplemented
        if self._space != other._space or self.n != other.n:
            return False
        if self.n == 0:
            return True
        mine = self._rows[np.lexsort(self._rows.T[::-1])]
        theirs = other._rows[np.lexsort(other._rows.T[::-1])]
        return bool(np.array_equal(mine, theirs))

    def __hash__(self) -> int:  # pragma: no cover - datasets are not dict keys
        return hash((self._space, self.n))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"Dataset({label} n={self.n}, d={self.dimensionality}, "
            f"kind={self._space.kind.value})"
        )
