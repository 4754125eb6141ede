"""Dense and sparse matrix primitives used by the trainer.

Everything here is a thin, shape-checked layer over numpy: matrices are
immutable after construction, operations are pure, and dimension mismatches
are rejected loudly instead of broadcast.
"""

from collections.abc import Iterable

import numpy as np

__all__ = [
    "DenseMatrix",
    "SparseBinaryMatrix",
    "low_rank_product",
]


class DenseMatrix:
    """Immutable row-major matrix of finite floats."""

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"DenseMatrix needs a 2-D array, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("DenseMatrix entries must all be finite")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(np.ones((rows, cols)))

    @property
    def data(self) -> np.ndarray:
        """Read-only 2-D view of the underlying storage."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def values(self) -> np.ndarray:
        """Entries as a flat row-major sequence."""
        return self._data.ravel()

    def __getitem__(self, key):
        return self._data[key]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _coords(cells: Iterable[tuple[int, int]] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated read-only int64 (row, col) arrays of ``cells`` in sorted order.

    ``cells`` is an iterable of (row, col) pairs or a k x 2 integer array.
    """
    arr = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"cells must be (row, col) pairs, got shape {arr.shape}")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    row, col = arr[order, 0], arr[order, 1]
    new = np.ones(row.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    row, col = row[new], col[new]
    row.flags.writeable = col.flags.writeable = False
    return row, col


def _check_in_shape(row: np.ndarray, col: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Reject the first coordinate outside ``shape``, naming it as ``what``."""
    outside = (row < 0) | (row >= shape[0]) | (col < 0) | (col >= shape[1])
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"{what} ({row[k]}, {col[k]}) out of range for shape ({shape[0]}, {shape[1]})")


class SparseBinaryMatrix:
    """Binary N x M matrix; ``row`` and ``col`` locate its 1s in row-major order.

    Both are read-only, deduplicated int64 arrays.
    """

    __slots__ = ("rows", "cols", "row", "col")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int]] | np.ndarray):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape ({rows}, {cols})")
        self.row, self.col = _coords(entries)
        _check_in_shape(self.row, self.col, (rows, cols), "entry")
        self.rows, self.cols = rows, cols

    @property
    def entries(self) -> frozenset[tuple[int, int]]:
        """The (row, col) pairs holding a 1, as a set."""
        return frozenset(zip(self.row.tolist(), self.col.tolist()))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        """Number of non-zero entries (the sparsity parameter of the cost model)."""
        return self.row.size

    @property
    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def to_array(self) -> np.ndarray:
        """Writable float64 copy of the full matrix."""
        arr = np.zeros((self.rows, self.cols))
        arr[self.row, self.col] = 1.0
        return arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        same = np.array_equal(self.row, other.row) and np.array_equal(self.col, other.col)
        return self.shape == other.shape and same

    def __repr__(self) -> str:
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def low_rank_product(u: DenseMatrix, v: DenseMatrix) -> DenseMatrix:
    """N x M reconstruction U V^T from N x d and M x d factors."""
    if u.cols != v.cols:
        raise ValueError(
            f"low_rank_product: inner dimension mismatch {u.shape} vs {v.shape}"
        )
    return DenseMatrix(u.data @ v.data.T)
