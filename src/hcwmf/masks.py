"""Indicator and attenuation masks for the weighted factorization loss.

The indicator mask marks which cells of the user-time matrix carry known
training information (1) versus held-out/missing cells (0).  The attenuation
mask gives each user a per-row ramp that is 1 at the first observed adoption
and decays toward 0 over the remaining time bins, encoding that a trend dies
out.  Both are always built from the post-masking training matrix so no test
information leaks into training.
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, SparseBinaryMatrix, _check_in_shape, _coords

__all__ = [
    "HeldOutSet",
    "MaskPair",
    "build_indicator",
    "build_attenuation",
    "build_masks",
]


@dataclass(frozen=True, eq=False)
class HeldOutSet:
    """Positive cells removed from the matrix for evaluation.

    ``of`` stores them as read-only int64 ``row`` and ``col`` arrays in row-major
    order without duplicates; iteration yields (row, col) pairs in that order.
    """

    row: np.ndarray
    col: np.ndarray

    @classmethod
    def of(cls, cells: Iterable[tuple[int, int]] | np.ndarray) -> "HeldOutSet":
        """Held-out set of (row, col) pairs or of a k x 2 integer array."""
        return cls(*_coords(cells))

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        """The held-out (row, col) pairs, as a set."""
        return frozenset(self)

    def __len__(self) -> int:
        return self.row.size

    def __iter__(self):
        return zip(self.row.tolist(), self.col.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeldOutSet):
            return NotImplemented
        return np.array_equal(self.row, other.row) and np.array_equal(self.col, other.col)


@dataclass(frozen=True)
class MaskPair:
    """Indicator mask w (binary) and attenuation mask g (values in [0, 1])."""

    w: DenseMatrix
    g: DenseMatrix

    def __post_init__(self):
        if self.w.shape != self.g.shape:
            raise ValueError(f"mask shape mismatch {self.w.shape} vs {self.g.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape


def build_indicator(shape: tuple[int, int], held_out: HeldOutSet) -> DenseMatrix:
    """All-ones indicator with held-out cells zeroed.

    Training zeros count as known negatives, so only the held-out cells are
    marked unknown.
    """
    n, m = shape
    _check_in_shape(held_out.row, held_out.col, shape, "held-out cell")
    w = np.ones((n, m))
    w[held_out.row, held_out.col] = 0.0
    return DenseMatrix(w)


def _onsets(x_train: SparseBinaryMatrix) -> np.ndarray:
    """Each row's first training column, M for a row with none."""
    n, m = x_train.shape
    onset = np.full(n, m)
    np.minimum.at(onset, x_train.row, x_train.col)
    return onset


def _ramp(m: int) -> np.ndarray:
    """The attenuation 1 - 1/(M - c) of each column c after a row's onset."""
    return 1.0 - 1.0 / (m - np.arange(m))


def build_attenuation(x_train: SparseBinaryMatrix) -> DenseMatrix:
    """Per-row time-decay ramp anchored at each row's first training positive.

    For a row whose first positive sits at 0-based column j0 the row of g is
    0 before j0, exactly 1 at j0, and 1 - 1/(M - c) at each later column c,
    which decreases strictly to 0 at the last column.  Rows with no training
    positive stay all-zero: with no observed adoption there is no anchor time
    for the ramp.  Later positives in a row do not restart the ramp.
    """
    m = x_train.cols
    onset = _onsets(x_train)
    cols = np.arange(m)
    g = np.where(cols > onset[:, None], _ramp(m), 0.0)
    g[cols == onset[:, None]] = 1.0
    return DenseMatrix(g)


def build_masks(x_train: SparseBinaryMatrix, held_out: HeldOutSet) -> MaskPair:
    """Build both masks from the training matrix and the held-out cell set."""
    return MaskPair(
        w=build_indicator(x_train.shape, held_out),
        g=build_attenuation(x_train),
    )
