"""Comparison predictors: first-order Markov chain, fair-coin Random, and AR.

All three are intentionally weak references for the factorization models.
The Markov chain pools 0/1 transitions between consecutive time bins across
all users; Random flips a seeded fair coin per test cell; the autoregressive
model fits one OLS regression per user row and predicts one step ahead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, SparseBinaryMatrix

__all__ = [
    "TransitionModel",
    "ArModel",
    "fit_markov",
    "predict_markov",
    "random_predict",
    "fit_ar",
    "predict_ar",
]

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransitionModel:
    """Row-stochastic 2x2 transition matrix over the states {0, 1}."""

    t: DenseMatrix

    def __post_init__(self):
        if self.t.shape != (2, 2):
            raise ValueError(f"transition matrix must be 2x2, got {self.t.shape}")
        if np.any(self.t.data < 0) or np.any(self.t.data > 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        sums = self.t.data.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError(f"transition rows must sum to 1, got {sums}")


@dataclass(frozen=True)
class ArModel:
    """Autoregressive model of given order: x_t = c + sum_i phi_i x_{t-i}.

    coefficients[i-1] holds phi_i, the weight on the value i steps back.
    """

    order: int
    intercept: float
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coefficients) != self.order:
            raise ValueError(
                f"expected {self.order} coefficients, got {len(self.coefficients)}"
            )
        if not all(map(math.isfinite, self.coefficients)) or not math.isfinite(self.intercept):
            raise ValueError("AR parameters must be finite")


def fit_markov(x_train: SparseBinaryMatrix) -> TransitionModel:
    """Estimate transition probabilities from consecutive columns of all rows.

    Counts are pooled over the whole matrix and row-normalized.  A state with
    no outgoing transitions gets the row [1, 0]: under extreme sparsity the
    chain collapses into state 0.
    """
    n, m = x_train.shape
    if m < 2:
        raise ValueError(f"need at least 2 columns to count transitions, got {m}")
    row, col = x_train.row, x_train.col
    # The 1s are row-major, so a 1 -> 1 pair is two neighbouring entries of one row.
    c11 = int(np.sum((row[1:] == row[:-1]) & (col[1:] == col[:-1] + 1)))
    c10 = int(np.sum(col < m - 1)) - c11
    c01 = int(np.sum(col > 0)) - c11
    counts = np.array([[n * (m - 1) - c11 - c10 - c01, c01], [c10, c11]], dtype=float)
    t = np.zeros((2, 2))
    for state in (0, 1):
        total = counts[state].sum()
        if total == 0:
            t[state] = [1.0, 0.0]
        else:
            t[state] = counts[state] / total
    return TransitionModel(DenseMatrix(t))


def predict_markov(model: TransitionModel, prev_state: int) -> float:
    """Probability of landing in state 1 given the preceding bin's state."""
    if prev_state not in (0, 1):
        raise ValueError(f"prev_state must be 0 or 1, got {prev_state}")
    return float(model.t[prev_state, 1])


def random_predict(n_cells: int, seed: int) -> np.ndarray:
    """Seeded fair-coin predictions: n_cells independent values in {0.0, 1.0}."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n_cells).astype(float)


def fit_ar(series, p: int = 2) -> ArModel:
    """Least-squares fit of an order-p autoregression with intercept.

    Falls back to an intercept-only model (the mean of the regression
    targets, all coefficients zero) when the lagged design is rank-deficient,
    e.g. on constant or all-zero series.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    t = x.size
    if t <= p:
        raise ValueError(f"series of length {t} cannot fit order {p}")
    y = x[p:]
    # Column 0 is the intercept's, column k the value k steps back.
    design = np.ones((t - p, p + 1))
    for k in range(1, p + 1):
        design[:, k] = x[p - k : t - k]
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        return ArModel(order=p, intercept=float(np.mean(y)), coefficients=(0.0,) * p)
    intercept, *phi = coef.tolist()
    return ArModel(order=p, intercept=intercept, coefficients=tuple(phi))


def predict_ar(model: ArModel, history) -> float:
    """One-step-ahead prediction from the trailing values of ``history``.

    Histories shorter than the model order are left-padded with zeros, so a
    prediction is defined even at the first columns of a row.
    """
    h = np.asarray(history, dtype=float)
    if h.ndim != 1:
        raise ValueError(f"history must be one-dimensional, got shape {h.shape}")
    if h.size < model.order:
        h = np.concatenate([np.zeros(model.order - h.size), h])
    pred = model.intercept
    for i, phi in enumerate(model.coefficients, start=1):
        pred += phi * h[-i]
    return float(pred)
