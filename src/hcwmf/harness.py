"""Evaluation protocol: mask positives, train every method, score by RMSE.

A sweep cell is one (fraction, d) pair.  Within a cell every method sees the
same training matrix and is scored on the same held-out cells (which were
positives, so the target value is 1), making comparisons paired.  All
per-cell seeds derive from the single seed in the training config, so a
whole sweep is reproducible from one integer.  A method that fails inside a
cell on its data produces an error row instead of aborting the sweep: the
markov baseline with fewer than 2 columns and the ar baseline with no more
columns than its order, both checked before any fit, and a fit that raises
numpy's LinAlgError or an ArithmeticError (FloatingPointError among them).
Any other exception, a ValueError from numpy included, is a bug and
propagates.  An hcwmf or wmf fit that ends with U or V all zeros scores 0
everywhere; the sweep warns when that happens.
"""

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_ar, fit_markov, predict_markov, random_predict
from .baselines import predict_ar  # noqa: F401  uncalled; hook hcwmf.harness.predict_ar of perfbench/child.py
from .factorization import TrainConfig, _cell_products, _zero_factors, train
from .factorization import predict  # noqa: F401  uncalled; hook hcwmf.harness.predict of perfbench/child.py
from .linalg import SparseBinaryMatrix
from .masks import HeldOutSet
from .masks import build_masks  # noqa: F401  uncalled; hook hcwmf.harness.build_masks of perfbench/child.py

__all__ = [
    "SplitSpec",
    "ResultRow",
    "ResultsTable",
    "METHODS",
    "split_mask",
    "rmse",
    "run_sweep",
]

METHODS = ("hcwmf", "wmf", "markov", "ar", "random")

# Stream labels keeping split/train/random seed derivations disjoint.
_SPLIT_TAG = 101
_TRAIN_TAG = 202
_RANDOM_TAG = 303


@dataclass(frozen=True)
class SplitSpec:
    """Percentage of positive cells to hold out, plus the sampling seed."""

    fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 100.0:
            raise ValueError(f"fraction must be in (0, 100), got {self.fraction}")


@dataclass(frozen=True)
class ResultRow:
    """One sweep outcome; rmse is None and error non-empty when a method failed."""

    dataset: str
    method: str
    fraction: float
    d: int
    rmse: float | None
    error: str = ""

    def __post_init__(self):
        if self.rmse is not None and self.rmse < 0:
            raise ValueError(f"rmse must be >= 0, got {self.rmse}")


@dataclass(frozen=True)
class ResultsTable:
    """Ordered collection of sweep rows with lossless CSV round-tripping."""

    rows: tuple[ResultRow, ...]

    _HEADER = ("dataset", "method", "fraction", "d", "rmse", "error")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self._HEADER)
            for row in self.rows:
                writer.writerow(
                    [
                        row.dataset,
                        row.method,
                        repr(float(row.fraction)),
                        row.d,
                        "" if row.rmse is None else repr(float(row.rmse)),
                        row.error,
                    ]
                )

    @classmethod
    def from_csv(cls, path) -> "ResultsTable":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != cls._HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            rows = []
            for rec in reader:
                dataset, method, fraction, d, rmse_s, error = rec
                rows.append(
                    ResultRow(
                        dataset=dataset,
                        method=method,
                        fraction=float(fraction),
                        d=int(d),
                        rmse=None if rmse_s == "" else float(rmse_s),
                        error=error,
                    )
                )
        return cls(rows=tuple(rows))


def split_mask(x: SparseBinaryMatrix, spec: SplitSpec) -> tuple[SparseBinaryMatrix, HeldOutSet]:
    """Hold out a seeded sample of the positive cells.

    The held-out count is fraction% of the positives rounded half-up, never
    below 1.  Held-out cells are cleared in the returned training matrix, so
    training positives and held-out cells partition the original positives.
    """
    if x.nnz == 0:
        raise ValueError("cannot split a matrix with no positive entries")
    n_held = max(1, int(math.floor(spec.fraction / 100.0 * x.nnz + 0.5)))
    rng = np.random.default_rng(spec.seed)
    picked = rng.choice(x.nnz, size=n_held, replace=False)
    keep = np.ones(x.nnz, dtype=bool)
    keep[picked] = False
    held = HeldOutSet.of(np.column_stack((x.row[~keep], x.col[~keep])))
    x_train = SparseBinaryMatrix(x.rows, x.cols, np.column_stack((x.row[keep], x.col[keep])))
    return x_train, held


def rmse(predicted, actual) -> float:
    """Root mean squared difference between two equal-length sequences."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1:
        raise ValueError(f"need equal-length 1-d sequences, got {p.shape} and {a.shape}")
    if p.size == 0:
        raise ValueError("cannot score empty sequences")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def _derived_seed(entropy: list[int]) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _lagged(x_train: SparseBinaryMatrix, held: HeldOutSet, k: int) -> np.ndarray:
    """Whether ``x_train`` is 1 at (i, j - k) for each held-out (i, j); False where j < k."""
    m = x_train.cols
    # Both flat index sets are sorted and distinct, so isin need not sort them again.
    hit = np.isin(held.row * m + held.col - k, x_train.row * m + x_train.col, assume_unique=True)
    return hit & (held.col >= k)


def _markov_predictions(x_train: SparseBinaryMatrix, held: HeldOutSet) -> np.ndarray:
    model = fit_markov(x_train)
    return np.where(_lagged(x_train, held, 1), predict_markov(model, 1), predict_markov(model, 0))


def _ar_predictions(x_train: SparseBinaryMatrix, held: HeldOutSet, order: int) -> np.ndarray:
    """``predict_ar`` at each held-out cell under one ``fit_ar`` per held-out row, lags in its order."""
    rows, at = np.unique(held.row, return_inverse=True)
    lo, hi = np.searchsorted(x_train.row, (rows, rows + 1)).tolist()
    # Each fit's parameters are kept, not the model: one row of these per held-out row.
    intercept, phi = np.empty(rows.size), np.empty((rows.size, order))
    for r, (a, b) in enumerate(zip(lo, hi)):
        model = fit_ar(np.bincount(x_train.col[a:b], minlength=x_train.cols), p=order)
        intercept[r], phi[r] = model.intercept, model.coefficients
    preds = intercept[at]
    for k in range(1, order + 1):
        preds += phi[at, k - 1] * _lagged(x_train, held, k)
    return preds


def run_sweep(
    x: SparseBinaryMatrix,
    methods,
    fractions,
    dims,
    base_cfg: TrainConfig | None = None,
    dataset: str = "synthetic",
    clamp: bool = False,
    ar_order: int = 2,
) -> ResultsTable:
    """Evaluate every requested method over all (fraction, d) cells.

    ``methods`` keeps its given order in the output; unknown names, a bad
    fraction, a d below 1 and an ``ar_order`` below 1 are rejected up front.
    The split for a given fraction is shared across d values (it does not
    depend on d), so latent-dimension comparisons reuse identical held-out
    cells; the markov and ar baselines do not depend on d either, so each is
    fitted once per split.  ``clamp`` clips predictions into [0, 1] before
    scoring; off by default since raw scores are what the loss optimizes.
    """
    cfg = base_cfg if base_cfg is not None else TrainConfig()
    method_list = list(dict.fromkeys(methods))
    if not method_list:
        raise ValueError("no methods requested")
    for name in method_list:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; known: {', '.join(METHODS)}")
    fraction_list = sorted({float(f) for f in fractions})
    dim_list = sorted({int(d) for d in dims})
    if not fraction_list or not dim_list:
        raise ValueError("fractions and dims must be non-empty")
    if dim_list[0] < 1:
        raise ValueError(f"d must be >= 1, got {dim_list[0]}")
    if ar_order < 1:
        raise ValueError(f"ar_order must be >= 1, got {ar_order}")
    for fraction in fraction_list:
        SplitSpec(fraction=fraction)  # rejects a bad fraction before any fit
    master = cfg.seed
    # The baselines' data failures, with the text of the ValueError each fit would raise.
    data_errors = {}
    if x.cols < 2:
        data_errors["markov"] = f"ValueError: need at least 2 columns to count transitions, got {x.cols}"
    if x.cols <= ar_order:
        data_errors["ar"] = f"ValueError: series of length {x.cols} cannot fit order {ar_order}"

    rows = []
    for fraction in fraction_list:
        frac_key = int(round(fraction * 100))
        split_seed = _derived_seed([master, _SPLIT_TAG, frac_key])
        x_train, held = split_mask(x, SplitSpec(fraction=fraction, seed=split_seed))
        actual = np.ones(len(held))
        baseline = {}  # markov and ar predictions, which do not depend on d
        for d in dim_list:
            train_seed = _derived_seed([master, _TRAIN_TAG, frac_key, d])
            random_seed = _derived_seed([master, _RANDOM_TAG, frac_key, d])
            for method in method_list:
                if method in data_errors:
                    rows.append(ResultRow(dataset, method, fraction, d, None, data_errors[method]))
                    continue
                try:
                    if method in ("hcwmf", "wmf"):
                        mu = 0.0 if method == "wmf" else cfg.mu
                        run_cfg = replace(cfg, d=d, mu=mu, seed=train_seed)
                        factors, _ = train(x_train, held, run_cfg)
                        zero = _zero_factors(factors)
                        if zero:
                            warnings.warn(
                                f"{method} at fraction {fraction}% and d={d}: the fit ended with "
                                f"{' and '.join(zero)} all zeros, so every score is 0; "
                                "a smaller learning_rate may avoid this",
                                stacklevel=2,
                            )
                        # U V^T on the held-out cells only, not the full N x M product.
                        preds = np.empty(len(held))
                        _cell_products(factors.u.data, factors.v.data, held.row, held.col, out=preds)
                    elif method in baseline:
                        preds = baseline[method]
                    elif method == "markov":
                        preds = baseline[method] = _markov_predictions(x_train, held)
                    elif method == "ar":
                        preds = baseline[method] = _ar_predictions(x_train, held, ar_order)
                    else:
                        preds = random_predict(len(held), random_seed)
                    if clamp:
                        preds = np.clip(preds, 0.0, 1.0)
                    score, error = rmse(preds, actual), ""
                except (np.linalg.LinAlgError, ArithmeticError) as exc:
                    score, error = None, f"{type(exc).__name__}: {exc}"
                rows.append(ResultRow(dataset, method, fraction, d, score, error))
    return ResultsTable(rows=tuple(rows))
