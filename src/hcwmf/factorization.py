"""Weighted nonnegative matrix factorization with consistency regularization.

Fits X ~ U V^T on a binary user-by-time adoption matrix by alternating
projected gradient descent.  The loss combines a masked reconstruction term,
Frobenius penalties on both factors, and an attenuation-weighted consistency
term that pulls predicted scores toward 1 along each user's post-adoption
ramp:

    L(U, V) = ||W * (X - U V^T)||_F^2
            + gamma1 ||U||_F^2 + gamma2 ||V||_F^2
            + mu ||G * (1 - U V^T)||_F^2

with * the elementwise product.  Setting mu = 0 removes the consistency term
entirely and yields the plain weighted factorization used as an ablation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, SparseBinaryMatrix, low_rank_product
from .masks import MaskPair

__all__ = [
    "TrainConfig",
    "FactorPair",
    "TrainTrace",
    "objective",
    "grad_u",
    "grad_v",
    "train",
    "predict",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the alternating projected gradient trainer.

    ``learning_rate`` is the step size usually written as lambda; the Python
    keyword forces the longer name.
    """

    d: int = 10
    gamma1: float = 0.2
    gamma2: float = 0.2
    mu: float = 0.2
    learning_rate: float = 0.001
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        for name in ("gamma1", "gamma2", "mu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class FactorPair:
    """Nonnegative low-rank factors: u is N-by-d, v is M-by-d."""

    u: DenseMatrix
    v: DenseMatrix

    def __post_init__(self):
        if self.u.cols != self.v.cols:
            raise ValueError(
                f"factor rank mismatch: u has {self.u.cols} columns, v has {self.v.cols}"
            )
        if np.any(self.u.data < 0) or np.any(self.v.data < 0):
            raise ValueError("factors must be nonnegative")


@dataclass(frozen=True)
class TrainTrace:
    """Objective values recorded during a fit, one per completed iteration."""

    initial_objective: float
    objective_per_iter: tuple[float, ...]
    converged: bool

    @property
    def iterations_run(self) -> int:
        return len(self.objective_per_iter)


def _sq(a) -> float:
    return float(np.sum(a * a))


def _objective_arrays(x, w, g, p, u, v, gamma1, gamma2, mu) -> float:
    # Each residual is freed once its term is summed, so the objective holds
    # no more N x M temporaries than a gradient does.
    total = _sq(w * (x - p)) + gamma1 * _sq(u) + gamma2 * _sq(v)
    if mu != 0.0:
        total += mu * _sq(g * (1.0 - p))
    return total


def _grad_arrays(x, w, g, p, a, b, gamma, mu):
    """Gradient of the loss in ``a`` at ``p = a b^T``.

    Pass (x, w, g, p, u, v) for U and the transposed views (x.T, w.T, g.T, p.T, v, u) for V.
    """
    # W is binary so W*W = W and the residual needs no extra mask squaring;
    # G is real-valued so its square stays explicit.
    grad = -2.0 * ((w * (x - p)) @ b) + 2.0 * gamma * a
    if mu != 0.0:
        grad -= 2.0 * mu * (((g * g) * (1.0 - p)) @ b)
    return grad


def _unpack(x: SparseBinaryMatrix, masks: MaskPair, factors: FactorPair):
    if masks.w.shape != x.shape:
        raise ValueError(f"masks: shape mismatch {masks.w.shape} vs {x.shape}")
    n, m = x.shape
    if factors.u.rows != n or factors.v.rows != m:
        raise ValueError(
            f"factors sized {factors.u.rows}x{factors.v.rows} do not match matrix {n}x{m}"
        )
    ua, va = factors.u.data, factors.v.data
    return x.to_array(), masks.w.data, masks.g.data, ua @ va.T, ua, va


def objective(
    x: SparseBinaryMatrix, masks: MaskPair, factors: FactorPair, cfg: TrainConfig
) -> float:
    """Value of the regularized loss at the given factors."""
    xa, wa, ga, pa, ua, va = _unpack(x, masks, factors)
    return _objective_arrays(xa, wa, ga, pa, ua, va, cfg.gamma1, cfg.gamma2, cfg.mu)


def grad_u(
    x: SparseBinaryMatrix, masks: MaskPair, factors: FactorPair, cfg: TrainConfig
) -> DenseMatrix:
    """Exact gradient of the loss with respect to U."""
    xa, wa, ga, pa, ua, va = _unpack(x, masks, factors)
    return DenseMatrix(_grad_arrays(xa, wa, ga, pa, ua, va, cfg.gamma1, cfg.mu))


def grad_v(
    x: SparseBinaryMatrix, masks: MaskPair, factors: FactorPair, cfg: TrainConfig
) -> DenseMatrix:
    """Exact gradient of the loss with respect to V."""
    xa, wa, ga, pa, ua, va = _unpack(x, masks, factors)
    return DenseMatrix(_grad_arrays(xa.T, wa.T, ga.T, pa.T, va, ua, cfg.gamma2, cfg.mu))


def _init_factors(n: int, m: int, d: int, seed: int):
    # Uniform over [0, 1/sqrt(d)) keeps initial U V^T entries of order 1.
    rng = np.random.default_rng(seed)
    high = 1.0 / math.sqrt(d)
    u = rng.uniform(0.0, high, size=(n, d))
    v = rng.uniform(0.0, high, size=(m, d))
    return u, v


def train(
    x: SparseBinaryMatrix, masks: MaskPair, cfg: TrainConfig | None = None
) -> tuple[FactorPair, TrainTrace]:
    """Run alternating projected gradient descent until the loss stabilizes.

    Each iteration takes a gradient step on U, clamps it at zero, then takes
    a gradient step on V using the already-updated U and clamps it too.  The
    trace records the objective after every completed iteration (the starting
    value is kept separately).  Stops once the relative objective change drops
    below ``rel_tol`` or after ``max_iters`` iterations, whichever comes first.

    Raises FloatingPointError if the objective stops being finite, naming the
    iteration at which that happened.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    if masks.w.shape != x.shape:
        raise ValueError(f"masks: shape mismatch {masks.w.shape} vs {x.shape}")
    n, m = x.shape
    xa, wa, ga = x.to_array(), masks.w.data, masks.g.data
    u, v = _init_factors(n, m, cfg.d, cfg.seed)
    lr = cfg.learning_rate

    # p is always u v^T for the current factors: each half-step and the
    # objective read it, and it is rebuilt once after each factor changes.
    p = u @ v.T
    prev = _objective_arrays(xa, wa, ga, p, u, v, cfg.gamma1, cfg.gamma2, cfg.mu)
    initial = prev
    trace: list[float] = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        u = np.maximum(0.0, u - lr * _grad_arrays(xa, wa, ga, p, u, v, cfg.gamma1, cfg.mu))
        p = u @ v.T
        v = np.maximum(0.0, v - lr * _grad_arrays(xa.T, wa.T, ga.T, p.T, v, u, cfg.gamma2, cfg.mu))
        p = u @ v.T

        cur = _objective_arrays(xa, wa, ga, p, u, v, cfg.gamma1, cfg.gamma2, cfg.mu)
        if not math.isfinite(cur):
            raise FloatingPointError(
                f"objective became non-finite ({cur}) at iteration {it}; "
                "try a smaller learning_rate"
            )
        trace.append(cur)
        denom = max(abs(prev), np.finfo(float).tiny)
        if abs(prev - cur) / denom < cfg.rel_tol:
            converged = True
            break
        prev = cur

    factors = FactorPair(u=DenseMatrix(u), v=DenseMatrix(v))
    return factors, TrainTrace(
        initial_objective=initial, objective_per_iter=tuple(trace), converged=converged
    )


def predict(factors: FactorPair) -> DenseMatrix:
    """Score matrix U V^T; nonnegative because both factors are."""
    return low_rank_product(factors.u, factors.v)
