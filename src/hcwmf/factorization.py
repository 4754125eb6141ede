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

The masks pick the route.  A ``MaskPair`` is evaluated over dense N x M
arrays; that route is the reference specification.  A ``HeldOutSet`` takes
the structured route: W is 1 except on its cells, where the fit's own dense X
holds U V^T, and G is anchored at each row's first positive, so neither mask
is stored.  That route keeps its rows in onset order, so each onset group is
one slice of U and takes one d x d product in the U-gradient, and it writes
U V^T onto the held-out cells in blocks, so no |H| x d gather exists.  Its X
spans only the columns from the first to the last that holds a positive or a
held-out cell.  It makes two BLAS products with that X per iteration plus d x d
algebra, holds no other N x M array, and agrees with the reference to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DenseMatrix, SparseBinaryMatrix, _check_in_shape, low_rank_product
from .masks import HeldOutSet, MaskPair, _onsets, _ramp

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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("learning_rate", "rel_tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("gamma1", "gamma2", "mu"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


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


def _zero_factors(factors: FactorPair) -> list[str]:
    """The names, "U" and "V", of the factors a fit left all zeros; then every score is 0."""
    return [name for name, f in (("U", factors.u), ("V", factors.v)) if not f.data.any()]


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


class _DenseLoss:
    """The loss over dense X, W, G and U V^T arrays: the reference route.

    After U or V changes, ``moved_u`` or ``moved_v`` (after both, ``moved``)
    must run before the next gradient or objective.  Here each rebuilds
    U V^T, so the half-steps and the objective read the same product.  Rows
    stay in the caller's order.
    """

    def __init__(self, x: SparseBinaryMatrix, masks: MaskPair, cfg: TrainConfig):
        self.xa, self.wa, self.ga = x.to_array(), masks.w.data, masks.g.data
        self.cfg = cfg

    def moved(self, u, v) -> None:
        self.p = u @ v.T

    moved_u = moved_v = moved

    def rows_in(self, u):
        return u

    rows_out = rows_in

    def objective(self, u, v) -> float:
        c = self.cfg
        return _objective_arrays(self.xa, self.wa, self.ga, self.p, u, v, c.gamma1, c.gamma2, c.mu)

    def grad_u(self, u, v):
        return _grad_arrays(self.xa, self.wa, self.ga, self.p, u, v, self.cfg.gamma1, self.cfg.mu)

    def grad_v(self, u, v):
        return _grad_arrays(
            self.xa.T, self.wa.T, self.ga.T, self.p.T, v, u, self.cfg.gamma2, self.cfg.mu
        )


def _before(a):
    """Sums of the rows of ``a`` before each row: out[k] = sum(a[:k])."""
    out = np.zeros_like(a)
    np.cumsum(a[:-1], axis=0, out=out[1:])
    return out


def _after(a):
    """Sums of the rows of ``a`` after each row: out[k] = sum(a[k+1:])."""
    out = np.zeros_like(a)
    out[:-1] = np.cumsum(a[:0:-1], axis=0)[::-1]
    return out


_HELD_BLOCK = 2048  # cells per block of _cell_products


def _cell_products(u, v, rows, cols, out) -> None:
    """out[c] = u[rows[c]] . v[cols[c]], in blocks of _HELD_BLOCK cells, so that no
    |cells| x d gather exists: each block's pair is freed before the next is taken."""
    for a in range(0, out.size, _HELD_BLOCK):
        b = a + _HELD_BLOCK
        np.einsum("ij,ij->i", u.take(rows[a:b], axis=0), v.take(cols[a:b], axis=0), out=out[a:b])


class _StructuredLoss:
    """The same loss with no N x M array: X is dense over its occupied columns only.

    With H the held-out cells and P = U V^T, the fit term sums (x - p)^2 off H.
    X holds p on H (Srebro & Jaakkola, ICML 2003), so the fit term is
    ||X - P||^2 = nnz_out + sum_H p^2 - 2<U, X V> + <U^T U, V^T V> (Hu, Koren &
    Volinsky, ICDM 2008), with nnz_out the positives off H, and its gradients
    need no held-out term.  Row i of G^2 is omega_k: 1 at the row's onset k,
    h_j^2 at each later column j and 0 before.  So the consistency term is a
    quadratic in each u_i with the coefficients of its onset group k, ``wv[k]``
    = sum_j omega_kj v_j and ``wvv[k]`` = sum_j omega_kj v_j v_j^T, and a
    quadratic in each v_j with ``wu[j]`` = sum_i omega_{k_i j} u_i and
    ``wuu[j]`` = sum_i omega_{k_i j} u_i u_i^T.

    The fit keeps its rows in onset order: a stable sort by onset, with the
    rows that have no positive last.  ``rows_in`` and ``rows_out`` move U
    between the caller's order and this one.  Each onset group is then one
    slice ``u[a:b]``, and its rows of the U-gradient are
    2(u_i (V^T V + gamma1 I + mu wvv[k]) - (X V)_i - mu wv[k]): one d x d
    product per group.  Rows with no onset, and every row when mu = 0, take
    V^T V + gamma1 I.

    X holds the columns lo..hi-1, from the first to the last that holds a
    positive or a held-out cell; every column outside is 0, so X V reads only
    V's rows lo..hi-1 and X^T U is 0 outside them.

    ``moved_u`` and ``moved_v`` write p on H into X, computed in blocks of
    ``_HELD_BLOCK`` cells so that no |H| x d gather exists, then recompute
    what depends on the factor that changed (X^T U or X V, the Gramians, the
    group sums), and the objective and the next half-step share it.
    """

    def __init__(self, x: SparseBinaryMatrix, held: HeldOutSet, cfg: TrainConfig):
        _check_in_shape(held.row, held.col, x.shape, "held-out cell")
        n, m = x.shape
        onset = _onsets(x)
        # Row i of the caller is row rank[i] of the fit.
        self.perm = np.argsort(onset, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.perm] = np.arange(n)
        # X is the fit's own dense copy of x's columns lo..hi-1 (the rest are 0), and
        # p on H is written into it.  A stable sort keeps each row's columns in order,
        # so the cells reach it row-major.
        occupied = np.concatenate((x.col, held.col))
        self.lo, self.hi = (int(occupied.min()), int(occupied.max()) + 1) if occupied.size else (0, 0)
        w = self.hi - self.lo
        row = self.rank[x.row]
        cells = np.argsort(row, kind="stable")
        self.x = SparseBinaryMatrix(
            n, w, np.column_stack((row[cells], x.col[cells] - self.lo))
        ).to_array()
        self.cfg = cfg
        # Held-out cells as sorted flat indices into X, and their rows of U and of V.
        self.held = np.sort(self.rank[held.row] * w + (held.col - self.lo))
        self.hr, self.hc = np.divmod(self.held, w)
        self.hc += self.lo
        self.ph = np.empty(self.held.size)
        # Counted before the first write of p on H replaces X's values there.
        self.nnz_out = x.nnz - self.x.take(self.held).sum()
        # Each group is (onset, start, end): rows start..end-1 share that onset.
        self.groups, self.n_on = [], 0
        if cfg.mu == 0.0:
            return
        first = onset[self.perm]
        self.n_on = int(np.searchsorted(first, m))
        first = first[: self.n_on]
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        ends = np.append(starts[1:], first.size)
        self.groups = list(zip(first[starts].tolist(), starts.tolist(), ends.tolist()))
        h = _ramp(m)
        self.h2 = h * h
        count = np.bincount(first, minlength=m).astype(float)
        # sum_k omega_kj n_k: the consistency term's constant part, per column.
        self.c0 = float(np.sum(count + self.h2 * _before(count)))

    def rows_in(self, u):
        return u[self.perm]

    def rows_out(self, u):
        return u[self.rank]

    def _write_held(self, u, v) -> None:
        _cell_products(u, v, self.hr, self.hc, out=self.ph)
        self.x.put(self.held, self.ph)

    def moved_u(self, u, v) -> None:
        self._write_held(u, v)
        m, d = v.shape
        self.xtu = np.zeros((m, d))
        self.xtu[self.lo : self.hi] = self.x.T @ u
        if self.cfg.mu == 0.0:
            self.utu = u.T @ u
            return
        su, s = np.zeros((m, d)), np.zeros((m, d, d))
        for k, a, b in self.groups:
            su[k] = u[a:b].sum(axis=0)
            s[k] = u[a:b].T @ u[a:b]
        # The groups' Gramians cover the rows with an onset, the first n_on.
        self.utu = s.sum(axis=0) + u[self.n_on :].T @ u[self.n_on :]
        # Column j sums its own group and, weighted h_j^2, every earlier one.
        self.wu = su + self.h2[:, None] * _before(su)
        self.wuu = s + self.h2[:, None, None] * _before(s)

    def moved_v(self, u, v) -> None:
        self._write_held(u, v)
        self.vtv, self.xv = v.T @ v, self.x @ v[self.lo : self.hi]
        if self.cfg.mu == 0.0:
            return
        vv = np.einsum("ja,jb->jab", v, v)
        # Group k takes its own column and, weighted h_j^2, every later one.
        self.wv = v + _after(self.h2[:, None] * v)
        self.wvv = vv + _after(self.h2[:, None, None] * vv)

    def moved(self, u, v) -> None:
        self.moved_u(u, v)
        self.moved_v(u, v)

    def objective(self, u, v) -> float:
        c = self.cfg
        fit = self.nnz_out + _sq(self.ph) - 2.0 * np.vdot(u, self.xv) + np.vdot(self.utu, self.vtv)
        total = float(fit + c.gamma1 * np.trace(self.utu) + c.gamma2 * np.trace(self.vtv))
        if c.mu != 0.0:
            quad = np.einsum("ja,jab,jb->", v, self.wuu, v)
            total += c.mu * float(self.c0 - 2.0 * np.vdot(v, self.wu) + quad)
        return total

    def grad_u(self, u, v):
        c = self.cfg
        base = self.vtv + c.gamma1 * np.eye(v.shape[1])
        grad = np.empty_like(u)
        for k, a, b in self.groups:
            np.matmul(u[a:b], base + c.mu * self.wvv[k], out=grad[a:b])
            grad[a:b] -= c.mu * self.wv[k]
        np.matmul(u[self.n_on :], base, out=grad[self.n_on :])
        grad -= self.xv
        grad *= 2.0
        return grad

    def grad_v(self, u, v):
        c = self.cfg
        grad = -2.0 * (self.xtu - v @ self.utu) + 2.0 * c.gamma2 * v
        if c.mu != 0.0:
            grad -= 2.0 * c.mu * (self.wu - np.einsum("jab,jb->ja", self.wuu, v))
        return grad


def _loss(x: SparseBinaryMatrix, masks, cfg: TrainConfig):
    if isinstance(masks, HeldOutSet):
        return _StructuredLoss(x, masks, cfg)
    if masks.shape != x.shape:
        raise ValueError(f"masks: shape mismatch {masks.shape} vs {x.shape}")
    return _DenseLoss(x, masks, cfg)


def _at(x: SparseBinaryMatrix, masks, factors: FactorPair, cfg: TrainConfig):
    """The loss of (x, masks, cfg), moved to ``factors``, and their arrays.

    U's rows come in the loss' order (``rows_in``).
    """
    loss = _loss(x, masks, cfg)
    n, m = x.shape
    if factors.u.rows != n or factors.v.rows != m:
        raise ValueError(
            f"factors sized {factors.u.rows}x{factors.v.rows} do not match matrix {n}x{m}"
        )
    u, v = loss.rows_in(factors.u.data), factors.v.data
    loss.moved(u, v)
    return loss, u, v


def objective(
    x: SparseBinaryMatrix, masks: MaskPair | HeldOutSet, factors: FactorPair, cfg: TrainConfig
) -> float:
    """Value of the regularized loss at the given factors."""
    loss, u, v = _at(x, masks, factors, cfg)
    return loss.objective(u, v)


def grad_u(
    x: SparseBinaryMatrix, masks: MaskPair | HeldOutSet, factors: FactorPair, cfg: TrainConfig
) -> DenseMatrix:
    """Exact gradient of the loss with respect to U."""
    loss, u, v = _at(x, masks, factors, cfg)
    return DenseMatrix(loss.rows_out(loss.grad_u(u, v)))


def grad_v(
    x: SparseBinaryMatrix, masks: MaskPair | HeldOutSet, factors: FactorPair, cfg: TrainConfig
) -> DenseMatrix:
    """Exact gradient of the loss with respect to V."""
    loss, u, v = _at(x, masks, factors, cfg)
    return DenseMatrix(loss.grad_v(u, v))


def _init_factors(n: int, m: int, d: int, seed: int):
    # Uniform over [0, 1/sqrt(d)) keeps initial U V^T entries of order 1.
    rng = np.random.default_rng(seed)
    high = 1.0 / math.sqrt(d)
    u = rng.uniform(0.0, high, size=(n, d))
    v = rng.uniform(0.0, high, size=(m, d))
    return u, v


def train(
    x: SparseBinaryMatrix, masks: MaskPair | HeldOutSet, cfg: TrainConfig | None = None
) -> tuple[FactorPair, TrainTrace]:
    """Run alternating projected gradient descent until the loss stabilizes.

    Each iteration takes a gradient step on U, clamps it at zero, then takes
    a gradient step on V using the already-updated U and clamps it too.  The
    trace records the objective after every completed iteration (the starting
    value is kept separately).  Stops once the relative objective change drops
    below ``rel_tol`` or after ``max_iters`` iterations, whichever comes first.

    A ``MaskPair`` is evaluated over dense N x M arrays, the reference route.
    A ``HeldOutSet`` takes the structured route: W is 1 except on its cells,
    G is anchored at each row's first positive in ``x``, and the fit holds no
    N x M array: ``x`` is one dense array over the columns from its first to its
    last that holds a positive or a held-out cell.  It agrees with the
    reference to rounding.  ``HeldOutSet.of(())`` fits every cell.

    Raises FloatingPointError if the objective stops being finite, naming the
    iteration at which that happened.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    n, m = x.shape
    # The factors are drawn before the loss is built, so a shape too large for
    # memory fails on V's M x d allocation before any M-long array is written.
    u, v = _init_factors(n, m, cfg.d, cfg.seed)
    loss = _loss(x, masks, cfg)
    u = loss.rows_in(u)
    lr = cfg.learning_rate

    loss.moved(u, v)
    prev = loss.objective(u, v)
    initial = prev
    trace: list[float] = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        # Each step is taken in place: u = max(0, u - lr * grad), with no other N x d temporary.
        g = loss.grad_u(u, v)
        g *= lr
        u -= g
        np.maximum(0.0, u, out=u)
        loss.moved_u(u, v)
        g = loss.grad_v(u, v)
        g *= lr
        v -= g
        np.maximum(0.0, v, out=v)
        loss.moved_v(u, v)

        cur = loss.objective(u, v)
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

    u = loss.rows_out(u)
    del loss  # freed before DenseMatrix copies the factors
    factors = FactorPair(u=DenseMatrix(u), v=DenseMatrix(v))
    return factors, TrainTrace(
        initial_objective=initial, objective_per_iter=tuple(trace), converged=converged
    )


def predict(factors: FactorPair) -> DenseMatrix:
    """Score matrix U V^T; nonnegative because both factors are."""
    return low_rank_product(factors.u, factors.v)
