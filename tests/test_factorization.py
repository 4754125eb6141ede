"""Tests for the regularized factorization objective, gradients, and trainer."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hcwmf import (
    DenseMatrix,
    FactorPair,
    HeldOutSet,
    MaskPair,
    SparseBinaryMatrix,
    SynthConfig,
    TrainConfig,
    bin_records,
    build_masks,
    generate_synthetic,
    grad_u,
    grad_v,
    low_rank_product,
    objective,
    predict,
    train,
)
from hcwmf.masks import _onsets

ONE_CELL = SparseBinaryMatrix(1, 1, {(0, 0)})
ONES_1x1 = MaskPair(w=DenseMatrix(np.ones((1, 1))), g=DenseMatrix(np.ones((1, 1))))


def _pair(u_val, v_val):
    return FactorPair(u=DenseMatrix([[u_val]]), v=DenseMatrix([[v_val]]))


def _random_instance(rng, n, m, d, mu):
    """Random problem with a nontrivial indicator mask and attenuation."""
    cells = {
        (int(r), int(c))
        for r, c in zip(rng.integers(0, n, n * m // 3), rng.integers(0, m, n * m // 3))
    }
    x = SparseBinaryMatrix(n, m, cells)
    w = (rng.random((n, m)) < 0.9).astype(float)
    g = rng.random((n, m))
    masks = MaskPair(w=DenseMatrix(w), g=DenseMatrix(g))
    factors = FactorPair(
        u=DenseMatrix(rng.random((n, d))), v=DenseMatrix(rng.random((m, d)))
    )
    cfg = TrainConfig(d=d, gamma1=0.2, gamma2=0.2, mu=mu)
    return x, masks, factors, cfg


def _fd_grads(x, masks, factors, cfg, h=1e-6):
    """Central finite differences of the objective in every factor entry."""
    ua = factors.u.data.copy()
    va = factors.v.data.copy()

    def at(u_arr, v_arr):
        return objective(
            x, masks, FactorPair(u=DenseMatrix(u_arr), v=DenseMatrix(v_arr)), cfg
        )

    gu = np.zeros_like(ua)
    for idx in np.ndindex(ua.shape):
        up, um = ua.copy(), ua.copy()
        up[idx] += h
        um[idx] -= h
        gu[idx] = (at(up, va) - at(um, va)) / (2 * h)
    gv = np.zeros_like(va)
    for idx in np.ndindex(va.shape):
        vp, vm = va.copy(), va.copy()
        vp[idx] += h
        vm[idx] -= h
        gv[idx] = (at(ua, vp) - at(ua, vm)) / (2 * h)
    return gu, gv


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.d == 10
        assert cfg.gamma1 == 0.2 and cfg.gamma2 == 0.2 and cfg.mu == 0.2
        assert cfg.learning_rate == 0.001
        assert cfg.max_iters == 500
        assert cfg.rel_tol == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"max_iters": 0},
            {"rel_tol": 0.0},
            {"gamma1": -0.1},
            {"gamma2": -0.1},
            {"mu": -0.1},
            {"learning_rate": float("nan")},
            {"rel_tol": float("nan")},
            {"gamma1": float("nan")},
            {"gamma2": float("nan")},
            {"mu": float("nan")},
            {"learning_rate": float("inf")},
            {"rel_tol": float("inf")},
            {"gamma1": float("inf")},
            {"gamma2": float("inf")},
            {"mu": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestFactorPair:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            FactorPair(u=DenseMatrix(np.ones((2, 3))), v=DenseMatrix(np.ones((4, 2))))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FactorPair(u=DenseMatrix([[-0.1]]), v=DenseMatrix([[1.0]]))


class TestObjective:
    def test_zero_factors_double_unit_residual(self):
        cfg = TrainConfig(d=1, gamma1=0.0, gamma2=0.0, mu=1.0)
        assert objective(ONE_CELL, ONES_1x1, _pair(0.0, 0.0), cfg) == 2.0

    def test_perfect_fit_is_zero(self):
        cfg = TrainConfig(d=1, gamma1=0.0, gamma2=0.0, mu=1.0)
        assert objective(ONE_CELL, ONES_1x1, _pair(1.0, 1.0), cfg) == 0.0

    def test_regularizers_only(self):
        cfg = TrainConfig(d=1, gamma1=0.2, gamma2=0.2, mu=0.0)
        got = objective(ONE_CELL, ONES_1x1, _pair(1.0, 1.0), cfg)
        assert got == pytest.approx(0.4, abs=1e-15)

    def test_mu_zero_ignores_attenuation(self):
        rng = np.random.default_rng(2)
        x, masks, factors, _ = _random_instance(rng, 4, 5, 2, mu=0.0)
        cfg = TrainConfig(d=2, mu=0.0)
        other = MaskPair(w=masks.w, g=DenseMatrix(rng.random((4, 5))))
        assert objective(x, masks, factors, cfg) == objective(x, other, factors, cfg)

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig(d=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            objective(SparseBinaryMatrix(2, 2, []), ONES_1x1, _pair(0.0, 0.0), cfg)
        with pytest.raises(ValueError, match="do not match"):
            bad = FactorPair(u=DenseMatrix(np.ones((3, 1))), v=DenseMatrix(np.ones((1, 1))))
            objective(ONE_CELL, ONES_1x1, bad, cfg)

    def test_peak_memory_with_consistency_term(self):
        # X and U V^T plus one residual and its square at a time: each
        # residual must be freed once its term is summed.
        n, m = 300, 200
        x, masks, factors, cfg = _random_instance(np.random.default_rng(8), n, m, 10, mu=0.2)
        tracemalloc.start()
        try:
            objective(x, masks, factors, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * m * 8) <= 4.5


class TestGradients:
    def test_zero_at_perfect_unregularized_fit(self):
        cfg = TrainConfig(d=1, gamma1=0.0, gamma2=0.0, mu=0.0)
        factors = _pair(1.0, 1.0)
        assert not grad_u(ONE_CELL, ONES_1x1, factors, cfg).data.any()
        assert not grad_v(ONE_CELL, ONES_1x1, factors, cfg).data.any()

    def test_unit_residual_hand_value(self):
        # d/du (1 - u v)^2 at u=0, v=1 is -2.
        cfg = TrainConfig(d=1, gamma1=0.0, gamma2=0.0, mu=0.0)
        g = grad_u(ONE_CELL, ONES_1x1, _pair(0.0, 1.0), cfg)
        np.testing.assert_array_equal(g.data, [[-2.0]])

    @pytest.mark.parametrize("mu,shape", [(0.0, (5, 7, 2)), (0.2, (8, 12, 3)), (1.0, (5, 7, 2))])
    def test_matches_finite_differences(self, mu, shape):
        rng = np.random.default_rng(int(mu * 10) + 7)
        n, m, d = shape
        x, masks, factors, cfg = _random_instance(rng, n, m, d, mu)
        gu = grad_u(x, masks, factors, cfg).data
        gv = grad_v(x, masks, factors, cfg).data
        fu, fv = _fd_grads(x, masks, factors, cfg)
        for got, want in ((gu, fu), (gv, fv)):
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            assert rel < 1e-4, f"gradient off by relative {rel:.2e} at mu={mu}"


def _reference_plain_wmf(x, w, cfg):
    """Independent reimplementation of the trainer with no consistency term.

    Mirrors the published update order (U step, then V step against the new
    U) and the seeded uniform initialization, but the attenuation term simply
    does not exist here, rather than being multiplied by zero.
    """
    rng = np.random.default_rng(cfg.seed)
    high = 1.0 / math.sqrt(cfg.d)
    u = rng.uniform(0.0, high, size=(x.shape[0], cfg.d))
    v = rng.uniform(0.0, high, size=(x.shape[1], cfg.d))
    xa = x.to_array()
    lr = cfg.learning_rate

    def loss(u_arr, v_arr):
        r = w * (xa - u_arr @ v_arr.T)
        total = float(np.sum(r * r))
        total += cfg.gamma1 * float(np.sum(u_arr * u_arr))
        total += cfg.gamma2 * float(np.sum(v_arr * v_arr))
        return total

    objs = []
    for _ in range(cfg.max_iters):
        r = w * (xa - u @ v.T)
        u = np.maximum(0.0, u - lr * (-2.0 * (r @ v) + 2.0 * cfg.gamma1 * u))
        r = w * (xa - u @ v.T)
        v = np.maximum(0.0, v - lr * (-2.0 * (r.T @ u) + 2.0 * cfg.gamma2 * v))
        objs.append(loss(u, v))
    return u, v, objs


class TestTrain:
    @pytest.mark.parametrize("mu", [0.0, 0.2])
    def test_peak_memory_is_a_few_factor_sizes(self, mu):
        # With X two columns wide, U-sized arrays dominate.  A step taken in place holds
        # U, X V and the gradient, about 3.25x U; a step built from temporaries held two
        # more N x d arrays at once and peaked near 4.4x U.
        n, d = 40_000, 16
        cols = np.random.default_rng(0).integers(0, 2, n)
        x = SparseBinaryMatrix(n, 12, np.column_stack((np.arange(n), cols)))
        cfg = TrainConfig(d=d, mu=mu, max_iters=2, rel_tol=1e-30)
        tracemalloc.start()
        try:
            train(x, HeldOutSet.of(()), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * (8 * n * d)

    def test_rank_one_fit_reaches_target(self):
        cfg = TrainConfig(
            d=1, gamma1=0.0, gamma2=0.0, mu=0.0,
            learning_rate=0.05, max_iters=200, rel_tol=1e-12, seed=0,
        )
        factors, trace = train(ONE_CELL, ONES_1x1, cfg)
        assert abs(predict(factors)[0, 0] - 1.0) < 1e-2
        assert trace.converged

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(8)
        x, _, _, _ = _random_instance(rng, 6, 9, 2, mu=0.2)
        masks = build_masks(x, HeldOutSet.of([]))
        cfg = TrainConfig(d=3, max_iters=40, seed=4)
        fa, ta = train(x, masks, cfg)
        fb, tb = train(x, masks, cfg)
        assert np.array_equal(fa.u.data, fb.u.data)
        assert np.array_equal(fa.v.data, fb.v.data)
        assert ta == tb

    def test_descent_on_synthetic_matrix(self):
        records = generate_synthetic(SynthConfig(n_users=50, n_bins=100, seed=13))
        x = bin_records(records, "h0", m=100)
        masks = build_masks(x, HeldOutSet.of([]))
        cfg = TrainConfig(learning_rate=1e-3, max_iters=200, rel_tol=1e-30, seed=5)
        _, trace = train(x, masks, cfg)
        seq = [trace.initial_objective, *trace.objective_per_iter]
        assert len(seq) == 201
        assert all(b <= a for a, b in zip(seq, seq[1:])), "objective increased"

    def test_mu_zero_equals_reference_without_the_term(self):
        # Dual route: mu=0 must behave exactly as if the consistency term
        # had been deleted from the code, not just scaled to nothing.
        rng = np.random.default_rng(14)
        x, _, _, _ = _random_instance(rng, 7, 10, 2, mu=0.0)
        held = HeldOutSet.of(list(x.entries)[:2])
        x_train = SparseBinaryMatrix(x.rows, x.cols, x.entries - held.cells)
        masks = build_masks(x_train, held)
        cfg = TrainConfig(d=2, mu=0.0, max_iters=60, rel_tol=1e-30, seed=3)
        factors, trace = train(x_train, masks, cfg)
        ref_u, ref_v, ref_objs = _reference_plain_wmf(x_train, masks.w.data, cfg)
        assert np.array_equal(factors.u.data, ref_u)
        assert np.array_equal(factors.v.data, ref_v)
        assert list(trace.objective_per_iter) == ref_objs

    def test_mu_positive_equals_replay_of_public_kernels(self):
        # The trainer's half-steps must see the same U V^T as the public
        # kernels: the V step the product with the updated U, the objective
        # the product with both updated factors.
        rng = np.random.default_rng(15)
        x, masks, _, _ = _random_instance(rng, 7, 10, 2, mu=0.2)
        cfg = TrainConfig(d=2, mu=0.2, learning_rate=0.01, max_iters=20, rel_tol=1e-30, seed=6)
        factors, trace = train(x, masks, cfg)

        init = np.random.default_rng(cfg.seed)
        high = 1.0 / math.sqrt(cfg.d)
        u = init.uniform(0.0, high, size=(x.rows, cfg.d))
        v = init.uniform(0.0, high, size=(x.cols, cfg.d))

        def at(u_arr, v_arr):
            return x, masks, FactorPair(u=DenseMatrix(u_arr), v=DenseMatrix(v_arr)), cfg

        assert trace.initial_objective == objective(*at(u, v))
        objs = []
        for _ in range(cfg.max_iters):
            u = np.maximum(0.0, u - cfg.learning_rate * grad_u(*at(u, v)).data)
            v = np.maximum(0.0, v - cfg.learning_rate * grad_v(*at(u, v)).data)
            objs.append(objective(*at(u, v)))
        assert np.array_equal(factors.u.data, u)
        assert np.array_equal(factors.v.data, v)
        assert list(trace.objective_per_iter) == objs

    def test_factors_stay_nonnegative(self):
        rng = np.random.default_rng(9)
        x, _, _, _ = _random_instance(rng, 8, 6, 2, mu=0.2)
        masks = build_masks(x, HeldOutSet.of([]))
        factors, _ = train(x, masks, TrainConfig(d=4, max_iters=50, seed=1))
        assert np.all(factors.u.data >= 0.0)
        assert np.all(factors.v.data >= 0.0)

    def test_trace_shape_and_cap(self):
        rng = np.random.default_rng(10)
        x, _, _, _ = _random_instance(rng, 5, 5, 2, mu=0.2)
        masks = build_masks(x, HeldOutSet.of([]))
        _, trace = train(x, masks, TrainConfig(d=2, max_iters=25, rel_tol=1e-30, seed=2))
        assert trace.iterations_run == len(trace.objective_per_iter) == 25
        assert not trace.converged
        assert math.isfinite(trace.initial_objective)

    def test_divergence_raises_with_iteration(self):
        x = SparseBinaryMatrix(4, 4, {(i, j) for i in range(4) for j in range(4)})
        masks = build_masks(x, HeldOutSet.of([]))
        cfg = TrainConfig(d=2, learning_rate=1e160, max_iters=50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy overflow chatter
            with pytest.raises(FloatingPointError, match="iteration"):
                train(x, masks, cfg)

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            train(SparseBinaryMatrix(2, 3, []), ONES_1x1, TrainConfig(d=1))


def _split_instance(rng, n, m, density, held_share, window=None):
    """(x_train, held): random positives with a share of them held out.

    ``window`` (lo, hi) keeps every positive in columns lo..hi-1.
    """
    lo, hi = window if window is not None else (0, m)
    cells = np.argwhere(rng.random((n, hi - lo)) < density) + (0, lo)
    held = rng.random(len(cells)) < held_share
    return SparseBinaryMatrix(n, m, cells[~held]), HeldOutSet.of(cells[held])


class TestStructuredTrain:
    """``train`` on a HeldOutSet against the dense reference route."""

    @pytest.mark.parametrize(
        "mu, window", [(0.0, None), (0.2, None), (0.2, (6, 19))], ids=["0.0", "0.2", "0.2-window"]
    )
    def test_matches_dense_route(self, mu, window):
        x_train, held = _split_instance(np.random.default_rng(21), 40, 30, 0.2, 0.3, window)
        # The structured fit reorders rows by onset, so a missing un-permute shows.
        onset = _onsets(x_train)
        assert np.any(onset[1:] < onset[:-1])
        cfg = TrainConfig(d=3, mu=mu, learning_rate=0.005, max_iters=150, rel_tol=1e-30, seed=5)
        fd, td = train(x_train, build_masks(x_train, held), cfg)
        fs, ts = train(x_train, held, cfg)
        assert ts.iterations_run == td.iterations_run == 150
        np.testing.assert_allclose(ts.initial_objective, td.initial_objective, rtol=1e-10)
        np.testing.assert_allclose(ts.objective_per_iter, td.objective_per_iter, rtol=1e-10)
        for got, want in ((fs.u.data, fd.u.data), (fs.v.data, fd.v.data)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_divergence_raises_with_iteration(self):
        x = SparseBinaryMatrix(4, 4, {(i, j) for i in range(4) for j in range(4)})
        cfg = TrainConfig(d=2, learning_rate=1e160, max_iters=50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy overflow chatter
            with pytest.raises(FloatingPointError, match="iteration"):
                train(x, HeldOutSet.of([(0, 0)]), cfg)

    def test_mask_shape_mismatch_rejected(self):
        # A held-out set fits the matrix when every cell lies inside it.
        with pytest.raises(ValueError, match=r"held-out cell \(0, 2\) out of range for shape \(2, 2\)"):
            train(SparseBinaryMatrix(2, 2, []), HeldOutSet.of([(0, 2)]), TrainConfig(d=1))

    def test_fits_leave_the_callers_matrix_alone(self):
        # Each fit writes U V^T onto the held-out cells of its own dense X only.
        x_train, held = _split_instance(np.random.default_rng(23), 300, 48, 0.15, 0.3)
        row, col = x_train.row.copy(), x_train.col.copy()
        cfg = TrainConfig(d=6, mu=0.2, max_iters=10, rel_tol=1e-30, seed=4)
        factors, trace = train(x_train, held, cfg)
        again, again_trace = train(x_train, held, cfg)
        assert trace.iterations_run == 10
        assert trace == again_trace
        assert np.array_equal(factors.u.data, again.u.data)
        assert np.array_equal(factors.v.data, again.v.data)
        assert np.array_equal(x_train.row, row) and np.array_equal(x_train.col, col)

    def test_peak_memory_beyond_the_masks_x(self):
        # No N x M array but the one dense X that train builds.
        n, m = 2000, 100
        x_train, held = _split_instance(np.random.default_rng(22), n, m, 0.1, 0.3)
        cfg = TrainConfig(d=5, mu=0.2, max_iters=5, rel_tol=1e-30)
        tracemalloc.start()
        try:
            train(x_train, held, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        x_bytes = n * m * 8
        assert (peak - x_bytes) / x_bytes <= 1.5

    def test_peak_memory_of_the_held_out_write(self):
        # |H| d is several times N M, so whole |H| x d gathers of U and V
        # would outweigh X.  p on H is computed in blocks, so the peak is X
        # plus a few N x d arrays; the |H|-long index vectors weigh two here.
        n, m, d = 4000, 20, 20
        x_train, held = _split_instance(np.random.default_rng(24), n, m, 0.6, 0.8)
        assert len(held) * d > 8 * n * m
        cfg = TrainConfig(d=d, mu=0.2, max_iters=3, rel_tol=1e-30)
        tracemalloc.start()
        try:
            train(x_train, held, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * m + 8 * n * d)


    def test_peak_memory_of_an_occupied_column_window(self):
        # The positives fill columns 30..39 of 400, so X spans w = 10 columns;
        # a full-width X alone would weigh 8 N M, five times the bound.
        n, m, d, w = 4000, 400, 5, 10
        x_train, held = _split_instance(np.random.default_rng(25), n, m, 0.3, 0.3, (30, 30 + w))
        cfg = TrainConfig(d=d, mu=0.2, max_iters=3, rel_tol=1e-30)
        tracemalloc.start()
        try:
            train(x_train, held, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * w + 8 * n * d)


class TestPredict:
    def test_delegates_to_low_rank_product(self):
        u = DenseMatrix([[1.0, 0.0]])
        v = DenseMatrix([[0.5, 0.0], [0.0, 1.0]])
        got = predict(FactorPair(u=u, v=v))
        assert got == low_rank_product(u, v)

    def test_zero_factors_give_zero_scores(self):
        factors = FactorPair(u=DenseMatrix(np.zeros((3, 2))), v=DenseMatrix(np.zeros((4, 2))))
        assert predict(factors) == DenseMatrix(np.zeros((3, 4)))
