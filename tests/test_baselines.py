"""Tests for the Markov, Random, and autoregressive comparison predictors."""

import numpy as np
import pytest

from hcwmf import (
    ArModel,
    DenseMatrix,
    SparseBinaryMatrix,
    TransitionModel,
    fit_ar,
    fit_markov,
    predict_ar,
    predict_markov,
    random_predict,
    rmse,
)


def _from_rows(rows):
    cells = {(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return SparseBinaryMatrix(len(rows), len(rows[0]), cells)


class TestTransitionModel:
    def test_rejects_non_2x2(self):
        with pytest.raises(ValueError, match="2x2"):
            TransitionModel(DenseMatrix(np.ones((3, 3))))

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            TransitionModel(DenseMatrix([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_non_stochastic_rows(self):
        # Published transition tables are sometimes printed with rows that do
        # not sum to 1; those are invalid here and must be rejected.
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionModel(DenseMatrix([[0.78, 0.01], [0.87, 0.01]]))

    def test_accepts_stochastic_matrix(self):
        TransitionModel(DenseMatrix([[0.75, 0.25], [1.0, 0.0]]))


class TestFitMarkov:
    def test_hand_counted_transitions(self):
        # Row 1 pairs: (0,0) (0,1) (1,0); row 2 pairs: (1,0) (0,0) (0,0).
        # From 0: three stays, one move. From 1: two drops.
        model = fit_markov(_from_rows([[0, 0, 1, 0], [1, 0, 0, 0]]))
        assert predict_markov(model, 0) == 0.25
        assert predict_markov(model, 1) == 0.0
        assert model.t[0, 0] == 0.75
        assert model.t[1, 0] == 1.0

    def test_all_zero_matrix_collapses_to_state_zero(self):
        model = fit_markov(SparseBinaryMatrix(3, 4, []))
        np.testing.assert_array_equal(model.t.data, [[1.0, 0.0], [1.0, 0.0]])

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="at least 2 columns"):
            fit_markov(SparseBinaryMatrix(3, 1, [(0, 0)]))

    def test_counts_pool_across_rows(self):
        rng = np.random.default_rng(6)
        rows = (rng.random((6, 9)) < 0.4).astype(int).tolist()
        base = fit_markov(_from_rows(rows))
        shuffled = fit_markov(_from_rows([rows[i] for i in (3, 0, 5, 1, 4, 2)]))
        assert base.t == shuffled.t

    def test_matches_independent_pair_count(self):
        # Dual route: recount transitions with plain Python loops.
        rng = np.random.default_rng(7)
        for trial in range(10):
            rows = (rng.random((5, 8)) < 0.35).astype(int)
            counts = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
            for row in rows:
                for a, b in zip(row, row[1:]):
                    counts[(a, b)] += 1
            model = fit_markov(_from_rows(rows.tolist()))
            for state in (0, 1):
                total = counts[(state, 0)] + counts[(state, 1)]
                want = counts[(state, 1)] / total if total else 0.0
                assert model.t[state, 1] == pytest.approx(want, abs=1e-12), (
                    f"trial {trial} state {state}"
                )

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rows = (rng.random((4, 7)) < 0.5).astype(int).tolist()
            model = fit_markov(_from_rows(rows))
            np.testing.assert_allclose(model.t.data.sum(axis=1), 1.0, atol=1e-12)

    def test_sparse_matrix_scores_badly_on_positives(self):
        # At ~1% density the chain predicts near-zero everywhere, so RMSE
        # against held-out positives sits near 1.
        rng = np.random.default_rng(4)
        cells = {
            (int(r), int(c))
            for r, c in zip(rng.integers(0, 200, 120), rng.integers(0, 50, 120))
        }
        x = SparseBinaryMatrix(200, 50, cells)
        model = fit_markov(x)
        arr = x.to_array()
        test_cells = sorted(cells)[:50]
        preds = [
            predict_markov(model, 0 if j == 0 else int(arr[i, j - 1]))
            for i, j in test_cells
        ]
        assert rmse(preds, np.ones(len(preds))) >= 0.95


class TestPredictMarkov:
    def test_table_lookup(self):
        model = TransitionModel(DenseMatrix([[0.75, 0.25], [0.4, 0.6]]))
        assert predict_markov(model, 0) == 0.25
        assert predict_markov(model, 1) == 0.6

    def test_deterministic_state(self):
        model = TransitionModel(DenseMatrix([[1.0, 0.0], [0.0, 1.0]]))
        assert predict_markov(model, 1) == 1.0

    def test_rejects_other_states(self):
        model = TransitionModel(DenseMatrix([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="0 or 1"):
            predict_markov(model, 2)


class TestRandomPredict:
    def test_seeded_determinism(self):
        np.testing.assert_array_equal(random_predict(100, 5), random_predict(100, 5))

    def test_values_are_binary_floats(self):
        preds = random_predict(500, 1)
        assert preds.dtype == float
        assert set(np.unique(preds)) <= {0.0, 1.0}

    def test_fair_coin_concentration(self):
        preds = random_predict(10_000, 2)
        assert abs(preds.mean() - 0.5) < 0.02

    def test_rmse_against_all_true(self):
        preds = random_predict(10_000, 3)
        assert abs(rmse(preds, np.ones(10_000)) - 0.7071) < 0.02

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_predict(0, 0)


class TestFitAr:
    def test_constant_series_fixed_point(self):
        model = fit_ar([3.0, 3.0, 3.0, 3.0], p=1)
        assert model.intercept == 3.0
        assert model.coefficients == (0.0,)
        assert predict_ar(model, [3.0, 3.0, 3.0]) == 3.0

    def test_recovers_noiseless_geometric_decay(self):
        series = [0.5**k for k in range(10)]
        model = fit_ar(series, p=1)
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_recovers_noiseless_second_order_recurrence(self):
        # t^2 satisfies x_t = 2 x_{t-1} - x_{t-2} + 2 exactly.
        model = fit_ar([float(t * t) for t in range(12)], p=2)
        assert model.intercept == pytest.approx(2.0, abs=1e-9)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert model.coefficients[1] == pytest.approx(-1.0, abs=1e-9)

    def test_collinear_design_falls_back_to_mean(self):
        # A linear ramp makes lag-1 and lag-2 columns differ by a constant,
        # which the intercept absorbs; the fit degrades to the target mean.
        model = fit_ar([float(t) for t in range(2, 10)], p=2)
        assert model.coefficients == (0.0, 0.0)
        assert model.intercept == pytest.approx(6.5, abs=1e-12)

    def test_white_noise_has_no_structure(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(200)
        model = fit_ar(series, p=2)
        errs = [(predict_ar(model, series[:t]) - series[t]) ** 2 for t in range(2, 200)]
        assert np.mean(errs) > 0.5 * np.var(series)

    def test_rejects_short_series_and_bad_order(self):
        with pytest.raises(ValueError, match="cannot fit"):
            fit_ar([1.0, 2.0], p=2)
        with pytest.raises(ValueError, match=">= 1"):
            fit_ar([1.0, 2.0, 3.0], p=0)
        with pytest.raises(ValueError, match="one-dimensional"):
            fit_ar([[1.0, 2.0]], p=1)


class TestPredictAr:
    MODEL = ArModel(order=2, intercept=0.25, coefficients=(0.5, 0.25))

    def test_uses_trailing_values(self):
        # 0.25 + 0.5 * 4 + 0.25 * 2, ignoring everything before the lags.
        assert predict_ar(self.MODEL, [9.0, 9.0, 2.0, 4.0]) == pytest.approx(2.75)

    def test_short_history_left_padded_with_zeros(self):
        assert predict_ar(self.MODEL, [2.0]) == pytest.approx(0.25 + 0.5 * 2.0)
        assert predict_ar(self.MODEL, []) == pytest.approx(0.25)

    def test_rejects_non_1d_history(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            predict_ar(self.MODEL, [[1.0]])


class TestArModel:
    def test_rejects_order_coefficient_mismatch(self):
        with pytest.raises(ValueError, match="coefficients"):
            ArModel(order=2, intercept=0.0, coefficients=(0.5,))

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ValueError, match="finite"):
            ArModel(order=1, intercept=float("nan"), coefficients=(0.5,))
        with pytest.raises(ValueError, match="finite"):
            ArModel(order=1, intercept=0.0, coefficients=(float("inf"),))
        with pytest.raises(ValueError, match="finite"):
            ArModel(order=2, intercept=float("-inf"), coefficients=(0.5, 0.5))

    def test_rejects_non_positive_order(self):
        with pytest.raises(ValueError, match=">= 1"):
            ArModel(order=0, intercept=0.0, coefficients=())
