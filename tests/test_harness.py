"""Tests for the split/score harness and the method sweep."""

import math

import numpy as np
import pytest

import hcwmf.harness as harness
from hcwmf import (
    METHODS,
    HeldOutSet,
    ResultRow,
    ResultsTable,
    SparseBinaryMatrix,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    bin_records,
    build_masks,
    generate_synthetic,
    predict,
    rmse,
    run_sweep,
    split_mask,
    train,
)


def _random_matrix(rng, n, m, n_draws):
    cells = {
        (int(r), int(c))
        for r, c in zip(rng.integers(0, n, n_draws), rng.integers(0, m, n_draws))
    }
    return SparseBinaryMatrix(n, m, cells)


def _consistent_corpus_matrix():
    """Short dense trending window with positives two bins apart.

    Generated at 7200 s spacing and binned at 3600 s, so no two positives are
    ever column-adjacent and a first-order chain sees no 1 -> 1 transitions.
    """
    cfg = SynthConfig(
        n_users=500, n_bins=14, trend_decay=0.98,
        repeat_prob=0.5, repeat_decay=0.0, seed=11,
    )
    records = generate_synthetic(cfg, bin_seconds=7200)
    return bin_records(records, "h0", bin_seconds=3600, m=168)


class TestSplitSpec:
    def test_fraction_bounds(self):
        SplitSpec(fraction=50.0)
        for bad in (0.0, 100.0, -3.0, 120.0):
            with pytest.raises(ValueError, match="fraction"):
                SplitSpec(fraction=bad)


class TestSplitMask:
    def test_half_of_four_positives(self):
        x = SparseBinaryMatrix(2, 4, [(0, 0), (0, 2), (1, 1), (1, 3)])
        x_train, held = split_mask(x, SplitSpec(fraction=50.0, seed=0))
        assert len(held) == 2
        assert x_train.nnz == 2

    def test_half_up_rounding(self):
        rng = np.random.default_rng(40)
        x = _random_matrix(rng, 120, 60, 6000)
        for fraction in (10.0, 25.0, 33.0):
            _, held = split_mask(x, SplitSpec(fraction=fraction, seed=1))
            assert len(held) == int(math.floor(fraction / 100.0 * x.nnz + 0.5))

    def test_at_least_one_cell_held_out(self):
        x = SparseBinaryMatrix(3, 3, [(1, 1)])
        _, held = split_mask(x, SplitSpec(fraction=10.0, seed=2))
        assert len(held) == 1

    def test_seeded_determinism(self):
        rng = np.random.default_rng(41)
        x = _random_matrix(rng, 30, 30, 200)
        spec = SplitSpec(fraction=30.0, seed=7)
        _, held_a = split_mask(x, spec)
        _, held_b = split_mask(x, spec)
        assert held_a.cells == held_b.cells

    def test_partition_invariant(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            x = _random_matrix(rng, 20, 25, 150)
            fraction = float(rng.uniform(5, 95))
            x_train, held = split_mask(x, SplitSpec(fraction=fraction, seed=trial))
            assert held.cells <= x.entries, "held-out cells must be positives"
            assert x_train.entries | held.cells == x.entries
            assert not x_train.entries & held.cells

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="no positive"):
            split_mask(SparseBinaryMatrix(3, 3, []), SplitSpec(fraction=50.0))


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1.0, 0.0, 1.0], [1.0, 0.0, 1.0]) == 0.0

    def test_unit_error(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert rmse([0.5, 1.0], [1.0, 1.0]) == pytest.approx(math.sqrt(0.125))

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="equal-length"):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])


class TestResultsTable:
    def test_row_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            ResultRow("d", "wmf", 10.0, 5, rmse=-0.5)

    def test_csv_round_trip(self, tmp_path):
        table = ResultsTable(
            rows=(
                ResultRow("synthetic", "hcwmf", 10.0, 10, rmse=0.12345678901234567),
                ResultRow("synthetic", "markov", 10.0, 10, rmse=None,
                          error="ValueError: need at least 2 columns"),
                ResultRow("tag, with comma", "random", 33.0, 5, rmse=0.5),
            )
        )
        path = tmp_path / "results.csv"
        table.to_csv(path)
        assert ResultsTable.from_csv(path) == table

    def test_csv_layout(self, tmp_path):
        table = ResultsTable(rows=(ResultRow("ds", "wmf", 20.0, 10, rmse=0.5),))
        path = tmp_path / "results.csv"
        table.to_csv(path)
        raw = path.read_bytes()
        assert raw.startswith(b"dataset,method,fraction,d,rmse,error\n")
        assert b"\r" not in raw
        assert b"ds,wmf,20.0,10,0.5,\n" in raw

    def test_from_csv_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            ResultsTable.from_csv(path)


class TestRunSweep:
    def test_known_method_names(self):
        assert METHODS == ("hcwmf", "wmf", "markov", "ar", "random")
        x = SparseBinaryMatrix(2, 4, [(0, 0), (1, 2)])
        with pytest.raises(ValueError, match="unknown method"):
            run_sweep(x, ["gradient-boost"], [10.0], [2])
        with pytest.raises(ValueError, match="no methods"):
            run_sweep(x, [], [10.0], [2])

    def test_row_grid_and_order(self):
        rng = np.random.default_rng(50)
        x = _random_matrix(rng, 15, 12, 60)
        cfg = TrainConfig(max_iters=5, seed=1)
        table = run_sweep(x, ["random", "markov", "random"], [30.0, 10.0], [3, 2], cfg)
        # dedup keeps first occurrence; fractions and dims are sorted
        assert [r.method for r in table.rows[:2]] == ["random", "markov"]
        assert len(table.rows) == 2 * 2 * 2
        assert [(r.fraction, r.d) for r in table.rows[::2]] == [
            (10.0, 2), (10.0, 3), (30.0, 2), (30.0, 3),
        ]

    def test_split_is_shared_across_dims(self):
        # Markov ignores d, so equal RMSE across d proves the held-out cells
        # did not change when d moved.
        rng = np.random.default_rng(51)
        x = _random_matrix(rng, 25, 18, 140)
        table = run_sweep(x, ["markov"], [20.0], [2, 5, 9], TrainConfig(max_iters=5))
        values = [r.rmse for r in table.rows]
        assert len(values) == 3
        assert len(set(values)) == 1

    def test_baselines_fitted_once_per_split(self, monkeypatch):
        # markov and ar ignore d, so a second d must reuse their predictions
        # instead of fitting them again.
        calls = {"fit_ar": 0, "fit_markov": 0}
        for name in calls:

            def counting(*args, _fit=getattr(harness, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fit(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        x = _random_matrix(np.random.default_rng(54), 25, 18, 140)
        cfg = TrainConfig(max_iters=5)
        one = run_sweep(x, ["markov", "ar"], [20.0, 40.0], [2], cfg)
        one_d = dict(calls)
        two = run_sweep(x, ["markov", "ar"], [20.0, 40.0], [2, 3], cfg)
        assert one_d["fit_ar"] > 0 and one_d["fit_markov"] == 2
        assert {k: calls[k] - one_d[k] for k in calls} == one_d
        score = {(r.method, r.fraction, r.d): r.rmse for r in two.rows}
        for r in one.rows:
            assert r.rmse is not None
            assert score[(r.method, r.fraction, 2)] == score[(r.method, r.fraction, 3)] == r.rmse

    def test_dense_x_is_built_only_for_methods_that_read_it(self, monkeypatch):
        # markov and random never read the dense training matrix; the ar
        # baseline reads it once per split.
        shapes = []

        def counting(self, _to_array=SparseBinaryMatrix.to_array):
            shapes.append(self.shape)
            return _to_array(self)

        monkeypatch.setattr(SparseBinaryMatrix, "to_array", counting)
        x = _random_matrix(np.random.default_rng(56), 25, 18, 140)
        cfg = TrainConfig(max_iters=5)
        run_sweep(x, ["markov", "random"], [20.0, 40.0], [2, 3], cfg)
        assert shapes == []
        run_sweep(x, ["markov", "random", "ar"], [20.0, 40.0], [2, 3], cfg)
        assert shapes == [(25, 18)] * 2

    def test_factorizations_match_a_dense_route_replay(self, monkeypatch):
        # Each fit of the sweep, replayed on the dense masks and scored from
        # the full U V^T, gives the same RMSE to 1e-12.
        fits = []

        def recording(x_train, masks, cfg):
            fits.append((x_train, masks, cfg))
            return train(x_train, masks, cfg)

        monkeypatch.setattr(harness, "train", recording)
        x = _random_matrix(np.random.default_rng(55), 30, 20, 200)
        table = run_sweep(x, ["hcwmf", "wmf"], [20.0, 40.0], [2, 3], TrainConfig(max_iters=100, seed=4))
        assert len(fits) == len(table.rows) == 8
        for (x_train, held, cfg), row in zip(fits, table.rows):
            assert isinstance(held, HeldOutSet)
            factors, _ = train(x_train, build_masks(x_train, held), cfg)
            want = rmse(predict(factors).data[held.row, held.col], np.ones(len(held)))
            assert row.rmse == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(52)
        x = _random_matrix(rng, 12, 10, 50)
        cfg = TrainConfig(max_iters=10, seed=9)
        a = run_sweep(x, ["hcwmf", "random"], [25.0], [2], cfg)
        b = run_sweep(x, ["hcwmf", "random"], [25.0], [2], cfg)
        assert a == b

    def test_failures_become_error_rows(self):
        # One column: the chain has no transitions and the AR design has no
        # usable lags, but the factorization and the coin still run.
        x = SparseBinaryMatrix(5, 1, [(0, 0), (2, 0), (4, 0)])
        cfg = TrainConfig(max_iters=5, seed=0)
        table = run_sweep(x, list(METHODS), [40.0], [2], cfg)
        by_method = {r.method: r for r in table.rows}
        assert by_method["markov"].rmse is None
        assert by_method["markov"].error.startswith("ValueError")
        assert by_method["ar"].rmse is None
        assert by_method["ar"].error.startswith("ValueError")
        for ok in ("hcwmf", "wmf", "random"):
            assert by_method[ok].error == ""
            assert by_method[ok].rmse is not None

    def test_numeric_failures_become_error_rows(self, monkeypatch):
        x = SparseBinaryMatrix(4, 6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        for exc in (np.linalg.LinAlgError, FloatingPointError):

            def failing_fit_ar(*args, exc=exc, **kwargs):
                raise exc("numeric failure")

            monkeypatch.setattr("hcwmf.harness.fit_ar", failing_fit_ar)
            (row,) = run_sweep(x, ["ar"], [50.0], [2]).rows
            assert row.rmse is None
            assert row.error == f"{exc.__name__}: numeric failure"

    def test_programming_errors_propagate(self, monkeypatch):
        # A TypeError is a bug, not a method failing on its data, so it must
        # abort the sweep instead of hiding in an error row.
        def broken_fit_ar(*args, **kwargs):
            raise TypeError("bug in the caller")

        monkeypatch.setattr("hcwmf.harness.fit_ar", broken_fit_ar)
        x = SparseBinaryMatrix(4, 6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(TypeError, match="bug in the caller"):
            run_sweep(x, ["ar"], [50.0], [2])

    def test_clamp_bounds_scores(self):
        rng = np.random.default_rng(53)
        x = _random_matrix(rng, 20, 15, 90)
        cfg = TrainConfig(max_iters=20, seed=2)
        table = run_sweep(x, ["hcwmf", "wmf"], [30.0], [3], cfg, clamp=True)
        for row in table.rows:
            assert row.rmse is not None and row.rmse <= 1.0

    def test_clamp_clips_before_scoring(self, monkeypatch):
        scores = np.array([-0.5, 0.25, 1.75, 3.0])
        monkeypatch.setattr("hcwmf.harness.random_predict", lambda n_cells, seed: scores)
        x = SparseBinaryMatrix(4, 6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # 99% of four positives holds out all four.
        (clamped,) = run_sweep(x, ["random"], [99.0], [2], clamp=True).rows
        (raw,) = run_sweep(x, ["random"], [99.0], [2]).rows
        assert clamped.rmse == rmse(np.clip(scores, 0.0, 1.0), np.ones(4))
        assert raw.rmse == rmse(scores, np.ones(4))
        assert clamped.rmse != raw.rmse

    def test_dataset_label_is_recorded(self):
        x = SparseBinaryMatrix(2, 4, [(0, 0), (1, 2)])
        table = run_sweep(x, ["random"], [50.0], [2], dataset="mytag")
        assert all(r.dataset == "mytag" for r in table.rows)

    def test_invalid_fraction_propagates(self):
        x = SparseBinaryMatrix(2, 4, [(0, 0), (1, 2)])
        with pytest.raises(ValueError, match="fraction"):
            run_sweep(x, ["random"], [0.0], [2])


class TestMethodOrdering:
    def test_consistency_term_helps_on_trending_corpus(self):
        # The full model must beat its mu = 0 ablation, which must beat the
        # coin, on a corpus whose positives concentrate in a short window.
        x = _consistent_corpus_matrix()
        table = run_sweep(
            x, ["hcwmf", "wmf", "random"], [30.0], [10], TrainConfig(seed=2)
        )
        score = {r.method: r.rmse for r in table.rows}
        assert score["hcwmf"] < score["wmf"] < score["random"], score
