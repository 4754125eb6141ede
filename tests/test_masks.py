"""Tests for the indicator and attenuation masks."""

import numpy as np
import pytest

from hcwmf import (
    DenseMatrix,
    HeldOutSet,
    MaskPair,
    SparseBinaryMatrix,
    FactorPair,
    TrainConfig,
    build_attenuation,
    build_indicator,
    build_masks,
    objective,
    train,
)
from hcwmf.masks import _onsets


def _row_matrix(row):
    """1 x M sparse matrix from a 0/1 list."""
    cells = {(0, j) for j, v in enumerate(row) if v}
    return SparseBinaryMatrix(1, len(row), cells)


class TestHeldOutSet:
    def test_container_protocol(self):
        held = HeldOutSet.of([(0, 1), (2, 3), (0, 1)])
        assert len(held) == 2
        assert (0, 1) in held
        assert (9, 9) not in held
        assert set(held) == {(0, 1), (2, 3)}

    def test_coerces_indices_to_int(self):
        held = HeldOutSet.of([(np.int64(1), np.int64(2))])
        assert (1, 2) in held

    def test_repeated_cell_rejected(self):
        # Built directly with a repeated cell, the structured route used to
        # count it twice: objective 2.8 against 1.8 for the same single cell.
        x = SparseBinaryMatrix(2, 2, [(0, 0), (1, 1)])
        ones = FactorPair(u=DenseMatrix(np.ones((2, 1))), v=DenseMatrix(np.ones((2, 1))))
        cfg = TrainConfig(d=1)
        with pytest.raises(ValueError, match="distinct and in row-major order"):
            HeldOutSet(np.array([0, 0]), np.array([1, 1]))
        held = HeldOutSet.of([(0, 1), (0, 1)])
        assert objective(x, held, ones, cfg) == pytest.approx(1.8)
        assert objective(x, build_masks(x, held), ones, cfg) == pytest.approx(1.8)

    @pytest.mark.parametrize(
        "row, col",
        [
            (np.array([1, 0]), np.array([0, 0])),
            (np.array([0, 0]), np.array([2, 1])),
            (np.array([0]), np.array([0, 1])),
            (np.array([[0]]), np.array([[1]])),
            (np.array([0.0]), np.array([1.0])),
            ([0], [1]),
        ],
    )
    def test_only_canonical_coordinates_accepted(self, row, col):
        with pytest.raises(ValueError, match="held-out"):
            HeldOutSet(row, col)

    def test_canonical_arrays_accepted_directly(self):
        held = HeldOutSet(np.array([0, 0, 2]), np.array([1, 3, 0]))
        assert held == HeldOutSet.of([(2, 0), (0, 3), (0, 1)])
        assert len(HeldOutSet(np.array([], dtype=np.int64), np.array([], dtype=np.int64))) == 0


class TestBuildIndicator:
    def test_single_held_out_cell(self):
        w = build_indicator((2, 2), HeldOutSet.of([(0, 1)]))
        np.testing.assert_array_equal(w.data, [[1.0, 0.0], [1.0, 1.0]])

    def test_empty_held_out_is_all_ones(self):
        assert build_indicator((3, 4), HeldOutSet.of([])) == DenseMatrix(np.ones((3, 4)))

    def test_all_cells_held_out_is_all_zeros(self):
        every = [(r, c) for r in range(2) for c in range(3)]
        assert build_indicator((2, 3), HeldOutSet.of(every)) == DenseMatrix(np.zeros((2, 3)))

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_indicator((2, 2), HeldOutSet.of([(0, 2)]))

    def test_binary_values_only(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = rng.integers(1, 9, size=2)
            cells = {
                (int(r), int(c))
                for r, c in zip(rng.integers(0, n, 6), rng.integers(0, m, 6))
            }
            w = build_indicator((int(n), int(m)), HeldOutSet.of(cells))
            assert set(np.unique(w.data)) <= {0.0, 1.0}
            assert np.sum(w.data == 0.0) == len(cells)


class TestBuildAttenuation:
    def test_first_column_positive(self):
        g = build_attenuation(_row_matrix([1, 0, 0]))
        np.testing.assert_allclose(g.data[0], [1.0, 0.5, 0.0])

    def test_second_column_positive(self):
        g = build_attenuation(_row_matrix([0, 1, 0, 0, 0]))
        np.testing.assert_allclose(g.data[0], [0.0, 1.0, 2.0 / 3.0, 0.5, 0.0])

    def test_all_zero_row_stays_zero(self):
        g = build_attenuation(SparseBinaryMatrix(2, 4, [(0, 1)]))
        np.testing.assert_array_equal(g.data[1], np.zeros(4))

    def test_later_positives_do_not_restart_ramp(self):
        lone = build_attenuation(_row_matrix([1, 0, 0, 0]))
        repeated = build_attenuation(_row_matrix([1, 0, 1, 0]))
        np.testing.assert_array_equal(repeated.data, lone.data)

    def test_positive_at_last_column(self):
        g = build_attenuation(_row_matrix([0, 0, 1]))
        np.testing.assert_array_equal(g.data[0], [0.0, 0.0, 1.0])

    def test_row_invariants_on_random_rows(self):
        # zero prefix, exact 1 at the first positive, strictly decreasing
        # suffix that ends at exactly 0.
        rng = np.random.default_rng(17)
        for _ in range(300):
            m = int(rng.integers(2, 30))
            row = (rng.random(m) < 0.3).astype(int)
            g = build_attenuation(_row_matrix(row)).data[0]
            if not row.any():
                assert not g.any()
                continue
            j0 = int(np.argmax(row))
            assert not g[:j0].any(), "prefix before first positive must be zero"
            assert g[j0] == 1.0
            suffix = g[j0:]
            assert np.all(np.diff(suffix) < 0) or suffix.size == 1
            assert g[-1] == 0.0 if j0 < m - 1 else g[-1] == 1.0
            assert np.all((0.0 <= g) & (g <= 1.0))

    def test_rows_are_independent(self):
        a = build_attenuation(SparseBinaryMatrix(2, 5, [(0, 1), (1, 3)]))
        b = build_attenuation(SparseBinaryMatrix(2, 5, [(0, 1), (1, 0)]))
        np.testing.assert_array_equal(a.data[0], b.data[0])

    def test_onset_anchors_the_dense_ramp(self):
        # The structured loss anchors G at these onsets, M for a row with no positive.
        assert _onsets(SparseBinaryMatrix(3, 4, [(0, 2), (0, 3), (2, 0)])).tolist() == [2, 4, 0]
        rng = np.random.default_rng(19)
        x_train = SparseBinaryMatrix(30, 9, np.argwhere(rng.random((30, 9)) < 0.2))
        g = build_attenuation(x_train).data
        for row, k in zip(g, _onsets(x_train)):
            assert (row == 1.0).tolist() == [j == k for j in range(9)]
            assert k == 9 or row.any()


class TestMaskPair:
    @pytest.mark.parametrize("value", [0.5, -1.0, 2.0])
    def test_non_binary_indicator_rejected(self, value):
        # The dense gradient uses W in place of W*W, exact only for 0/1 weights.
        w = np.ones((2, 3))
        w[1, 2] = value
        with pytest.raises(ValueError, match="binary"):
            MaskPair(w=DenseMatrix(w), g=DenseMatrix(np.ones((2, 3))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask shape mismatch"):
            MaskPair(w=DenseMatrix(np.ones((2, 3))), g=DenseMatrix(np.ones((3, 2))))

    def test_build_masks_combines_both(self):
        x_train = SparseBinaryMatrix(2, 3, [(0, 0)])
        held = HeldOutSet.of([(1, 2)])
        masks = build_masks(x_train, held)
        assert masks.w[1, 2] == 0.0
        assert masks.w.data.sum() == 5.0
        np.testing.assert_allclose(masks.g.data[0], [1.0, 0.5, 0.0])
        np.testing.assert_array_equal(masks.g.data[1], np.zeros(3))

    def test_attenuation_sees_only_training_positives(self):
        # The held-out cell is removed from x_train before masks are built,
        # so it must not anchor the ramp.
        full = SparseBinaryMatrix(1, 4, [(0, 0), (0, 2)])
        held = HeldOutSet.of([(0, 0)])
        x_train = SparseBinaryMatrix(1, 4, full.entries - held.cells)
        masks = build_masks(x_train, held)
        assert masks.g[0, 0] == 0.0
        assert masks.g[0, 2] == 1.0


class TestStructuredMasks:
    """A HeldOutSet given to ``train`` stands in for both masks."""

    def test_out_of_range_cell_rejected(self):
        for cell in [(0, 2), (2, 0), (-1, 0)]:
            with pytest.raises(ValueError, match="held-out cell .* out of range"):
                train(SparseBinaryMatrix(2, 2, []), HeldOutSet.of([cell]), TrainConfig(d=1))
