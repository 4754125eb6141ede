"""Tests for the dense/sparse matrix primitives."""

import numpy as np
import pytest

from hcwmf import (
    DenseMatrix,
    SparseBinaryMatrix,
    low_rank_product,
)


class TestDenseMatrix:
    def test_wraps_nested_lists(self):
        m = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)
        assert m.rows == 2 and m.cols == 2
        assert m[1, 0] == 3.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseMatrix([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="2-D"):
            DenseMatrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                DenseMatrix([[1.0, bad]])

    def test_storage_is_immutable(self):
        m = DenseMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 9.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        m = DenseMatrix(src)
        src[0, 0] = 5.0
        assert m[0, 0] == 1.0

    def test_equality(self):
        a = DenseMatrix([[1.0, 2.0]])
        b = DenseMatrix([[1.0, 2.0]])
        c = DenseMatrix([[1.0, 3.0]])
        assert a == b
        assert a != c
        assert a != DenseMatrix([[1.0], [2.0]])
        assert a != "not a matrix"


class TestSparseBinaryMatrix:
    def test_entries_are_a_set(self):
        m = SparseBinaryMatrix(2, 3, [(0, 1), (0, 1), (1, 2)])
        assert m.nnz == 2
        assert m.entries == {(0, 1), (1, 2)}

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseBinaryMatrix(2, 2, [(2, 0)])
        with pytest.raises(ValueError, match="out of range"):
            SparseBinaryMatrix(2, 2, [(0, -1)])

    def test_rejects_negative_shape(self):
        with pytest.raises(ValueError, match="negative shape"):
            SparseBinaryMatrix(-1, 2, [])

    def test_to_array_places_ones(self):
        m = SparseBinaryMatrix(2, 3, [(0, 2), (1, 0)])
        expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(m.to_array(), expected)

    def test_equality_by_shape_and_entries(self):
        a = SparseBinaryMatrix(2, 2, [(0, 0)])
        assert a == SparseBinaryMatrix(2, 2, [(0, 0)])
        assert a != SparseBinaryMatrix(2, 2, [(1, 1)])
        assert a != SparseBinaryMatrix(3, 2, [(0, 0)])


class TestLowRankProduct:
    def test_unit_vector_pick(self):
        u = DenseMatrix([[1.0, 0.0]])
        v = DenseMatrix([[0.5, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            low_rank_product(u, v).data, np.array([[0.5, 0.0]])
        )

    def test_zero_factor_gives_zero(self):
        u = DenseMatrix(np.zeros((3, 2)))
        v = DenseMatrix(np.ones((4, 2)))
        assert low_rank_product(u, v) == DenseMatrix(np.zeros((3, 4)))

    def test_rank_one_outer_product(self):
        u = DenseMatrix([[1.0], [2.0]])
        v = DenseMatrix([[3.0], [4.0]])
        expected = np.array([[3.0, 4.0], [6.0, 8.0]])
        np.testing.assert_array_equal(low_rank_product(u, v).data, expected)

    def test_inner_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dimension"):
            low_rank_product(DenseMatrix(np.ones((2, 3))), DenseMatrix(np.ones((2, 4))))

    def test_matches_numpy_matmul(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m, d = rng.integers(1, 9, size=3)
            ua = rng.normal(size=(n, d))
            va = rng.normal(size=(m, d))
            got = low_rank_product(DenseMatrix(ua), DenseMatrix(va)).data
            np.testing.assert_allclose(got, ua @ va.T, atol=1e-12)
