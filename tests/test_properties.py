"""Property tests pinning the coordinate-array storage to tuple-set semantics.

Sparse matrices and held-out sets store their cells as sorted int64
coordinate arrays.  Each property checks one consumer of those arrays against
a plain-Python oracle over sets of (row, col) tuples.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hcwmf import (
    HeldOutSet,
    SparseBinaryMatrix,
    SplitSpec,
    build_attenuation,
    load_matrix_csv,
    save_matrix_csv,
    split_mask,
)


@st.composite
def cell_lists(draw, min_size=0):
    """(n, m, cells) with n, m <= 12 and cells that often repeat."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    cells = draw(st.lists(cell, min_size=min_size, max_size=40))
    if cells:
        cells += draw(st.lists(st.sampled_from(cells), max_size=10))
    return n, m, draw(st.permutations(cells))


@settings(deadline=None)
@given(cell_lists())
def test_storage_matches_set_oracle(case):
    n, m, cells = case
    oracle = set(cells)
    x = SparseBinaryMatrix(n, m, cells)
    assert x.entries == oracle
    assert x.nnz == len(oracle)
    assert list(zip(x.row.tolist(), x.col.tolist())) == sorted(oracle)
    assert not x.row.flags.writeable and not x.col.flags.writeable
    assert SparseBinaryMatrix(n, m, np.array(cells, dtype=np.int64).reshape(-1, 2)) == x
    held = HeldOutSet.of(cells)
    assert held.cells == oracle
    assert list(held) == sorted(oracle)
    assert held == HeldOutSet.of(sorted(oracle))


@settings(deadline=None)
@given(cell_lists())
def test_to_array_matches_loop_oracle(case):
    n, m, cells = case
    oracle = np.zeros((n, m))
    for r, c in cells:
        oracle[r, c] = 1.0
    np.testing.assert_array_equal(SparseBinaryMatrix(n, m, cells).to_array(), oracle)


@settings(deadline=None)
@given(
    cell_lists(min_size=1),
    st.floats(min_value=0.1, max_value=99.9),
    st.integers(0, 2**32 - 1),
)
def test_split_mask_picks_the_sorted_cells(case, fraction, seed):
    n, m, cells = case
    positives = sorted(set(cells))
    n_held = max(1, int(math.floor(fraction / 100.0 * len(positives) + 0.5)))
    picked = np.random.default_rng(seed).choice(len(positives), size=n_held, replace=False)
    expected = {positives[k] for k in picked}
    x_train, held = split_mask(SparseBinaryMatrix(n, m, cells), SplitSpec(fraction, seed))
    assert held.cells == expected
    assert x_train.entries == set(positives) - expected
    assert x_train.shape == (n, m)


@settings(deadline=None)
@given(cell_lists())
def test_attenuation_is_the_ramp_from_the_first_positive(case):
    n, m, cells = case
    g = build_attenuation(SparseBinaryMatrix(n, m, cells)).data
    for r in range(n):
        row_cols = [c for rr, c in cells if rr == r]
        if not row_cols:
            expected = [0.0] * m
        else:
            j0 = min(row_cols)
            expected = [0.0] * j0 + [1.0] + [1.0 - 1.0 / (m - j) for j in range(j0 + 1, m)]
        assert g[r].tolist() == expected


@settings(deadline=None)
@given(cell_lists())
def test_csv_round_trip(case):
    n, m, cells = case
    x = SparseBinaryMatrix(n, m, cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        save_matrix_csv(x, path)
        lines = [f"N,{n}", f"M,{m}"] + [f"{r},{c},1" for r, c in sorted(set(cells))]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert load_matrix_csv(path) == x
