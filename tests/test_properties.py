"""Property tests pinning fast paths to their plain references.

Sparse matrices and held-out sets store their cells as sorted int64
coordinate arrays.  Each storage property checks one consumer of those arrays
against a plain-Python oracle over sets of (row, col) tuples.  The structured
loss is checked against the dense reference kernels, ``fit_ar`` against its
``np.column_stack`` design, the record parser against per-line
``json.loads`` (on each kind of stream, and when its blocks mix compact
and other lines or a line spans several reads), the record writer against
per-event ``json.dumps``, the synthetic generators against one scalar draw
per bin, the matrix reader against its line loop, and each hashtag's
cumulative counts against its binned matrix.
"""

import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcwmf import (
    AdoptionRecords,
    DenseMatrix,
    FactorPair,
    HeldOutSet,
    SparseBinaryMatrix,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    bin_records,
    build_attenuation,
    build_masks,
    cumulative_counts,
    fit_ar,
    fit_markov,
    generate_corpus,
    generate_synthetic,
    grad_u,
    grad_v,
    load_matrix_csv,
    objective,
    parse_records,
    predict_ar,
    predict_markov,
    save_matrix_csv,
    split_mask,
    write_records,
)
from hcwmf import dataio
from hcwmf.dataio import _load_matrix_lines
from hcwmf.harness import _ar_predictions, _markov_predictions


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


@st.composite
def saved_matrices(draw):
    """(n, m, cells) with n, m <= 12 or the largest size the regex reader takes, 10**18 - 1."""
    n, m = (draw(st.integers(0, 12) | st.just(10**18 - 1)) for _ in "NM")
    if not (n and m):
        return n, m, []
    return n, m, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=20))


def _edit_number(line: bytes, j: int, new) -> bytes:
    """Replace the (j mod count)-th run of ASCII digits in ``line`` by ``new(run)``."""
    runs = list(re.finditer(rb"[0-9]+", line))
    run = runs[j % len(runs)]
    return line[: run.start()] + new(run[0]) + line[run.end() :]


# Edits of a file that save_matrix_csv wrote.  "none", "out of range" and
# "duplicate" keep the regex form; every other edit sends load_matrix_csv to the
# line loop, which may accept the file or name the line it fails on.
_MATRIX_EDITS = [
    "none", "crlf", "no final newline", "bom", "blank line", "padded line", "leading zero",
    "19 digits", "arabic digit", "not utf-8", "out of range", "duplicate", "third field",
]


def _edited_matrix_file(data: bytes, edit: str, n: int, m: int, k: int, j: int) -> bytes:
    """``data`` after ``edit`` at line k (modulo the line count), in variant j."""
    if edit == "crlf":
        return data.replace(b"\n", b"\r\n")
    if edit == "no final newline":
        return data[:-1]
    if edit == "bom":
        return b"\xef\xbb\xbf" + data
    lines = data.split(b"\n")[:-1]
    k %= len(lines)
    line = lines[k]
    triplet = 2 + j % max(len(lines) - 2, 1)  # an existing triplet's line, or the end
    if edit == "blank line":
        lines.insert(k, [b"", b" ", b"\t"][j % 3])
    elif edit == "padded line":
        lines[k] = [b" ", b"\t", "\u3000".encode()][j % 3] + line + b" "
    elif edit == "leading zero":
        lines[k] = _edit_number(line, j, lambda run: b"0" + run)
    elif edit == "19 digits":
        lines[k] = _edit_number(line, j, lambda run: [b"1" + b"0" * 18, b"9" * 19, b"0" * 18 + run][k % 3])
    elif edit == "arabic digit":
        lines[k] = _edit_number(line, j, lambda run: "\u0663".encode())
    elif edit == "not utf-8":
        cut = j % (len(line) + 1)
        lines[k] = line[:cut] + b"\xff" + line[cut:]
    elif edit == "out of range":
        lines.insert(max(k, 2), [f"{n},0,1", f"0,{m},1"][j % 2].encode())
    elif edit == "duplicate" and len(lines) > 2:
        lines.insert(max(k, 2), lines[triplet])
    elif edit == "third field" and len(lines) > 2:
        lines[triplet] = lines[triplet][:-1] + [b"01", b"2"][k % 2]
    return b"".join(line + b"\n" for line in lines)


def _load_outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("edit", _MATRIX_EDITS)
@settings(deadline=None)
@given(saved_matrices(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_load_matrix_csv_matches_the_line_loop(edit, case, k, j):
    n, m, cells = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        save_matrix_csv(SparseBinaryMatrix(n, m, cells), path)
        path.write_bytes(_edited_matrix_file(path.read_bytes(), edit, n, m, k, j))
        assert _load_outcome(load_matrix_csv, path) == _load_outcome(_load_matrix_lines, path)


@st.composite
def row_boundary_splits(draw):
    """(x, x_train, held) with m >= 2 and positives on both sides of a row boundary.

    (i, m-1) stays in training and (i+1, 0) is held out.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 12))
    i = draw(st.integers(0, n - 2))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    positives = set(draw(st.lists(cell, max_size=40))) | {(i, m - 1), (i + 1, 0)}
    held = draw(st.sets(st.sampled_from(sorted(positives)))) | {(i + 1, 0)}
    held.discard((i, m - 1))
    return (
        SparseBinaryMatrix(n, m, positives),
        SparseBinaryMatrix(n, m, positives - held),
        HeldOutSet.of(held),
    )


def _dense_markov_oracle(x):
    arr = x.to_array().astype(int)
    counts = np.zeros((2, 2))
    for r in range(x.rows):
        for c in range(x.cols - 1):
            counts[arr[r, c], arr[r, c + 1]] += 1
    return np.array([c / c.sum() if c.sum() else [1.0, 0.0] for c in counts])


@settings(deadline=None)
@given(row_boundary_splits())
def test_markov_from_coordinates_matches_dense_oracle(case):
    # A held-out (i+1, 0) sits next to a training (i, m-1): a flat-index lag
    # that ignored the row boundary would read the previous row.
    x, x_train, held = case
    for matrix in (x, x_train):
        assert fit_markov(matrix).t.data.tolist() == _dense_markov_oracle(matrix).tolist()
    model = fit_markov(x_train)
    by_state = [predict_markov(model, 0), predict_markov(model, 1)]
    arr = x_train.to_array()
    expected = [by_state[int(arr[r, c - 1])] if c > 0 else by_state[0] for r, c in held]
    assert _markov_predictions(x_train, held).tolist() == expected
    # The AR baseline reads its lags the same way: bit-equal to the per-cell
    # fit_ar/predict_ar loop over dense rows, or the same error for m <= order.
    for order in (1, 2, 3):
        if x_train.cols <= order:
            with pytest.raises(ValueError) as want:
                fit_ar(arr[held.row[0]], p=order)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                _ar_predictions(x_train, held, order)
            continue
        models = {r: fit_ar(arr[r], p=order) for r, _ in held}
        expected = np.array([predict_ar(models[r], arr[r, :c]) for r, c in held])
        assert _ar_predictions(x_train, held, order).tobytes() == expected.tobytes()


@st.composite
def loss_problems(draw):
    """(x_train, held, factors, cfg) with n, m <= 8 and d <= 3.

    Held-out cells are positives taken out of training, with every positive
    of one row among them when ``whole_row`` is drawn, plus cells anywhere
    (training positives and zeros alike).
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    positives = draw(st.sets(cell, max_size=30))
    taken = draw(st.sets(st.sampled_from(sorted(positives)))) if positives else set()
    if positives and draw(st.booleans()):
        row = draw(st.sampled_from(sorted(positives)))[0]
        taken |= {(r, c) for r, c in positives if r == row}
    held = taken | draw(st.sets(cell, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = FactorPair(u=DenseMatrix(rng.random((n, d))), v=DenseMatrix(rng.random((m, d))))
    cfg = TrainConfig(
        d=d,
        gamma1=draw(st.sampled_from([0.0, 0.2])),
        gamma2=draw(st.sampled_from([0.0, 0.3])),
        mu=draw(st.sampled_from([0.0, 0.2, 1.5])),
    )
    return SparseBinaryMatrix(n, m, positives - taken), HeldOutSet.of(held), factors, cfg


def _one(n, m, cells, held, mu):
    rng = np.random.default_rng(0)
    factors = FactorPair(u=DenseMatrix(rng.random((n, 2))), v=DenseMatrix(rng.random((m, 2))))
    return SparseBinaryMatrix(n, m, cells), HeldOutSet.of(held), factors, TrainConfig(d=2, mu=mu)


@settings(deadline=None)
@given(loss_problems())
@example(_one(3, 1, [(0, 0), (2, 0)], [(1, 0)], 0.2))  # m = 1
@example(_one(3, 4, [(0, 1), (0, 3), (2, 0)], [], 0.2))  # no held-out cell, an empty row
@example(_one(3, 4, [(0, 1), (2, 0)], [(1, 1), (1, 2), (2, 3)], 0.2))  # row 1 all held out
@example(_one(3, 4, [(0, 1), (2, 0)], [(1, 1), (1, 2), (2, 3)], 0.0))
@example(_one(3, 4, [(0, 1), (0, 3), (2, 0)], [(0, 1), (2, 0)], 0.2))  # every held cell a positive of x
@example(_one(5, 5, [(0, 3), (1, 0), (2, 3), (3, 1), (4, 0)], [(2, 4)], 0.2))  # rows out of onset order
@example(_one(4, 5, [(0, 2), (2, 2), (2, 4), (3, 0)], [(1, 3)], 0.2))  # empty row 1 between group 2's rows, held out
@example(_one(4, 5, [(0, 2), (2, 2), (2, 4), (3, 0)], [(1, 3)], 0.0))
@example(_one(3, 6, [(0, 0), (1, 2), (2, 1)], [(1, 0)], 0.2))  # columns 3-5 empty
@example(_one(3, 6, [(0, 3), (1, 5), (2, 4)], [(0, 4)], 0.2))  # columns 0-2 empty
@example(_one(3, 7, [(0, 2), (1, 3)], [(2, 5)], 0.2))  # a held-out cell alone sets the last column
@example(_one(3, 7, [(0, 2), (1, 3)], [(2, 5)], 0.0))
@example(_one(3, 7, [(0, 1), (1, 2), (2, 3)], [(0, 4), (2, 4)], 0.2))  # column 4's positives all held out
def test_structured_loss_matches_dense_reference(case):
    # rtol 1e-12 on each value; gradient entries near zero after cancellation
    # are held to the same 1e-12 relative to the gradient's largest entry.
    x_train, held, factors, cfg = case
    dense = build_masks(x_train, held)
    want = objective(x_train, dense, factors, cfg)
    assert math.isclose(objective(x_train, held, factors, cfg), want, rel_tol=1e-12, abs_tol=1e-12)
    for kernel in (grad_u, grad_v):
        want = kernel(x_train, dense, factors, cfg).data
        got = kernel(x_train, held, factors, cfg).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=1.0))


def _fit_ar_column_stack(series, p):
    """``fit_ar`` as first written: the design built by ``np.column_stack``."""
    x = np.asarray(series, dtype=float)
    t = x.size
    y = x[p:]
    design = np.column_stack([np.ones(t - p)] + [x[p - k : t - k] for k in range(1, p + 1)])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        return float(np.mean(y)), (0.0,) * p
    return float(coef[0]), tuple(float(c) for c in coef[1:])


@st.composite
def ar_series(draw):
    """(series, p): 0/1 or real series of length p + 1 to 40, at orders 1-4."""
    p = draw(st.integers(1, 4))
    size = st.integers(p + 1, 40)
    if draw(st.booleans()):
        series = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=p + 1, max_size=40))
    else:
        series = draw(st.lists(st.floats(-1e3, 1e3), min_size=p + 1, max_size=40))
    kind = draw(st.sampled_from(["drawn", "constant", "zeros"]))
    if kind != "drawn":
        series = [series[0] if kind == "constant" else 0.0] * draw(size)
    return series, p


@settings(deadline=None)
@given(ar_series())
@example(([0.0, 1.0], 1))  # length p + 1
@example(([1.0, 0.0, 1.0, 1.0, 0.0], 4))
@example(([0.0] * 6, 2))
@example(([0.7] * 9, 3))
def test_fit_ar_matches_the_column_stack_design_bit_for_bit(case):
    series, p = case
    model = fit_ar(series, p)
    intercept, phi = _fit_ar_column_stack(series, p)
    assert model.intercept.hex() == intercept.hex()
    assert [c.hex() for c in model.coefficients] == [c.hex() for c in phi]


def _parse_oracle(lines):
    """(events, skipped, warning messages): each stripped line through json.loads."""
    events, skipped, messages = [], 0, []
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                skipped += 1
                messages.append(f"line {lineno}: not valid UTF-8, skipped")
                continue
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:  # JSONDecodeError, or an integer beyond int's digit limit
            skipped += 1
            messages.append(f"line {lineno}: not valid JSON, skipped")
            continue
        if (
            isinstance(obj, dict)
            and isinstance(obj.get("user"), str)
            and obj["user"]
            and isinstance(obj.get("hashtag"), str)
            and obj["hashtag"]
            and type(obj.get("ts")) is int
            and obj["ts"] >= 0
        ):
            events.append((obj["user"], obj["hashtag"], obj["ts"]))
        else:
            skipped += 1
            messages.append(f"line {lineno}: malformed record, skipped")
    return events, skipped, messages


_RECORD = '{"user":"a","hashtag":"h","ts":1}'
_ODD_LINES = [
    "",
    "   ",
    "\t",
    "\x0b",
    "\xa0",
    "\ufeff" + _RECORD,
    '{"user":"a","hashtag":"h","ts":NaN}',
    '{"user":"a","hashtag":"h","ts":true}',
    '{"user":"a","hashtag":"h","ts":1,"ts":-1}',
    '{"user":"","user":"a","hashtag":"h","ts":2}',
    _RECORD + " x",
    _RECORD + "}",
    "1,2",
    "{}{}",
    "1],[2",
    "[1,2]",
    "null",
    # The compact form write_records emits, and near misses of it.
    _RECORD,
    _RECORD + "\r",
    '{"user":" !#[]~","hashtag":"h","ts":999999999999999999}',
    '{"user":"a","hashtag":"h","ts":0}',
    '{"user":"\\u0061","hashtag":"h","ts":1}',
    '{"user":"a\\"b","hashtag":"h","ts":1}',
    '{"user":"a\\/b","hashtag":"h","ts":1}',
    '{"user":"a\\\\","hashtag":"h","ts":1}',
    '{"user":"a\x7f","hashtag":"h","ts":1}',
    '{"user":"\xe9","hashtag":"h","ts":1}',
    '{"user":"","hashtag":"h","ts":1}',
    '{"user":"a","hashtag":"","ts":1}',
    '{"user":"a","hashtag":"h","ts":007}',
    '{"user":"a","hashtag":"h","ts":-0}',
    '{"user":"a","hashtag":"h","ts":1.0}',
    '{"user":"a","hashtag":"h","ts":1e3}',
    '{"user":"a","hashtag":"h","ts":1234567890123456789}',
    '{"user":"a","hashtag":"h","ts":' + "9" * 4301 + "}",
    '{"hashtag":"h","user":"a","ts":1}',
    '{"user":"a","hashtag":"h","ts":1,"x":0}',
    # One record: a bare CR is JSON whitespace, and only "\n" ends a line.
    '{"user":"a",\r"hashtag":"h","ts":1}',
]


@st.composite
def record_lines(draw):
    """One line as bytes: a record, one in write_records' compact form, an odd line,
    or a record or odd line with padding or bad bytes."""
    kind = draw(st.sampled_from(["record", "compact", "odd", "not utf-8"]))
    if kind == "compact":
        # Ids near printable ASCII and ts near 18 digits reach both sides of the fast check.
        ids = st.text(st.characters(min_codepoint=0x1F, max_codepoint=0x7F), max_size=4)
        obj = {
            "user": draw(ids),
            "hashtag": draw(ids),
            "ts": draw(st.integers(-2, 2**40) | st.integers(10**17, 10**19)),
        }
        return (json.dumps(obj, separators=(",", ":")) + draw(st.sampled_from(["", "\r"]))).encode()
    if kind != "odd":
        obj = {
            "user": draw(st.text(max_size=4)),
            "hashtag": draw(st.text(max_size=3)),
            "ts": draw(st.integers(-2, 2**40)),
        }
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    else:
        text = draw(st.sampled_from(_ODD_LINES))
    pad = st.text(alphabet=" \x0b\xa0", max_size=2)
    line = (draw(pad) + text + draw(pad)).encode("utf-8")
    if kind == "not utf-8":
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + line[cut:]
    return line


_ODD_BYTES = [line.encode("utf-8") for line in _ODD_LINES]
_STREAM_KINDS = ["bytes", "file", "list", "text"]


@settings(deadline=None)
@given(st.lists(record_lines(), max_size=12), st.sampled_from(_STREAM_KINDS))
@example(_ODD_BYTES, "bytes")
@example(_ODD_BYTES, "file")
@example(_ODD_BYTES, "list")
@example(_ODD_BYTES, "text")
def test_parse_records_matches_per_line_json_loads(lines, kind):
    # A byte stream, buffered or not, takes the block reader; a list of byte lines
    # and a text stream take the line loop.
    data = b"".join(line + b"\n" for line in lines)
    text = io.StringIO(data.decode("utf-8", "replace"), newline="\n")
    want = _parse_oracle(list(text if kind == "text" else io.BytesIO(data)))
    text.seek(0)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "events.ndjson"
        path.write_bytes(data)
        with io.FileIO(path) as file:
            streams = {"bytes": io.BytesIO(data), "file": file, "list": list(io.BytesIO(data)), "text": text}
            records, skipped = parse_records(streams[kind])
    assert (list(records.events), skipped, [str(w.message) for w in caught]) == want
    assert all(w.filename == __file__ for w in caught)


# Ids in the compact form: printable ASCII but '"' and '\\', with the separators json uses.
_COMPACT_ID = st.text(
    st.sampled_from([chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\']), min_size=1, max_size=6
)


@st.composite
def compact_runs(draw):
    """Consecutive lines in write_records' compact form, some ending in CR; now and then
    an id far longer than the rest, which the block reader must not widen every row to."""
    ids = _COMPACT_ID | st.just("L" * 300)
    events = draw(
        st.lists(st.tuples(ids, ids, st.integers(0, 10**18 - 1), st.booleans()), min_size=1, max_size=8)
    )
    return [
        json.dumps({"user": u, "hashtag": h, "ts": t}, separators=(",", ":")).encode() + b"\r" * cr
        for u, h, t, cr in events
    ]


@settings(deadline=None)
@given(
    st.lists(compact_runs() | record_lines().map(lambda line: [line]), max_size=8),
    st.booleans(),
    st.integers(1, 400),
)
@example([[_RECORD.encode()] * 3, [b"\xff"], [_RECORD.encode() + b"\r"]], False, 40)
def test_parse_records_in_blocks_matches_per_line_json_loads(runs, final_newline, block_bytes):
    # Small blocks, so that one stream mixes blocks of compact lines with blocks that
    # take the line loop, a last line with no newline and bytes that are not UTF-8.
    data = b"\n".join(line for run in runs for line in run) + b"\n" * final_newline
    want = _parse_oracle(list(io.BytesIO(data)))
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(dataio, "_BLOCK_BYTES", block_bytes):
        warnings.simplefilter("always")
        records, skipped = parse_records(io.BytesIO(data))
    assert (list(records.events), skipped, [str(w.message) for w in caught]) == want
    assert all(w.filename == __file__ for w in caught)
    assert records.users == tuple(sorted({u for u, _, _ in want[0]}))
    assert records.hashtags == tuple(sorted({h for _, h, _ in want[0]}))


@settings(deadline=None)
@given(
    st.lists(compact_runs() | record_lines().map(lambda line: [line]), min_size=1, max_size=12),
    st.booleans(),
    st.integers(16, 400),
)
@example([[_RECORD.encode()] * 6, [b"{bad"], [_RECORD.encode() + b"\r"] * 6, [b"\xff"]], False, 64)
def test_parse_records_in_two_processes_matches_one(runs, final_newline, block_bytes):
    # A real file of small blocks, parsed with two usable CPUs (a worker process parses
    # its second half) and with one (no worker), gives the same records and warnings.
    data = b"\n".join(line for run in runs for line in run) + b"\n" * final_newline
    cut = data.find(b"\n", len(data) // 2) + 1
    forks = []
    fork = os.fork
    parsed = []
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(dataio, "_BLOCK_BYTES", block_bytes),
        mock.patch.object(dataio, "_TWO_PROCESS_BYTES", block_bytes),
        mock.patch.object(dataio, "_quota_cpus", lambda: math.inf),
    ):
        path = Path(tmp) / "events.ndjson"
        path.write_bytes(data)
        for cpus in ({0, 1}, {0}):
            with (
                warnings.catch_warnings(record=True) as caught,
                mock.patch.object(os, "sched_getaffinity", lambda pid: cpus),
                mock.patch.object(os, "fork", lambda: forks.append(cpus) or fork()),
                open(path, "rb") as fh,
            ):
                warnings.simplefilter("always")
                records, skipped = parse_records(fh)
            with pytest.raises(ChildProcessError):  # no process outlives the parse
                os.waitpid(-1, os.WNOHANG)
            parsed.append((list(records.events), skipped, [(str(w.message), w.filename) for w in caught]))
    assert parsed[0] == parsed[1]
    assert all(filename == __file__ for _, filename in parsed[0][2])
    assert forks == [{0, 1}] * (len(data) > block_bytes and 0 < cut < len(data))


_LONG_RECORD = b'{"user":"' + b"L" * 300 + b'","hashtag":"h","ts":5}'
_INVALID = b'{"user":"b","hashtag":"h","ts":2'  # no closing brace


@pytest.mark.parametrize(
    "data, line_loop_blocks",
    [
        # One valid line that spans many reads, between two short ones.
        (_RECORD.encode() + b"\n" + _LONG_RECORD + b"\n" + _RECORD.encode(), 0),
        # No newline at all, in a valid line and in an invalid one.
        (_LONG_RECORD, 0),
        (_INVALID * 4, 1),
        # An invalid line, bytes 34..65, across the boundary of the 2nd and 3rd reads.
        (b"\n".join([_RECORD.encode(), _INVALID, _RECORD.encode(), _RECORD.encode()]) + b"\n", 1),
    ],
)
def test_block_reader_matches_per_line_json_loads(data, line_loop_blocks):
    calls = []
    line_loop = dataio._parse_lines
    want = _parse_oracle(list(io.BytesIO(data)))
    with (
        warnings.catch_warnings(record=True) as caught,
        mock.patch.object(dataio, "_BLOCK_BYTES", 32),
        mock.patch.object(dataio, "_parse_lines", lambda *args: calls.append(1) or line_loop(*args)),
    ):
        warnings.simplefilter("always")
        records, skipped = parse_records(io.BytesIO(data))
    assert (list(records.events), skipped, [str(w.message) for w in caught]) == want
    assert len(calls) == line_loop_blocks


class _Int(int):
    """An int whose repr, str and format all differ from ``int.__repr__``, which json writes."""

    def __repr__(self):
        return "x"

    __str__ = __repr__

    def __format__(self, spec):
        return "x"


# Quotes, backslashes, control characters, DEL, non-ASCII, astral and surrogate ids.
_ODD_IDS = ['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "\x7f", "é", "\u2028", "😀", "\ud800", " "]


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(min_size=1, max_size=4) | st.sampled_from(_ODD_IDS),
            st.text(min_size=1, max_size=3) | st.sampled_from(_ODD_IDS),
            st.integers(0, 2**70),
        ),
        max_size=12,
    )
)
@example([(u, h, ts) for u in _ODD_IDS for h, ts in (("h", 0), (u, 2**64), ("h", _Int(7)))])
def test_write_records_matches_per_event_json_dumps(events):
    want = "".join(
        json.dumps({"user": u, "hashtag": h, "ts": ts}, separators=(",", ":")) + "\n" for u, h, ts in events
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.ndjson"
        write_records(AdoptionRecords(tuple(events)), path)
        assert path.read_bytes() == want.encode("utf-8")


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from(["h0", "h1", "h2"]), st.integers(0, 40)),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 7),
)
@example([("a", "h1", 0), ("a", "h0", 3600), ("b", "h0", 7200)], 3600)
def test_cumulative_counts_describe_the_matrix_columns(events, bin_seconds):
    # Hashtags may start after the corpus does, and one user may repeat within a bin.
    records = AdoptionRecords(tuple(events))
    for tag in sorted({h for _, h, _ in events}):
        x = bin_records(records, tag, bin_seconds)
        rows = cumulative_counts(records, tag, bin_seconds)
        assert [b for b, _, _ in rows] == list(range(int(x.col.max()) + 1))
        assert rows[-1][2] == x.rows
        first_col = {}
        for r, c in zip(x.row.tolist(), x.col.tolist()):
            first_col.setdefault(r, c)
        users = [0] + [u for _, _, u in rows]
        for b in range(len(rows)):
            assert users[b + 1] - users[b] == sum(1 for c in first_col.values() if c == b)
        assert rows[-1][1] == sum(1 for _, h, _ in events if h == tag)


def _scalar_events(rng, cfg, scale):
    """The generators' per-user bins as first written: one scalar draw per bin after the onset."""
    onset = min(int(rng.geometric(cfg.trend_decay)) - 1, cfg.n_bins - 1)
    bins = [onset]
    for k in range(onset + 1, cfg.n_bins):
        p = scale * cfg.repeat_prob * math.exp(-cfg.repeat_decay * (k - onset - 1))
        if rng.random() < p:
            bins.append(k)
    return bins


@st.composite
def synth_configs(draw):
    return SynthConfig(
        n_users=draw(st.integers(1, 25)),
        n_bins=draw(st.integers(2, 30)),
        trend_decay=draw(st.floats(0.01, 1.0)),
        repeat_prob=draw(st.floats(0.0, 1.0)),
        repeat_decay=draw(st.floats(0.0, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(deadline=None, max_examples=50)
@given(synth_configs(), st.integers(1, 4), st.floats(0.05, 1.0), st.integers(1, 7200))
@example(SynthConfig(3, 2, trend_decay=0.01, seed=0), 2, 1.0, 3600)  # every onset in the last bin: no later draws
@example(SynthConfig(25, 30, trend_decay=1 / 3, seed=5), 3, 0.5, 60)  # geometric by search: one draw per onset
@example(SynthConfig(25, 30, trend_decay=0.3, seed=5), 3, 0.5, 60)  # geometric by inversion: a varying number
@example(SynthConfig(20, 12, repeat_prob=0.0, seed=6), 2, 0.7, 1)
@example(SynthConfig(20, 12, repeat_prob=1.0, repeat_decay=0.0, seed=6), 2, 0.7, 1)
@example(SynthConfig(1, 8, seed=7), 1, 1.0, 3600)
@example(SynthConfig(6, 6, trend_decay=0.5, seed=4), 2, 0.8, 2**62)  # ts from 2**63 on: the object column
@example(SynthConfig(4, 3, trend_decay=1.0, repeat_prob=0.0, seed=2), 2, 1.0, 2**63)  # bin_seconds past int64, every bin 0
def test_generators_match_one_scalar_draw_per_bin(cfg, n_hashtags, participation, bin_seconds):
    rng = np.random.default_rng(cfg.seed)
    width = len(str(cfg.n_users - 1))
    uids = [f"u{i:0{width}d}" for i in range(cfg.n_users)]
    want = [(uid, "h0", b * bin_seconds) for uid in uids for b in _scalar_events(rng, cfg, 1.0)]
    assert list(generate_synthetic(cfg, bin_seconds=bin_seconds)) == want

    propensity = np.random.default_rng(cfg.seed).uniform(0.5, 1.0, size=cfg.n_users)
    want = []
    for t in range(n_hashtags):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1 + t]))
        tag = f"h{t:0{len(str(n_hashtags - 1))}d}"
        for i, uid in enumerate(uids):
            if rng.random() < participation:
                want += [(uid, tag, b * bin_seconds) for b in _scalar_events(rng, cfg, float(propensity[i]))]
    corpus = generate_corpus(cfg, n_hashtags, participation=participation, bin_seconds=bin_seconds)
    assert list(corpus) == want
    assert corpus == AdoptionRecords(tuple(want))
