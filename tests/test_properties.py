"""Property tests pinning fast paths to their plain references.

Sparse matrices and held-out sets store their cells as sorted int64
coordinate arrays.  Each storage property checks one consumer of those arrays
against a plain-Python oracle over sets of (row, col) tuples.  The structured
loss is checked against the dense reference kernels, the record parser
against per-line ``json.loads``, the record writer against per-event
``json.dumps``, and the matrix reader against its line loop.
"""

import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

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
    TrainConfig,
    build_attenuation,
    build_masks,
    fit_markov,
    grad_u,
    grad_v,
    load_matrix_csv,
    objective,
    parse_records,
    predict_markov,
    save_matrix_csv,
    split_mask,
    write_records,
)
from hcwmf.dataio import _load_matrix_lines
from hcwmf.harness import _markov_predictions


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
    x, x_train, held = case
    for matrix in (x, x_train):
        assert fit_markov(matrix).t.data.tolist() == _dense_markov_oracle(matrix).tolist()
    model = fit_markov(x_train)
    by_state = [predict_markov(model, 0), predict_markov(model, 1)]
    arr = x_train.to_array()
    expected = [by_state[int(arr[r, c - 1])] if c > 0 else by_state[0] for r, c in held]
    assert _markov_predictions(x_train, held).tolist() == expected


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


@settings(deadline=None)
@given(st.lists(record_lines(), max_size=12), st.booleans())
@example([line.encode("utf-8") for line in _ODD_LINES], False)
@example([line.encode("utf-8") for line in _ODD_LINES], True)
def test_parse_records_matches_per_line_json_loads(lines, as_text):
    data = b"".join(line + b"\n" for line in lines)
    if as_text:
        stream = io.StringIO(data.decode("utf-8", "replace"), newline="\n")
    else:
        stream = io.BytesIO(data)
    want = _parse_oracle(list(stream))
    stream.seek(0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records, skipped = parse_records(stream)
    assert (list(records.events), skipped, [str(w.message) for w in caught]) == want
    assert all(w.filename == __file__ for w in caught)


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
