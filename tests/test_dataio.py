"""Tests for record parsing, binning, serialization, and the generator."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hcwmf import (
    AdoptionRecords,
    SparseBinaryMatrix,
    SynthConfig,
    bin_records,
    cumulative_counts,
    generate_corpus,
    generate_synthetic,
    load_matrix_csv,
    parse_records,
    save_cumulative_csv,
    save_matrix_csv,
    write_records,
)
from hcwmf import dataio


def _lines(*objs):
    return io.StringIO("\n".join(objs) + "\n")


class TestAdoptionRecords:
    def test_of_coerces_timestamps(self):
        recs = AdoptionRecords.of([("a", "X", np.int64(5))])
        assert recs.events == (("a", "X", 5),)
        assert len(recs) == 1
        assert list(recs) == [("a", "X", 5)]

    @pytest.mark.parametrize(
        "event",
        [
            ("", "X", 0),
            ("a", "", 0),
            ("a", "X", -1),
            ("a", "X", True),
            (3, "X", 0),
        ],
    )
    def test_rejects_malformed_events(self, event):
        with pytest.raises(ValueError):
            AdoptionRecords((event,))


class TestParseRecords:
    def test_single_event(self):
        recs, skipped = parse_records(_lines('{"user":"a","hashtag":"X","ts":0}'))
        assert recs.events == (("a", "X", 0),)
        assert skipped == 0

    def test_empty_stream(self):
        recs, skipped = parse_records(io.StringIO(""))
        assert len(recs) == 0 and skipped == 0

    def test_malformed_line_is_counted_and_warned(self):
        stream = _lines(
            '{"user":"a","hashtag":"X","ts":0}',
            "this is not json",
            '{"user":"b","hashtag":"X","ts":10}',
        )
        with pytest.warns(UserWarning, match="line 2"):
            recs, skipped = parse_records(stream)
        assert len(recs) == 2
        assert skipped == 1

    def test_blank_lines_are_ignored_without_counting(self):
        stream = io.StringIO('\n{"user":"a","hashtag":"X","ts":0}\n\n\n')
        recs, skipped = parse_records(stream)
        assert len(recs) == 1 and skipped == 0

    @pytest.mark.parametrize(
        "line",
        [
            '{"user":"a","hashtag":"X","ts":-5}',
            '{"user":"a","hashtag":"X","ts":true}',
            '{"user":"a","hashtag":"X","ts":1.5}',
            '{"user":"a","hashtag":"X"}',
            '{"user":"","hashtag":"X","ts":0}',
            '{"user":5,"hashtag":"X","ts":0}',
            "[1,2,3]",
        ],
    )
    def test_semantically_invalid_lines_are_skipped(self, line):
        with pytest.warns(UserWarning):
            recs, skipped = parse_records(_lines(line))
        assert len(recs) == 0 and skipped == 1

    def test_accepts_byte_streams(self):
        recs, skipped = parse_records(io.BytesIO(b'{"user":"a","hashtag":"X","ts":3}\n'))
        assert recs.events == (("a", "X", 3),) and skipped == 0

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_integer_beyond_the_digit_limit_is_invalid_json(self, as_bytes):
        # json.loads refuses an int of more than 4300 digits with a plain
        # ValueError; one such line must be skipped, not abort the parse.
        text = _lines(
            '{"user":"a","hashtag":"X","ts":1}',
            '{"user":"a","hashtag":"X","ts":' + "7" * 4301 + "}",
            '{"user":"b","hashtag":"X","ts":2}',
        ).getvalue()
        stream = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recs, skipped = parse_records(stream)
        assert recs.events == (("a", "X", 1), ("b", "X", 2)) and skipped == 1
        assert [str(w.message) for w in caught] == ["line 2: not valid JSON, skipped"]

    def test_rejects_non_iterable_input(self):
        with pytest.raises(ValueError, match="line by line"):
            parse_records(42)

    def test_lines_that_decode_only_when_joined_are_all_skipped(self):
        # No line is JSON on its own, but "[" + ",".join(lines) + "]" decodes
        # to three valid records, one per line: a whole-file decode checked by
        # its object count would accept them.
        lines = (
            '{"user":"u","hashtag":"h","ts":1},{"user":"u","hashtag":"h","ts":2}',
            '{"user":"x","hashtag":"h","ts":3,"k":[{}',
            "{}]}",
        )
        joined = json.loads("[" + ",".join(lines) + "]")
        assert [(o["user"], o["ts"]) for o in joined] == [("u", 1), ("u", 2), ("x", 3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recs, skipped = parse_records(_lines(*lines))
        assert len(recs) == 0 and skipped == 3
        assert [str(w.message) for w in caught] == [
            f"line {k}: not valid JSON, skipped" for k in (1, 2, 3)
        ]


class TestWriteRecords:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "events.ndjson"
        write_records(AdoptionRecords.of([("a", "X", 0), ("b", "Y", 7200)]), path)
        assert path.read_bytes() == (
            b'{"user":"a","hashtag":"X","ts":0}\n{"user":"b","hashtag":"Y","ts":7200}\n'
        )

    def test_round_trip(self, tmp_path):
        records = generate_corpus(SynthConfig(n_users=20, n_bins=12, seed=4), n_hashtags=3)
        path = tmp_path / "events.ndjson"
        write_records(records, path)
        with open(path, "rb") as fh:
            back, skipped = parse_records(fh)
        assert skipped == 0
        assert back == records
        ids = [s for user, hashtag, _ in back for s in (user, hashtag)]
        assert len({id(s) for s in ids}) == len(set(ids))  # one str per distinct id


class TestBinRecords:
    def test_origin_is_corpus_minimum(self):
        # The earliest event of the whole corpus pins bin 0, even when it
        # belongs to a different hashtag.
        records = AdoptionRecords.of([("z", "other", 0), ("a", "h0", 3600)])
        m = bin_records(records, "h0", bin_seconds=3600)
        assert m.shape[0] == 1
        assert m.entries == {(0, 1)}

    def test_same_bin_events_collapse(self):
        records = AdoptionRecords.of([("a", "h0", 0), ("a", "h0", 30)])
        m = bin_records(records, "h0", bin_seconds=3600)
        assert m.nnz == 1

    def test_two_users_disjoint_bins(self):
        records = AdoptionRecords.of([("a", "h0", 0), ("b", "h0", 7200)])
        m = bin_records(records, "h0", bin_seconds=3600)
        assert m.shape[0] == 2
        assert m.entries == {(0, 0), (1, 2)}

    def test_rows_follow_sorted_user_ids(self):
        records = AdoptionRecords.of([("zed", "h0", 0), ("amy", "h0", 3600)])
        m = bin_records(records, "h0", bin_seconds=3600)
        assert m.entries == {(0, 1), (1, 0)}  # amy first

    def test_default_width_adds_headroom(self):
        one = bin_records(AdoptionRecords.of([("a", "h0", 0)]), "h0")
        assert one.cols == math.ceil(1.25 * 1) == 2
        far = bin_records(
            AdoptionRecords.of([("a", "h0", 0), ("a", "h0", 3 * 3600)]), "h0"
        )
        assert far.cols == 5

    def test_explicit_width_must_cover_events(self):
        records = AdoptionRecords.of([("a", "h0", 0), ("a", "h0", 5 * 3600)])
        m = bin_records(records, "h0", m=6)
        assert m.cols == 6
        with pytest.raises(ValueError, match="too small"):
            bin_records(records, "h0", m=5)

    def test_timestamp_beyond_int64_is_named(self):
        recs = AdoptionRecords.of([("a", "X", 0), ("b", "X", 2**63)])
        with pytest.raises(ValueError, match="timestamp 9223372036854775808 is too large"):
            bin_records(recs, "X")

    def test_unknown_hashtag_rejected(self):
        with pytest.raises(ValueError, match="no events"):
            bin_records(AdoptionRecords.of([("a", "h0", 0)]), "missing")

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bin_records(AdoptionRecords.of([]), "h0")
        with pytest.raises(ValueError, match="bin_seconds"):
            bin_records(AdoptionRecords.of([("a", "h0", 0)]), "h0", bin_seconds=0)


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0, "n_bins": 5},
            {"n_users": 5, "n_bins": 1},
            {"n_users": 5, "n_bins": 5, "trend_decay": 0.0},
            {"n_users": 5, "n_bins": 5, "trend_decay": 1.5},
            {"n_users": 5, "n_bins": 5, "repeat_prob": -0.1},
            {"n_users": 5, "n_bins": 5, "repeat_prob": 1.1},
            {"n_users": 5, "n_bins": 5, "repeat_decay": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestGenerateSynthetic:
    def test_no_repeats_means_one_event_per_user(self):
        cfg = SynthConfig(n_users=40, n_bins=20, repeat_prob=0.0, seed=1)
        records = generate_synthetic(cfg)
        assert len(records) == 40
        assert len({u for u, _, _ in records}) == 40

    def test_saturation_fills_every_bin_after_onset(self):
        cfg = SynthConfig(n_users=15, n_bins=10, repeat_prob=1.0, repeat_decay=0.0, seed=2)
        records = generate_synthetic(cfg)
        by_user = {}
        for u, _, ts in records:
            by_user.setdefault(u, []).append(ts // 3600)
        for u, bins in by_user.items():
            bins = sorted(bins)
            assert bins == list(range(bins[0], 10)), f"gap in adoption run for {u}"

    def test_seeded_determinism(self):
        cfg = SynthConfig(n_users=30, n_bins=15, seed=8)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_timestamps_are_bin_multiples(self):
        records = generate_synthetic(SynthConfig(n_users=10, n_bins=8, seed=3), bin_seconds=600)
        assert all(ts % 600 == 0 for _, _, ts in records)

    def test_sparse_regime_density(self):
        # Low re-adoption probability lands the matrix near 1% density.
        cfg = SynthConfig(
            n_users=500, n_bins=168, trend_decay=0.1,
            repeat_prob=0.05, repeat_decay=0.05, seed=7,
        )
        m = bin_records(generate_synthetic(cfg), "h0", m=168)
        assert 0.005 <= m.nnz / (m.rows * m.cols) <= 0.02


class TestGenerateCorpus:
    def test_hashtag_labels_and_determinism(self):
        cfg = SynthConfig(n_users=25, n_bins=12, seed=5)
        corpus = generate_corpus(cfg, 3)
        assert {h for _, h, _ in corpus} == {"h0", "h1", "h2"}
        assert corpus == generate_corpus(cfg, 3)

    def test_participation_scales_activity(self):
        cfg = SynthConfig(n_users=60, n_bins=12, seed=6)
        low = generate_corpus(cfg, 4, participation=0.2)
        high = generate_corpus(cfg, 4, participation=0.8)
        assert len(low) < len(high)

    def test_tag_streams_do_not_depend_on_tag_count(self):
        cfg = SynthConfig(n_users=20, n_bins=12, seed=7)
        two = [e for e in generate_corpus(cfg, 2) if e[1] == "h1"]
        five = [e for e in generate_corpus(cfg, 5) if e[1] == "h1"]
        assert two == five

    def test_rejects_bad_arguments(self):
        cfg = SynthConfig(n_users=5, n_bins=5)
        with pytest.raises(ValueError, match="n_hashtags"):
            generate_corpus(cfg, 0)
        with pytest.raises(ValueError, match="participation"):
            generate_corpus(cfg, 2, participation=0.0)


class TestCumulativeCounts:
    def test_single_event(self):
        assert cumulative_counts(AdoptionRecords.of([("a", "h0", 0)])) == [(0, 1, 1)]

    def test_user_curve_plateaus(self):
        records = AdoptionRecords.of([("a", "h0", 0), ("a", "h0", 5 * 3600)])
        rows = cumulative_counts(records)
        assert rows == [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 2, 1)]

    def test_conserves_totals(self):
        records = generate_corpus(SynthConfig(n_users=30, n_bins=20, seed=9), 3)
        rows = cumulative_counts(records)
        assert rows[-1][1] == len(records)
        assert rows[-1][2] == len({u for u, _, _ in records})
        assert [b for b, _, _ in rows] == list(range(len(rows)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            cumulative_counts(AdoptionRecords.of([]))


class TestMatrixCsv:
    def test_exact_serialization(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(SparseBinaryMatrix(2, 3, [(1, 2), (0, 1)]), path)
        assert path.read_bytes() == b"N,2\nM,3\n0,1,1\n1,2,1\n"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        for trial in range(10):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            cells = {
                (int(r), int(c))
                for r, c in zip(rng.integers(0, n, 20), rng.integers(0, m, 20))
            }
            original = SparseBinaryMatrix(n, m, cells)
            path = tmp_path / f"m{trial}.csv"
            save_matrix_csv(original, path)
            assert load_matrix_csv(path) == original

    def test_load_validates_header_and_triplets(self, tmp_path):
        bad_header = tmp_path / "bad1.csv"
        bad_header.write_text("rows,2\nM,3\n")
        with pytest.raises(ValueError, match="header"):
            load_matrix_csv(bad_header)
        bad_value = tmp_path / "bad2.csv"
        bad_value.write_text("N,2\nM,3\n0,1,2\n")
        with pytest.raises(ValueError, match="triplet"):
            load_matrix_csv(bad_value)
        # Every error names the file and the 1-based line it concerns, and a
        # repeated triplet is rejected instead of merged.
        beyond_int64 = r"does not fit int64, counts must be below 2\*\*63"
        cases = [
            ("", 1, "expected the 'N,<size>' header line, got ''"),
            ("N,2\n", 2, "expected the 'M,<size>' header line"),
            ("N,2\n\nrows,3\n", 3, "expected the 'M,<size>' header line, got 'rows,3'"),
            ("N,-1\nM,3\n", 1, "'-1' is not a non-negative integer"),
            ("N,2\nM,x\n", 2, "'x' is not a non-negative integer"),
            ("N,2\nM,3\n0,1\n", 3, "malformed triplet"),
            ("N,2\nM,3\n0,1,1\n0,a,1\n", 4, "'a' is not a non-negative integer"),
            ("N,2\nM,3\n0,1,1\n\n2,0,1\n", 5, r"cell \(2, 0\) out of range"),
            ("N,2\nM,3\n0,-1,1\n", 3, "'-1' is not a non-negative integer"),
            ("N,2\nM,3\n0,3,1\n", 3, r"cell \(0, 3\) out of range"),
            ("N,2\nM,3\n0,1,1\n1,2,1\n0,1,1\n", 5, "duplicate triplet '0,1,1', first on line 3"),
            # A count of 2**63 or more fails on its own line, even in a header with no cell.
            ("N,9999999999999999999\nM,1\n9999999999999999998,0,1\n", 1, beyond_int64),
            ("N,9223372036854775808\nM,0\n", 1, beyond_int64),
            ("N,2\nM,1\n1,00009223372036854775808,1\n", 3, beyond_int64),
            ("N,2\nM," + "9" * 5000 + "\n", 2, beyond_int64),
        ]
        for k, (text, line, problem) in enumerate(cases):
            path = tmp_path / f"case{k}.csv"
            path.write_text(text)
            with pytest.raises(ValueError, match=problem) as info:
                load_matrix_csv(path)
            assert str(info.value).startswith(f"{path}, line {line}: "), text
        largest = tmp_path / "largest.csv"
        largest.write_text("N,9223372036854775807\nM,0\n")
        assert load_matrix_csv(largest).shape == (2**63 - 1, 0)

    def test_saved_matrix_loads_without_the_line_loop(self, tmp_path, monkeypatch):
        def line_loop(path):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(dataio, "_load_matrix_lines", line_loop)
        matrices = [
            SparseBinaryMatrix(0, 0, []),
            SparseBinaryMatrix(4, 0, []),
            SparseBinaryMatrix(3, 170, [(2, 169), (0, 0), (0, 10)]),
        ]
        for k, matrix in enumerate(matrices):
            path = tmp_path / f"m{k}.csv"
            save_matrix_csv(matrix, path)
            assert load_matrix_csv(path) == matrix

    def test_load_peak_memory_is_a_few_file_sizes(self, tmp_path):
        # The regex read holds the bytes, the body and the cell arrays: about 8x
        # the file's size.  The line loop peaks near 31x, and a backtracking
        # (greedy rather than possessive) pattern near 49x.
        rng = np.random.default_rng(3)
        cells = np.column_stack((rng.integers(0, 20_000, 20_000), rng.integers(0, 168, 20_000)))
        path = tmp_path / "m.csv"
        save_matrix_csv(SparseBinaryMatrix(20_000, 168, cells), path)
        tracemalloc.start()
        try:
            load_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * path.stat().st_size

    def test_load_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"N,1\nM,1\n0,0,1\n\xff\n")
        with pytest.raises(ValueError, match="not UTF-8 text") as info:
            load_matrix_csv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestCumulativeCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "c.csv"
        save_cumulative_csv([(0, 1, 1), (1, 3, 2)], path)
        assert path.read_bytes() == b"bin,tweets,users\n0,1,1\n1,3,2\n"


class TestNdjsonMatrixPipeline:
    def test_binning_survives_serialization(self, tmp_path):
        records = generate_synthetic(SynthConfig(n_users=25, n_bins=16, seed=11))
        direct = bin_records(records, "h0", m=16)
        path = tmp_path / "events.ndjson"
        write_records(records, path)
        with open(path, "rb") as fh:
            back, _ = parse_records(fh)
        assert bin_records(back, "h0", m=16) == direct

    def test_matrix_matches_raw_event_arithmetic(self):
        records = generate_synthetic(SynthConfig(n_users=12, n_bins=10, seed=12))
        m = bin_records(records, "h0", m=10)
        users = sorted({u for u, _, _ in records})
        min_ts = min(ts for _, _, ts in records)
        expected = {
            (users.index(u), (ts - min_ts) // 3600) for u, _, ts in records
        }
        assert m.entries == expected
