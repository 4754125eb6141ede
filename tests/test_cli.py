"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from hcwmf import DenseMatrix, ResultsTable, load_matrix_csv, parse_records
from hcwmf.cli import _write_factor_csv, build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def records_file(tmp_path, capsys):
    path = tmp_path / "events.ndjson"
    code, _, _ = _run(
        capsys, "synth", "--users", "60", "--bins", "12", "--seed", "9",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_parseable_records(self, records_file):
        with open(records_file, "rb") as fh:
            records, skipped = parse_records(fh)
        assert skipped == 0
        assert len(records) >= 60
        assert {h for _, h, _ in records} == {"h0"}

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        args = ["synth", "--users", "25", "--bins", "10", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multi_hashtag_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.ndjson"
        code, _, _ = _run(
            capsys, "synth", "--users", "30", "--bins", "12", "--hashtags", "3",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        with open(out, "rb") as fh:
            records, _ = parse_records(fh)
        assert {h for _, h, _ in records} == {"h0", "h1", "h2"}


class TestIngest:
    def test_produces_matrix_csv(self, records_file, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.csv"
        code, out, _ = _run(
            capsys, "ingest", "--in", str(records_file), "--hashtag", "h0",
            "--cols", "12", "--out", str(matrix_path),
        )
        assert code == 0 and "matrix" in out
        x = load_matrix_csv(matrix_path)
        assert x.shape == (60, 12)

    def test_cumulative_sidecar(self, records_file, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.csv"
        cumulative_path = tmp_path / "cumulative.csv"
        code, _, _ = _run(
            capsys, "ingest", "--in", str(records_file), "--hashtag", "h0",
            "--out", str(matrix_path), "--cumulative-out", str(cumulative_path),
        )
        assert code == 0
        lines = cumulative_path.read_text().splitlines()
        assert lines[0] == "bin,tweets,users"
        assert len(lines) > 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_reports_skipped_lines(self, records_file, tmp_path, capsys):
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(records_file.read_text() + "not json\n")
        code, _, err = _run(
            capsys, "ingest", "--in", str(dirty), "--hashtag", "h0",
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 0
        assert "skipped 1" in err


class TestTrain:
    def test_trace_and_factors(self, records_file, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.csv"
        _run(capsys, "ingest", "--in", str(records_file), "--hashtag", "h0",
             "--out", str(matrix_path))
        trace_path = tmp_path / "trace.csv"
        prefix = str(tmp_path / "factors")
        code, out, _ = _run(
            capsys, "train", "--matrix", str(matrix_path), "--d", "4",
            "--max-iters", "60", "--seed", "2",
            "--trace", str(trace_path), "--factors", prefix,
        )
        assert code == 0 and "trained d=4" in out
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,objective"
        assert lines[1].startswith("0,")
        objectives = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(objectives) >= 2
        assert objectives[-1] <= objectives[0]
        u_rows = (tmp_path / "factors_u.csv").read_text().splitlines()
        v_rows = (tmp_path / "factors_v.csv").read_text().splitlines()
        assert len(u_rows) == 60 and len(u_rows[0].split(",")) == 4
        assert len(v_rows[0].split(",")) == 4

    def test_lambda_flag_sets_step_size(self, tmp_path, capsys):
        # A single-cell matrix converges to a near-perfect fit only if the
        # larger step size actually reaches the trainer.
        matrix_path = tmp_path / "one.csv"
        matrix_path.write_text("N,1\nM,1\n0,0,1\n")
        trace_path = tmp_path / "trace.csv"
        prefix = str(tmp_path / "f")
        code, _, _ = _run(
            capsys, "train", "--matrix", str(matrix_path), "--d", "1",
            "--lambda", "0.05", "--gamma1", "0", "--gamma2", "0", "--mu", "0",
            "--max-iters", "200", "--seed", "0",
            "--trace", str(trace_path), "--factors", prefix,
        )
        assert code == 0
        u = float((tmp_path / "f_u.csv").read_text().strip())
        v = float((tmp_path / "f_v.csv").read_text().strip())
        assert abs(u * v - 1.0) < 1e-2

    def test_factor_csv_bytes(self, tmp_path):
        path = tmp_path / "f.csv"
        _write_factor_csv(DenseMatrix([[0.0, 1e-05], [0.1, 1e16]]), path)
        assert path.read_bytes() == b"0.0,1e-05\n0.1,1e+16\n"


class TestEval:
    def test_sweep_results_csv(self, records_file, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.csv"
        _run(capsys, "ingest", "--in", str(records_file), "--hashtag", "h0",
             "--out", str(matrix_path))
        results_path = tmp_path / "results.csv"
        code, out, _ = _run(
            capsys, "eval", "--matrix", str(matrix_path),
            "--methods", "hcwmf,markov,random", "--fractions", "30",
            "--dims", "5", "--max-iters", "80", "--seed", "4",
            "--out", str(results_path),
        )
        assert code == 0 and "3 result rows" in out
        table = ResultsTable.from_csv(results_path)
        assert [r.method for r in table.rows] == ["hcwmf", "markov", "random"]
        assert all(r.dataset == "matrix" for r in table.rows)
        assert all(r.error == "" for r in table.rows)

    def test_clamp_flag_clips_scores(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hcwmf.harness.random_predict", lambda n, seed: np.full(n, 2.0))
        matrix_path = tmp_path / "matrix.csv"
        matrix_path.write_text("N,2\nM,3\n0,1,1\n1,2,1\n")
        results_path = tmp_path / "results.csv"
        code, _, _ = _run(
            capsys, "eval", "--matrix", str(matrix_path), "--methods", "random",
            "--fractions", "50", "--dims", "2", "--clamp", "--out", str(results_path),
        )
        assert code == 0
        # Unclamped, every score of 2.0 would miss its positive by 1.0.
        (row,) = ResultsTable.from_csv(results_path).rows
        assert row.rmse == 0.0


class TestTTest:
    def test_json_to_stdout(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _run(capsys, "synth", "--users", "50", "--bins", "24", "--hashtags", "3",
             "--repeat-prob", "0.7", "--seed", "6", "--out", str(corpus))
        code, out, _ = _run(capsys, "ttest", "--records", str(corpus), "--seed", "1")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) == {"t", "df", "p", "alpha", "reject"}
        assert payload["alpha"] == 0.01
        assert isinstance(payload["reject"], bool)

    def test_json_to_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _run(capsys, "synth", "--users", "50", "--bins", "24", "--hashtags", "3",
             "--repeat-prob", "0.7", "--seed", "6", "--out", str(corpus))
        out_path = tmp_path / "ttest.json"
        code, _, _ = _run(capsys, "ttest", "--records", str(corpus),
                          "--seed", "1", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert 0.0 <= payload["p"] <= 1.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_reports_skipped_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.ndjson"
        _run(capsys, "synth", "--users", "50", "--bins", "24", "--hashtags", "3",
             "--repeat-prob", "0.7", "--seed", "6", "--out", str(corpus))
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text(corpus.read_text() + "not json\n")
        code, out, err = _run(capsys, "ttest", "--records", str(dirty), "--seed", "1")
        assert code == 0
        assert "skipped 1 malformed line(s)" in err
        assert set(json.loads(out.strip().splitlines()[-1])) == {"t", "df", "p", "alpha", "reject"}

    @pytest.mark.parametrize("alpha", ["7", "nan"])
    def test_alpha_outside_the_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        corpus = tmp_path / "corpus.ndjson"
        _run(capsys, "synth", "--users", "20", "--bins", "12", "--hashtags", "3",
             "--repeat-prob", "0.7", "--seed", "6", "--out", str(corpus))
        code, out, err = _run(capsys, "ttest", "--records", str(corpus), "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha must be in (0, 1)")


class TestErrorHandling:
    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "train", "--matrix", str(tmp_path / "nope.csv"),
            "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_matrix_that_is_not_utf8_is_named(self, tmp_path, capsys):
        matrix_path = tmp_path / "bad.csv"
        matrix_path.write_bytes(b"\xff\n")
        code, _, err = _run(
            capsys, "train", "--matrix", str(matrix_path), "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert err.startswith(f"error: {matrix_path}: not UTF-8 text")

    def test_invalid_config_value(self, tmp_path, capsys):
        matrix_path = tmp_path / "one.csv"
        matrix_path.write_text("N,1\nM,1\n0,0,1\n")
        code, _, err = _run(
            capsys, "train", "--matrix", str(matrix_path), "--rel-tol", "0",
            "--trace", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert "rel_tol" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_allocation_failure_reports_through_handler(self, command, tmp_path, capsys):
        # A 2**20 x 2**30 shape asks for an 8 PiB dense mask, which numpy
        # refuses at once without committing any memory.
        matrix_path = tmp_path / "huge.csv"
        matrix_path.write_text("N,1048576\nM,1073741824\n0,0,1\n")
        out_flag = "--trace" if command == "train" else "--out"
        code, _, err = _run(
            capsys, command, "--matrix", str(matrix_path), out_flag, str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert err.startswith("error: Unable to allocate")

    def test_unknown_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--users", "5"])

    def test_parser_builds(self):
        assert build_parser().prog == "hcwmf"
