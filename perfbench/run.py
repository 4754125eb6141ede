"""hcwmf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (set-up), then repeats the
workload's hcwmf command sequence, each repetition in a fresh process, until
S seconds are used; set-up is timed again between repetitions.  Every output
and exact count is checked against the pinned reference in reference/.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced repetitions and reports the per-layer metrics.  The last
stdout line is the result JSON.
Files go to .bench_out/ at the repository root.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))

import check  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

# Set-up runs in bursts: one before the first repetition and one after each
# repetition while set-up has used less than SETUP_SHARE of the repetitions'
# time.  A burst repeats generation until it has lasted SETUP_BURST_S.
# setup_s so samples the whole run rather than one moment of it; it is the
# block median of all generations, like wall_s.
SETUP_BURST_S = 0.25
SETUP_SHARE = 0.10
# A run must end within 180 s; a stuck repetition is killed before that.
RUN_DEADLINE_S = 170
# Shortest block of repetitions (or generations) whose mean enters the
# wall_s (or setup_s) median.
BLOCK_S = 8.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

LAYERS = ("cli", "dataio", "linalg", "masks", "harness", "factorization", "baselines", "stats")

# Per-layer time metric -> the span whose durations it totals.
SPAN_METRICS = {
    "dataio.parse_records_s": "dataio.parse_records",
    "dataio.bin_records_s": "dataio.bin_records",
    "dataio.cumulative_counts_s": "dataio.cumulative_counts",
    "dataio.save_matrix_csv_s": "dataio.save_matrix_csv",
    "dataio.load_matrix_csv_s": "dataio.load_matrix_csv",
    "linalg.to_array_s": "linalg.to_array",
    "linalg.low_rank_product_s": "linalg.low_rank_product",
    "masks.build_indicator_s": "masks.build_indicator",
    "masks.build_attenuation_s": "masks.build_attenuation",
    "harness.split_mask_s": "harness.split_mask",
    "harness.rmse_s": "harness.rmse",
    "factorization.train_s": "factorization.train",
    "factorization.predict_s": "factorization.predict",
    "baselines.fit_markov_s": "baselines.fit_markov",
    "baselines.predict_markov_s": "baselines.predict_markov",
    "baselines.fit_ar_s": "baselines.fit_ar",
    "baselines.predict_ar_s": "baselines.predict_ar",
    "stats.build_consistency_vectors_s": "stats.build_consistency_vectors",
    "stats.welch_ttest_s": "stats.welch_ttest_one_sided",
}

COUNT_METRICS = (
    "dataio.events",
    "linalg.nnz",
    "harness.held_out_cells",
    "harness.error_rows",
    "baselines.ar_rows",
    "stats.users",
)

# Counts that must repeat exactly from run to run and match the reference;
# every repetition, traced or not, records them.
DRIFT_COUNTS = (
    "factorization.fit_iters",
    "dataio.events",
    "linalg.nnz",
    "harness.held_out_cells",
    "baselines.ar_rows",
)

COMMANDS = ("ingest", "train", "eval", "ttest")

PER_LAYER = (
    [(name, "s") for name in SPAN_METRICS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"cli.{cmd}_s", "s") for cmd in COMMANDS]
    + [(name, "count") for name in COUNT_METRICS]
    + [
        ("factorization.iters", "count"),
        ("factorization.iter_ms", "ms"),
        ("factorization.objective_ms", "ms"),
        ("factorization.grad_u_ms", "ms"),
        ("factorization.grad_v_ms", "ms"),
        ("factorization.converged_frac", "ratio"),
        ("factorization.zero_u_frac", "ratio"),
        ("factorization.zero_v_frac", "ratio"),
        ("factorization.flops_per_iter_computed", "flop"),
        ("factorization.bytes_per_iter_computed", "B"),
        ("masks.dense_bytes_computed", "B"),
        ("baselines.ar_fallback_frac", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unaccounted_s", "s"),
        ("trace.spans", "count"),
    ]
)


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "config": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
                    return info
    return info


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(
    mode: str, commands, rep_dir: Path, spans_path: Path | None = None, run_id: str = "",
    timeout: float = RUN_DEADLINE_S,
) -> dict:
    """Run one repetition in a fresh process; returns its result JSON.

    A crash or timeout yields a result whose every step has rc 1.
    """
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "child-result.json"
    spec = {
        "mode": mode,
        "src": str(SRC),
        "commands": [list(argv) for argv in commands],
        "result": str(result_path),
        "spans": str(spans_path),
        "run_id": run_id,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=rep_dir, capture_output=True, text=True, timeout=timeout,
        )
        detail = proc.stderr.strip()
    except subprocess.TimeoutExpired:
        detail = f"timed out after {timeout:.0f} s"
    if detail:
        print(f"[{mode} {rep_dir.name}] {detail[-2000:]}", file=sys.stderr)
    if result_path.is_file():
        return json.loads(result_path.read_text())
    return {"steps": [{"command": argv[0], "rc": 1, "seconds": 0.0} for argv in commands]}


def check_outputs(wl, result: dict, rep_dir: Path, ref: dict | None) -> list[list[str]]:
    """Problems of each command (one list per op) of one repetition."""
    problems = []
    for cmd, step in zip(wl.commands, result["steps"]):
        found = []
        if step["rc"] != 0:
            found.append(f"{cmd.argv[0]} exited with {step['rc']}")
        for name in cmd.outputs:
            path = rep_dir / name
            if ref is None:
                found.append(f"{name}: no pinned reference")
            else:
                found += check.compare(ref["outputs"][name], path)
            if name == "eval.csv" and path.is_file() and check.error_rows(path):
                found.append(f"{name}: {check.error_rows(path)} error row(s)")
        problems.append(found)
    return problems


def drift(counts: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return []
    return [
        f"drift: {key} = {counts.get(key)} but the reference has {ref['counts'].get(key)}"
        for key in DRIFT_COUNTS
        if counts.get(key) != ref["counts"].get(key)
    ]


def run_workload(wl, seed: int, seconds: float, trace: bool, reference: dict, out: Path = OUT) -> dict:
    """Set up and measure one workload; returns metrics, op counts and raw data."""
    ref = reference.get(str(seed % VARIANTS))
    run_started = time.perf_counter()
    stamp = f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = out / f"work-{stamp}"
    inputs = work / "in"
    setup, digests = [], set()

    def set_up() -> None:
        burst = time.perf_counter()
        while True:
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.make_inputs(inputs, wl.generator_seed(seed))
            setup.append(time.perf_counter() - t0)
            digests.add(_digest(inputs))
            if time.perf_counter() - burst >= SETUP_BURST_S:
                break

    try:
        set_up()
        commands = [cmd.argv for cmd in wl.commands]
        plain, traced, problems = [], [], []
        ops = failed = 0
        measured = 0.0
        rep = 0
        while True:
            rep_started = time.perf_counter()
            modes = ("plain", "traced") if trace else ("plain",)
            for mode in modes:
                rep_dir = work / f"{mode}{rep}"
                spans = out / f"spans-{stamp}-rep{rep}.jsonl"
                left = RUN_DEADLINE_S - (time.perf_counter() - run_started)
                result = run_child(mode, commands, rep_dir, spans, f"{stamp}-rep{rep}", max(left, 1.0))
                per_op = check_outputs(wl, result, rep_dir, ref)
                per_op[-1] += drift(result.get("counts", {}), ref)
                (traced if mode == "traced" else plain).append(result)
                ops += len(per_op)
                failed += sum(1 for found in per_op if found)
                problems += [p for found in per_op for p in found]
                shutil.rmtree(rep_dir)
            rep += 1
            rep_s = time.perf_counter() - rep_started
            measured += rep_s
            if measured + 0.5 * rep_s >= seconds:
                break
            if sum(setup) < SETUP_SHARE * measured:
                set_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(digests) != 1:
        problems.append("set-up produced different inputs on repeated runs")
    counts = [r.get("counts") for r in plain + traced]
    if any(c != counts[0] for c in counts):
        problems.append("drift: exact counts differ between repetitions")
        failed += 1
    metrics = layer_metrics(plain, traced) if trace else end_to_end_metrics(setup, plain)
    return {
        "workload": wl.name,
        "seed": seed,
        "variant": seed % VARIANTS,
        "generator_seed": wl.generator_seed(seed),
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": ops,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "setup_s": setup,
        "plain": plain,
        "traced": [{k: v for k, v in r.items() if k != "counts"} for r in traced],
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _block_median(values) -> float:
    """Median over blocks of consecutive timings of their mean.

    The host's speed switches between regimes that last seconds, so the
    median of timings much shorter than that flips between regimes from run
    to run.  Blocks of at least BLOCK_S seconds blend them; timings longer
    than that are blocks of their own.
    """
    if not values:
        return 0.0
    k = max(1, round(BLOCK_S / statistics.median(values)))
    blocks = [values[i : i + k] for i in range(0, len(values), k)]
    if len(blocks) > 1 and len(blocks[-1]) < k:
        tail = blocks.pop()
        blocks[-1] += tail
    return statistics.median(statistics.fmean(b) for b in blocks)


def _command_seconds(results, command: str) -> float:
    if all(s["command"] != command for s in results[0]["steps"]):
        return 0.0
    return _median([sum(s["seconds"] for s in r["steps"] if s["command"] == command) for r in results])


def end_to_end_metrics(setup, plain) -> dict:
    values = {
        "setup_s": _block_median(setup),
        "wall_s": _block_median([r.get("wall_s", 0.0) for r in plain]),
        "peak_rss_mb": _median([r.get("peak_rss_mb", 0.0) for r in plain]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(plain, traced) -> dict:
    # All per-layer values come from one traced repetition, the one with the
    # median wall time, so its layer self times add up to its wall time.
    rep = sorted(traced, key=lambda r: r.get("wall_s", 0.0))[(len(traced) - 1) // 2]
    spans, self_s, counts = rep.get("span_s", {}), rep.get("self_s", {}), rep.get("counts", {})
    values = {metric: spans.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    values.update({f"cli.{cmd}_s": _command_seconds(plain, cmd) for cmd in COMMANDS})
    values.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    iters = sum(counts.get("factorization.fit_iters") or [])
    ar_rows = counts.get("baselines.ar_rows", 0)
    untraced = _median([r.get("wall_s", 0.0) for r in plain])
    values.update(
        {
            "factorization.iters": iters,
            "factorization.iter_ms": 1000.0 * values["factorization.train_s"] / iters if iters else 0.0,
            "masks.dense_bytes_computed": counts.get("masks.dense_bytes_computed", 0),
            "baselines.ar_fallback_frac": counts.get("baselines.ar_fallbacks", 0) / ar_rows if ar_rows else 0.0,
            "trace.wall_s": rep.get("wall_s", 0.0),
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": rep.get("wall_s", 0.0) - untraced,
            "trace.unaccounted_s": rep.get("unaccounted_s", 0.0),
            "trace.spans": rep.get("n_spans", 0),
        }
    )
    for name in (
        "objective_ms", "grad_u_ms", "grad_v_ms", "converged_frac", "zero_u_frac",
        "zero_v_frac", "flops_per_iter_computed", "bytes_per_iter_computed",
    ):
        values[f"factorization.{name}"] = rep.get(f"factorization.{name}", 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def render(result: dict, env: dict) -> list[str]:
    """Human-readable lines, then the result JSON as the last line."""
    blas = env["blas"]
    lines = [
        f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
        f"blas={blas['name']} {blas['version']} blas_threads={blas['threads']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']}",
        f"workload {result['workload']} seed {result['seed']} "
        f"(variant {result['variant']}, generator seed {result['generator_seed']})",
    ]
    if not result["trace"]:
        for cmd in COMMANDS:
            if any(s["command"] == cmd for s in result["plain"][0]["steps"]):
                lines.append(f"{cmd}_s {_command_seconds(result['plain'], cmd):.6g} s (untraced, median)")
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"ops {result['attempted']} ops_failed {result['failed']}")
    lines += [f"problem: {p}" for p in result["problems"]]
    lines.append(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hcwmf" / "__init__.py").is_file():
        print(f"error: hcwmf package source not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    OUT.mkdir(exist_ok=True)
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_reference(args.workload)
    )
    result["environment"] = env
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    print("\n".join(render(result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
