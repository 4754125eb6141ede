"""One repetition of a workload's command sequence, in a fresh process.

    python3 child.py SPEC_JSON

SPEC_JSON names the package source directory, the mode ("plain" or
"traced"), the command argv lists and the file the result JSON goes to.
Both modes run ``hcwmf.cli.main`` on each argv.  Before that, the public
library functions are wrapped at the module attributes through which the
CLI, the harness and the other modules look them up at call time, so the
program makes its own calls and the wrappers see them:

* "plain" wraps only the few calls that give the exact counts (fits,
  events, nnz, held-out cells, AR rows), and times nothing but the commands;
* "traced" wraps every call of HOOKS in a span as well.

The library itself carries no tracing.  Running in its own process keeps
input generation out of the peak RSS and gives every repetition the same
cold start.
"""

import importlib
import json
import resource
import sys
import time
import traceback


def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


# Counters read from a wrapped call's arguments and return value.  Each takes
# the tracer, the result, then the call's own arguments.


def _parsed(tr, result, *args, **kwargs):
    _add(tr.counts, "dataio.events", len(result[0]))


def _matrix(tr, result, *args, **kwargs):
    _add(tr.counts, "linalg.nnz", result.nnz)


def _split(tr, result, *args, **kwargs):
    _add(tr.counts, "harness.held_out_cells", len(result[1]))


def _masks(tr, result, x_train, *args, **kwargs):
    # Computed: the two dense float64 N x M masks a build holds.
    _add(tr.counts, "masks.dense_bytes_computed", 2 * 8 * x_train.rows * x_train.cols)


def _ar_fit(tr, result, *args, **kwargs):
    _add(tr.counts, "baselines.ar_rows", 1)
    # fit_ar falls back to an intercept-only model on a rank-deficient design.
    _add(tr.counts, "baselines.ar_fallbacks", int(not any(result.coefficients)))


def _vectors(tr, result, *args, **kwargs):
    _add(tr.counts, "stats.users", len(result.hc_u))


def _sweep(tr, result, *args, **kwargs):
    _add(tr.counts, "harness.error_rows", sum(1 for row in result.rows if row.error))


def _fit(tr, result, x, masks, cfg=None):
    from hcwmf.factorization import TrainConfig

    cfg = cfg if cfg is not None else TrainConfig()
    factors, trace = result
    u, v = factors.u.data, factors.v.data
    tr.fits.append(
        {
            "rows": x.rows, "cols": x.cols, "d": cfg.d, "mu": cfg.mu,
            "iters": trace.iterations_run, "converged": trace.converged,
            "zero_u": int((u == 0).sum()), "size_u": u.size,
            "zero_v": int((v == 0).sum()), "size_v": v.size,
        }
    )
    if tr.timed:
        # The sparse input only, for the kernel timings after the run: holding
        # a fit's dense arrays would slow the later fits' allocations.
        tr.fit_inputs.append(x)


# (module, attribute, span name, counter).  The module is where the caller
# looks the attribute up; a class attribute is given as "module:Class".
HOOKS = (
    ("hcwmf.cli", "parse_records", "dataio.parse_records", _parsed),
    ("hcwmf.cli", "bin_records", "dataio.bin_records", _matrix),
    ("hcwmf.cli", "cumulative_counts", "dataio.cumulative_counts", None),
    ("hcwmf.cli", "save_matrix_csv", "dataio.save_matrix_csv", None),
    ("hcwmf.cli", "save_cumulative_csv", "dataio.save_cumulative_csv", None),
    ("hcwmf.cli", "load_matrix_csv", "dataio.load_matrix_csv", _matrix),
    ("hcwmf.cli", "build_masks", "masks.build_masks", _masks),
    ("hcwmf.cli", "train", "factorization.train", _fit),
    ("hcwmf.cli", "run_sweep", "harness.run_sweep", _sweep),
    ("hcwmf.cli", "build_consistency_vectors", "stats.build_consistency_vectors", _vectors),
    ("hcwmf.cli", "welch_ttest_one_sided", "stats.welch_ttest_one_sided", None),
    ("hcwmf.harness", "split_mask", "harness.split_mask", _split),
    ("hcwmf.harness", "build_masks", "masks.build_masks", _masks),
    ("hcwmf.harness", "train", "factorization.train", _fit),
    ("hcwmf.harness", "predict", "factorization.predict", None),
    ("hcwmf.harness", "fit_markov", "baselines.fit_markov", None),
    ("hcwmf.harness", "predict_markov", "baselines.predict_markov", None),
    ("hcwmf.harness", "fit_ar", "baselines.fit_ar", _ar_fit),
    ("hcwmf.harness", "predict_ar", "baselines.predict_ar", None),
    ("hcwmf.harness", "random_predict", "baselines.random_predict", None),
    ("hcwmf.harness", "rmse", "harness.rmse", None),
    ("hcwmf.harness:ResultsTable", "to_csv", "harness.to_csv", None),
    ("hcwmf.masks", "build_indicator", "masks.build_indicator", None),
    ("hcwmf.masks", "build_attenuation", "masks.build_attenuation", None),
    ("hcwmf.factorization", "low_rank_product", "linalg.low_rank_product", None),
    ("hcwmf.linalg:SparseBinaryMatrix", "to_array", "linalg.to_array", None),
)


class Tracer:
    """Spans (name, start ns, end ns, parent index), counters and fit summaries."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.active = True
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.fits: list[dict] = []
        self.fit_inputs: list = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        for target, attr, name, counter in HOOKS:
            if counter is None and not self.timed:
                continue
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counter))

    def _wrap(self, fn, name, counter):
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs) if self.timed else fn(*args, **kwargs)
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        return wrapped


def _status(run) -> int:
    try:
        return run()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _self_times(spans) -> dict:
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns: dict[str, int] = {}
    for (name, start, end, _), child_ns in zip(spans, covered):
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + (end - start) - child_ns
    return {layer: ns / 1e9 for layer, ns in self_ns.items()}


def dense_iter_cost(n: int, m: int, d: int, mu: float) -> tuple[int, int]:
    """Computed flops and bytes of one dense training iteration.

    An iteration is two gradient evaluations and one objective.  Counted:
    each N x M x d product as 2NMd flops and each elementwise N x M op as
    NM flops; bytes are 8 per float64 N x M element read or written (one
    pass each for a product's output, two in and one out for a binary
    op).  A gradient evaluation makes 6NMd + 2NM flops over 9 passes, plus
    4NMd + 3NM flops over 9 passes when mu > 0; the objective makes
    2NMd + 4NM flops over 10 passes, plus 4NM over 8 when mu > 0.
    O((N + M) d) terms are left out, and caches are ignored.
    """
    nm = n * m
    if mu > 0:
        flops = 2 * (10 * nm * d + 5 * nm) + 2 * nm * d + 8 * nm
        passes = 2 * 18 + 18
    else:
        flops = 2 * (6 * nm * d + 2 * nm) + 2 * nm * d + 4 * nm
        passes = 2 * 9 + 10
    return flops, passes * 8 * nm


def _kernel_ms(fits, inputs) -> dict:
    """Mean time of one call of each public dense kernel at each fit's size.

    Measured after the commands, on each fit's sparse input with an all-ones
    indicator and seeded uniform factors, so no fit's dense arrays are held
    while the commands run.
    """
    import numpy as np
    from hcwmf.factorization import FactorPair, TrainConfig, grad_u, grad_v, objective
    from hcwmf.linalg import DenseMatrix
    from hcwmf.masks import HeldOutSet, build_masks

    elapsed = {"objective": 0.0, "grad_u": 0.0, "grad_v": 0.0}
    masks = {}
    for fit, x in zip(fits, inputs):
        if id(x) not in masks:
            masks[id(x)] = build_masks(x, HeldOutSet.of(()))
        rng = np.random.default_rng(0)
        high = 1.0 / fit["d"] ** 0.5
        factors = FactorPair(
            u=DenseMatrix(rng.uniform(0.0, high, (x.rows, fit["d"]))),
            v=DenseMatrix(rng.uniform(0.0, high, (x.cols, fit["d"]))),
        )
        cfg = TrainConfig(d=fit["d"], mu=fit["mu"])
        for name, fn in (("objective", objective), ("grad_u", grad_u), ("grad_v", grad_v)):
            t0 = time.perf_counter()
            fn(x, masks[id(x)], factors, cfg)
            elapsed[name] += time.perf_counter() - t0
    return {f"factorization.{name}_ms": 1000.0 * s / len(fits) for name, s in elapsed.items()}


def _fit_values(fits) -> dict:
    total = sum(fit["iters"] for fit in fits)
    costs = [dense_iter_cost(f["rows"], f["cols"], f["d"], f["mu"]) for f in fits]
    return {
        "factorization.converged_frac": sum(f["converged"] for f in fits) / len(fits),
        "factorization.zero_u_frac": sum(f["zero_u"] for f in fits) / sum(f["size_u"] for f in fits),
        "factorization.zero_v_frac": sum(f["zero_v"] for f in fits) / sum(f["size_v"] for f in fits),
        "factorization.flops_per_iter_computed": sum(c[0] * f["iters"] for c, f in zip(costs, fits)) / total,
        "factorization.bytes_per_iter_computed": sum(c[1] * f["iters"] for c, f in zip(costs, fits)) / total,
    }


def run(commands, timed: bool) -> tuple[dict, Tracer]:
    from hcwmf import cli

    tr = Tracer(timed)
    tr.install()
    steps = []
    start = time.perf_counter_ns()
    for argv in commands:
        t0 = time.perf_counter_ns()
        if timed:
            rc = _status(lambda: tr.span(f"cli.{argv[0]}", cli.main, argv))
        else:
            rc = _status(lambda: cli.main(argv))
        steps.append({"command": argv[0], "rc": rc, "seconds": (time.perf_counter_ns() - t0) / 1e9})
    wall_ns = time.perf_counter_ns() - start
    tr.active = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tr.counts["factorization.fit_iters"] = [fit["iters"] for fit in tr.fits]
    result = {"steps": steps, "wall_s": wall_ns / 1e9, "peak_rss_mb": peak_kib / 1024.0, "counts": tr.counts}
    return result, tr


def _traced_values(result: dict, tr: Tracer) -> dict:
    span_s: dict[str, float] = {}
    for name, t0, t1, _ in tr.spans:
        span_s[name] = span_s.get(name, 0.0) + (t1 - t0) / 1e9
    self_s = _self_times(tr.spans)
    values = {
        "span_s": span_s,
        "self_s": self_s,
        "unaccounted_s": result["wall_s"] - sum(self_s.values()),
        "n_spans": len(tr.spans),
    }
    if tr.fits:
        values.update(_fit_values(tr.fits))
        values.update(_kernel_ms(tr.fits, tr.fit_inputs))
    return values


def _write_spans(tr: Tracer, path, run_id: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, t0, t1, parent) in enumerate(tr.spans):
            record = {"run": run_id, "id": i, "name": name, "start_ns": t0, "end_ns": t1, "parent": parent}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    timed = spec["mode"] == "traced"
    result, tr = run(spec["commands"], timed)
    if timed:
        result.update(_traced_values(result, tr))
        _write_spans(tr, spec["spans"], spec["run_id"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
