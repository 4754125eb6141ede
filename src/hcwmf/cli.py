"""Command-line front end: synth, ingest, train, eval, and ttest subcommands.

Every subcommand is deterministic given its flags: rerunning with the same
arguments and seed produces byte-identical output files.
"""

import argparse
import json
import sys
from pathlib import Path

from .dataio import (
    AdoptionRecords,
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
from .factorization import TrainConfig, train
from .harness import METHODS, run_sweep
from .masks import HeldOutSet
from .masks import build_masks  # noqa: F401  uncalled; hook hcwmf.cli.build_masks of perfbench/child.py
from .stats import build_consistency_vectors, welch_ttest_one_sided

__all__ = ["build_parser", "main"]


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma1", type=float, default=TrainConfig.gamma1, help="U regularization weight")
    p.add_argument("--gamma2", type=float, default=TrainConfig.gamma2, help="V regularization weight")
    p.add_argument("--mu", type=float, default=TrainConfig.mu, help="consistency term weight (0 disables)")
    p.add_argument(
        "--lambda",
        dest="learning_rate",
        type=float,
        default=TrainConfig.learning_rate,
        metavar="LAMBDA",
        help="gradient step size",
    )
    p.add_argument("--max-iters", type=int, default=TrainConfig.max_iters, help="iteration cap")
    p.add_argument("--rel-tol", type=float, default=TrainConfig.rel_tol, help="relative objective-change stop")


def _train_config(args, **fields) -> TrainConfig:
    return TrainConfig(
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        mu=args.mu,
        learning_rate=args.learning_rate,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        seed=args.seed,
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcwmf",
        description="Trending-hashtag adoption prediction: synthesize, ingest, train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic record file")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--users", type=int, required=True, help="number of users")
    p.add_argument("--bins", type=int, required=True, help="number of time bins")
    p.add_argument(
        "--repeat-prob", type=float, default=SynthConfig.repeat_prob, help="post-onset re-adoption probability"
    )
    p.add_argument("--trend-decay", type=float, default=SynthConfig.trend_decay, help="onset concentration rate")
    p.add_argument("--repeat-decay", type=float, default=SynthConfig.repeat_decay, help="re-adoption decay per bin")
    p.add_argument("--hashtags", type=int, default=1, help="number of hashtags to generate")
    p.add_argument(
        "--participation",
        type=float,
        default=0.35,
        help="per-(user, hashtag) participation probability for multi-hashtag corpora",
    )
    p.add_argument("--bin-seconds", type=int, default=3600, help="seconds between generated bins")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output record file (newline-delimited JSON)")

    p = sub.add_parser("ingest", help="bin a record file into a user-time matrix CSV")
    p.set_defaults(run=_cmd_ingest)
    p.add_argument("--in", dest="infile", required=True, help="input record file")
    p.add_argument("--hashtag", required=True, help="hashtag to bin")
    p.add_argument("--bin-seconds", type=int, default=3600)
    p.add_argument("--cols", type=int, default=None, help="matrix columns (default: +25%% headroom)")
    p.add_argument("--out", required=True, help="output matrix CSV (coordinate triplets)")
    p.add_argument(
        "--cumulative-out",
        default=None,
        help="also write the hashtag's cumulative (bin,tweets,users) CSV here",
    )

    p = sub.add_parser("train", help="fit the factorization on a matrix CSV")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--matrix", required=True, help="matrix CSV from ingest")
    p.add_argument("--d", type=int, default=TrainConfig.d, help="latent dimension")
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--trace", required=True, help="output objective trace CSV")
    p.add_argument("--factors", default=None, help="prefix for PREFIX_u.csv / PREFIX_v.csv dumps")

    p = sub.add_parser("eval", help="run the masked-RMSE sweep over methods")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--matrix", required=True, help="matrix CSV from ingest")
    p.add_argument("--methods", default=",".join(METHODS), help="comma-separated list")
    p.add_argument("--fractions", default="10,20,30,40,50", help="held-out percentages")
    p.add_argument("--dims", default="10", help="comma-separated latent dimensions")
    _add_train_flags(p)
    p.add_argument("--ar-order", type=int, default=2, help="autoregressive baseline order")
    p.add_argument("--clamp", action="store_true", help="clip predictions into [0,1] before RMSE")
    p.add_argument("--dataset", default=None, help="dataset tag for result rows (default: matrix stem)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True, help="output results CSV")

    p = sub.add_parser("ttest", help="one-sided consistency t-test on a record file")
    p.set_defaults(run=_cmd_ttest)
    p.add_argument("--records", required=True, help="input record file")
    p.add_argument("--alpha", type=float, default=0.01, help="significance level")
    p.add_argument("--seed", type=int, default=0, help="random partner assignment seed")
    p.add_argument("--out", default=None, help="write the JSON result here instead of stdout")

    return parser


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_users=args.users,
        n_bins=args.bins,
        trend_decay=args.trend_decay,
        repeat_prob=args.repeat_prob,
        repeat_decay=args.repeat_decay,
        seed=args.seed,
    )
    if args.hashtags == 1:
        records = generate_synthetic(cfg, bin_seconds=args.bin_seconds)
    else:
        records = generate_corpus(
            cfg, args.hashtags, participation=args.participation, bin_seconds=args.bin_seconds
        )
    write_records(records, args.out)
    print(f"wrote {len(records)} events to {args.out}")
    return 0


def _read_records(path):
    with open(path, "rb") as fh:
        records, skipped = parse_records(fh)
    if skipped:
        print(f"skipped {skipped} malformed line(s)", file=sys.stderr)
    return records


def _cmd_ingest(args) -> int:
    records = _read_records(args.infile)
    matrix = bin_records(records, args.hashtag, bin_seconds=args.bin_seconds, m=args.cols)
    save_matrix_csv(matrix, args.out)
    print(f"wrote {matrix.rows}x{matrix.cols} matrix ({matrix.nnz} positives) to {args.out}")
    if args.cumulative_out is not None:
        tagged = AdoptionRecords._checked(tuple(ev for ev in records if ev[1] == args.hashtag))
        save_cumulative_csv(cumulative_counts(tagged, args.bin_seconds), args.cumulative_out)
        print(f"wrote cumulative counts to {args.cumulative_out}")
    return 0


def _write_trace_csv(trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,objective\n")
        fh.write(f"0,{trace.initial_objective!r}\n")
        for i, obj in enumerate(trace.objective_per_iter, start=1):
            fh.write(f"{i},{obj!r}\n")


def _write_factor_csv(dense, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in dense.data:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def _cmd_train(args) -> int:
    x = load_matrix_csv(args.matrix)
    cfg = _train_config(args, d=args.d)
    factors, trace = train(x, HeldOutSet.of(()), cfg)
    _write_trace_csv(trace, args.trace)
    final = trace.objective_per_iter[-1] if trace.objective_per_iter else trace.initial_objective
    print(
        f"trained d={cfg.d} mu={cfg.mu}: {trace.iterations_run} iterations, "
        f"converged={trace.converged}, objective={final!r}"
    )
    if args.factors is not None:
        _write_factor_csv(factors.u, f"{args.factors}_u.csv")
        _write_factor_csv(factors.v, f"{args.factors}_v.csv")
        print(f"wrote factors to {args.factors}_u.csv and {args.factors}_v.csv")
    return 0


def _cmd_eval(args) -> int:
    x = load_matrix_csv(args.matrix)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    dims = [int(d) for d in args.dims.split(",") if d.strip()]
    cfg = _train_config(args)
    dataset = args.dataset if args.dataset is not None else Path(args.matrix).stem
    table = run_sweep(
        x,
        methods,
        fractions,
        dims,
        base_cfg=cfg,
        dataset=dataset,
        clamp=args.clamp,
        ar_order=args.ar_order,
    )
    table.to_csv(args.out)
    failures = sum(1 for r in table.rows if r.error)
    print(f"wrote {len(table.rows)} result rows to {args.out}" + (f" ({failures} failed)" if failures else ""))
    return 0


def _cmd_ttest(args) -> int:
    vectors = build_consistency_vectors(_read_records(args.records), seed=args.seed)
    result = welch_ttest_one_sided(vectors.hc_u, vectors.hc_r, alpha=args.alpha)
    payload = json.dumps(
        {
            "t": result.t_stat,
            "df": result.degrees_freedom,
            "p": result.p_value,
            "alpha": result.reject_at,
            "reject": result.reject,
        },
        separators=(",", ":"),
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
            fh.write("\n")
    else:
        print(payload)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
