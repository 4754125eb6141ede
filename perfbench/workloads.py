"""Benchmark workloads: seeded input files plus the hcwmf commands run on them.

Every workload's inputs come from the package's own seeded generators with the
settings of an acceptance test, scaled up.  ``--seed`` picks one of
``VARIANTS`` generator seeds (seed 0 reproduces the acceptance settings
exactly), and each variant's outputs are pinned in ``reference/``, so any seed
can be checked against a stored reference.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VARIANTS = 16

# Commands run from a per-repetition directory; inputs live in its sibling.
IN = "../in"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_seed: int
    make_inputs: Callable[[Path, int], None]
    commands: tuple[Command, ...]

    def generator_seed(self, seed: int) -> int:
        return self.base_seed + seed % VARIANTS


def _trending_records(n_users: int, seed: int):
    # Acceptance-03 settings: onsets almost all in the first bin, positives
    # two hourly bins apart (generated at 7200 s, binned at 3600 s).
    from hcwmf import SynthConfig, generate_synthetic

    cfg = SynthConfig(n_users, 14, trend_decay=0.98, repeat_decay=0.0, seed=seed)
    return generate_synthetic(cfg, bin_seconds=7200)


def build(n_sweep: int = 500, n_pipeline: int = 20_000, n_corpus: int = 10_000) -> dict:
    """The workloads by name; the self-test builds them at tiny sizes."""

    def sweep_inputs(dest: Path, seed: int) -> None:
        from hcwmf import bin_records, save_matrix_csv

        x = bin_records(_trending_records(n_sweep, seed), "h0", bin_seconds=3600, m=168)
        save_matrix_csv(x, dest / "matrix.csv")

    def pipeline_inputs(dest: Path, seed: int) -> None:
        from hcwmf import write_records

        write_records(_trending_records(n_pipeline, seed), dest / "events.ndjson")

    def corpus_inputs(dest: Path, seed: int) -> None:
        from hcwmf import SynthConfig, generate_corpus, write_records

        # Acceptance-06 settings: repeat-heavy users over a shared pool.
        cfg = SynthConfig(
            n_corpus, 48, trend_decay=0.15, repeat_prob=0.7, repeat_decay=0.1, seed=seed
        )
        write_records(generate_corpus(cfg, 12), dest / "corpus.ndjson")

    short_fit = ("--max-iters", "10", "--rel-tol", "1e-30")
    workloads = [
        Workload(
            name="sweep-500",
            why="eval of every method at fractions 10/30/50, d=10: per-iteration trainer cost "
            "(mu>0 and mu=0 paths) is ~98% of the time",
            base_seed=11,
            make_inputs=sweep_inputs,
            commands=(
                Command(
                    ("eval", "--matrix", f"{IN}/matrix.csv", "--methods", "hcwmf,wmf,markov,ar,random",
                     "--fractions", "10,30,50", "--dims", "10", "--seed", "2", "--out", "eval.csv"),
                    ("eval.csv",),
                ),
            ),
        ),
        Workload(
            name="pipeline-20k",
            why="ingest, short d=20 train and eval at large N: Python-loop data layers, masks, "
            "baselines and dense NxM memory dominate",
            base_seed=11,
            make_inputs=pipeline_inputs,
            commands=(
                Command(
                    ("ingest", "--in", f"{IN}/events.ndjson", "--hashtag", "h0", "--cols", "168",
                     "--out", "matrix.csv"),
                    ("matrix.csv",),
                ),
                Command(
                    ("train", "--matrix", "matrix.csv", "--d", "20", *short_fit,
                     "--trace", "trace.csv", "--factors", "factors"),
                    ("trace.csv", "factors_u.csv", "factors_v.csv"),
                ),
                Command(
                    ("eval", "--matrix", "matrix.csv", "--methods", "hcwmf,markov,ar",
                     "--fractions", "30", "--dims", "20", *short_fit, "--seed", "2",
                     "--out", "eval.csv"),
                    ("eval.csv",),
                ),
            ),
        ),
        Workload(
            name="ttest-corpus",
            why="multi-hashtag ingest and ttest with no factorization: trainer changes must "
            "not move it; the only workload that runs stats",
            base_seed=21,
            make_inputs=corpus_inputs,
            commands=(
                Command(
                    ("ingest", "--in", f"{IN}/corpus.ndjson", "--hashtag", "h00",
                     "--out", "matrix.csv", "--cumulative-out", "cumulative.csv"),
                    ("matrix.csv", "cumulative.csv"),
                ),
                Command(
                    ("ttest", "--records", f"{IN}/corpus.ndjson", "--seed", "5",
                     "--out", "ttest.json"),
                    ("ttest.json",),
                ),
            ),
        ),
    ]
    return {w.name: w for w in workloads}


WORKLOADS = build()
