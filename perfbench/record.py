"""Pin the reference outputs and exact counts of every workload variant.

    python3 perfbench/record.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.json.  Run it only at a commit whose
outputs are the accepted reference: every later benchmark run is checked
against these files.
"""

import json
import shutil
import sys
from pathlib import Path

import check
from run import OUT, run_child
from workloads import VARIANTS, WORKLOADS


def record_variant(wl, variant: int, work: Path) -> dict:
    """Reference of one variant: plain-run output fingerprints and exact counts.

    Raises RuntimeError if a command fails, or if the traced run's outputs or
    counts are not identical to the plain run's.
    """
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        wl.make_inputs(work / "in", wl.generator_seed(variant))
        commands = [cmd.argv for cmd in wl.commands]
        plain = run_child("plain", commands, work / "plain")
        traced = run_child("traced", commands, work / "traced", work / "spans.jsonl", "record")
        outputs = {}
        for cmd, p_step, t_step in zip(wl.commands, plain["steps"], traced["steps"]):
            if p_step["rc"] != 0 or t_step["rc"] != 0:
                raise RuntimeError(f"{wl.name} variant {variant}: {cmd.argv[0]} failed")
            for name in cmd.outputs:
                outputs[name] = check.fingerprint(work / "plain" / name)
                if check.fingerprint(work / "traced" / name)["sha256"] != outputs[name]["sha256"]:
                    raise RuntimeError(f"{wl.name} variant {variant}: traced {name} differs from plain")
                if name == "eval.csv" and check.error_rows(work / "plain" / name):
                    raise RuntimeError(f"{wl.name} variant {variant}: error rows in {name}")
        if traced["counts"] != plain["counts"]:
            raise RuntimeError(f"{wl.name} variant {variant}: traced counts differ from plain")
        return {"outputs": outputs, "counts": plain["counts"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names) -> int:
    out_dir = Path(__file__).resolve().parent / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        reference = {}
        for variant in range(VARIANTS):
            reference[str(variant)] = record_variant(wl, variant, OUT / f"record-{name}")
            print(f"{name} variant {variant}: {reference[str(variant)]['counts']}", flush=True)
        (out_dir / f"{name}.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
