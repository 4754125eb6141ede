"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds every workload at a few dozen users, pins a reference for variant 0,
and checks that:
  * runs in both modes fail no op and print exactly the metrics of
    BENCHMARK.json, each with its unit;
  * a reference perturbed beyond the tolerance (an output value, an output
    digest, an exact count in a traced or a plain run) turns into failed
    ops, while one perturbed within the tolerance does not.
Exits 0 when every check holds.
"""

import copy
import json
import sys

import record
import run
from workloads import build

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OUT = run.OUT / "selftest"


def _last_json(result) -> dict:
    return json.loads(run.render(result, run.environment())[-1])


def _failed(wl, ref, trace=False) -> int:
    return run.run_workload(wl, 0, 0.0, trace, {"0": ref}, OUT)["failed"]


def _perturbations(ref):
    """(label, reference copy, should fail, traced) cases for one workload."""
    cases = []
    for name, fp in ref["outputs"].items():
        bad_digest = copy.deepcopy(ref)
        bad_digest["outputs"][name]["sha256"] = "0" * 64
        should_fail = "values" not in fp
        cases.append((f"{name} digest only", bad_digest, should_fail, False))
        if name in ("eval.csv", "trace.csv"):
            for scale, fails in ((1 + 1e-3, True), (1 + 1e-9, False)):
                bad_value = copy.deepcopy(bad_digest)
                row = bad_value["outputs"][name]["values"][1]
                row[-2 if name == "eval.csv" else -1] *= scale
                cases.append((f"{name} value x{scale}", bad_value, fails, False))
    bad_count = copy.deepcopy(ref)
    bad_count["counts"]["linalg.nnz"] += 1
    cases.append(("linalg.nnz count", bad_count, True, True))
    bad_iters = copy.deepcopy(ref)
    iters = bad_iters["counts"]["factorization.fit_iters"]
    iters[:1] = [iters[0] - 1] if iters else [1]
    cases.append(("iterations per fit", bad_iters, True, False))
    return cases


def main() -> int:
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    errors = []
    for wl in build(n_sweep=40, n_pipeline=60, n_corpus=60).values():
        ref = record.record_variant(wl, 0, OUT / f"record-{wl.name}")
        for trace in (0, 1):
            result = run.run_workload(wl, 0, 0.0, bool(trace), {"0": ref}, OUT)
            printed = {k: v["unit"] for k, v in _last_json(result)["metrics"].items()}
            if printed != expected[trace]:
                errors.append(f"{wl.name} trace {trace}: metrics {printed} != {expected[trace]}")
            if result["failed"] or not result["correct"]:
                errors.append(f"{wl.name} trace {trace}: {result['problems']}")
        for label, bad_ref, should_fail, traced in _perturbations(ref):
            failed = _failed(wl, bad_ref, traced)
            if bool(failed) != should_fail:
                errors.append(f"{wl.name}: perturbed {label} gave {failed} failed op(s)")
        print(f"{wl.name}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
