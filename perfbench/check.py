"""Output fingerprints and their comparison against the pinned reference.

Outputs must match the reference byte for byte where possible.  When the
bytes differ, files holding floats (eval rows, train trace, factors, ttest
JSON) are compared value by value within ``RTOL``/``ATOL``; files holding only
integers (matrix and cumulative CSVs) must match exactly.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _values(path: Path):
    name = path.name
    if name.startswith("factors_"):
        rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
        sums = [math.fsum(col) for col in zip(*rows)]
        return {"rows": len(rows), "column_sums": sums}
    if name.endswith(".json"):
        return json.loads(path.read_text())
    if name in ("eval.csv", "trace.csv"):
        with open(path, newline="") as fh:
            return [[_number(c) for c in row] for row in csv.reader(fh)]
    return None


def fingerprint(path: Path) -> dict:
    """sha256 of the file plus, for float-bearing files, its values."""
    fp = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    values = _values(path)
    if values is not None:
        fp["values"] = values
    return fp


def _diff(ref, got, where: str) -> list[str]:
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: {got!r} differs from {ref!r} beyond rtol {RTOL}"]
    if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in _diff(r, g, f"{where}[{i}]")]
    if isinstance(ref, dict) and isinstance(got, dict) and ref.keys() == got.keys():
        return [p for k in ref for p in _diff(ref[k], got[k], f"{where}.{k}")]
    return [f"{where}: structure {got!r} != {ref!r}"]


def compare(ref: dict, path: Path) -> list[str]:
    """Problems with ``path`` against its reference fingerprint ([] = match)."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    got = fingerprint(path)
    if got["sha256"] == ref["sha256"]:
        return []
    if "values" not in ref:
        return [f"{path.name}: bytes differ from the reference"]
    return _diff(ref["values"], got.get("values"), path.name)


def error_rows(path: Path) -> int:
    """Rows of an eval CSV whose error column is set."""
    with open(path, newline="") as fh:
        return sum(1 for row in csv.DictReader(fh) if row["error"])
