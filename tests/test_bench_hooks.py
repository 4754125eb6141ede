"""Guard the benchmark's hooks into the library.

``perfbench/child.py`` wraps library functions at the module attributes
listed in ``HOOKS`` and calls the dense kernels and the trainer itself.  A
renamed attribute or a changed signature would crash every traced benchmark
run, so both are checked here against the current library.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from hcwmf import HeldOutSet, SparseBinaryMatrix, TrainConfig, build_masks, train

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(child):
    for target, attr, _, _ in child.HOOKS:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr} does not resolve"


def test_hook_only_imports_name_a_hook(child):
    # An import the program never calls, kept only so a hook resolves, is
    # marked "uncalled; hook hcwmf.<module>.<name>".  Each marker must name
    # the line's own module and name, and an entry of HOOKS.
    hooks = {f"{target}.{attr}" for target, attr, _, _ in child.HOOKS}
    marked = []
    for path in sorted((ROOT / "src" / "hcwmf").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "uncalled; hook" not in line:
                continue
            found = re.fullmatch(r"from \.\w+ import (\w+)  # noqa: F401  uncalled; hook (\S+) of perfbench/child\.py", line)
            assert found, f"{path.name}: malformed marker {line!r}"
            hook = f"hcwmf.{path.stem}.{found[1]}"
            assert found[2] == hook, f"{path.name}: {line!r} names {found[2]}"
            assert hook in hooks, f"{hook} is marked as a hook but is not in HOOKS"
            marked.append(hook)
    assert marked


def test_kernels_and_trainer_take_the_benchmark_arguments(child):
    x = SparseBinaryMatrix(4, 5, [(0, 1), (1, 1), (1, 2), (3, 4)])
    masks = build_masks(x, HeldOutSet.of(()))
    cfg = TrainConfig(d=2, mu=0.2, max_iters=3)
    tracer = child.Tracer(timed=True)
    child._fit(tracer, train(x, masks, cfg), x, masks, cfg)
    assert tracer.fits[0]["iters"] == 3
    timings = child._kernel_ms(tracer.fits, tracer.fit_inputs)
    assert set(timings) == {
        "factorization.objective_ms",
        "factorization.grad_u_ms",
        "factorization.grad_v_ms",
    }
