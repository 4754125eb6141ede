"""The package's public names are declared once, in each module's ``__all__``."""

import inspect

import pytest

import hcwmf
from hcwmf import baselines, dataio, factorization, harness, linalg, masks, stats

LIBRARY_MODULES = (baselines, dataio, factorization, harness, linalg, masks, stats)


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    if module is harness:
        defined.add("METHODS")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == defined


def test_no_name_is_exported_twice():
    # A star import lets a later module silently shadow an earlier one's name.
    owners = {}
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} exported by {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
    assert sorted(hcwmf.__all__) == sorted(owners)


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_package_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(hcwmf, name) is getattr(module, name)
