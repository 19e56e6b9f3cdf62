"""Every exported name resolves, so a deletion cannot leave a stale export."""

import types

import pytest

import torusqi
from torusqi import analysis, cli, grid, kernel, qi, specfun

MODULES = (analysis, cli, grid, kernel, qi, specfun)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_only_listed_names():
    listed = {name for module in MODULES for name in module.__all__}
    reexported = {
        name
        for name, value in vars(torusqi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert reexported - listed == set()
