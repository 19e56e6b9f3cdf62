"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import re
import types
from pathlib import Path

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


def test_every_top_level_definition_is_named_elsewhere():
    # a helper left behind once its last caller goes is named only by its
    # own definition; any other whole-word mention in src/ or tests/ counts
    root = Path(__file__).resolve().parent.parent
    sources = {
        path: path.read_text()
        for folder in ("src", "tests")
        for path in sorted((root / folder).rglob("*.py"))
    }
    unnamed = []
    for path in sorted((root / "src" / "torusqi").glob("*.py")):
        lines = sources[path].splitlines()
        others = "\n".join(text for other, text in sources.items() if other != path)
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = lines[: node.lineno - 1] + lines[node.end_lineno:]
            if not re.search(rf"\b{node.name}\b", "\n".join([*outside, others])):
                unnamed.append(f"{path.name}:{node.name}")
    assert unnamed == []
