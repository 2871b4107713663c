"""Module boundaries: no package module reaches into another's private helpers."""
import ast
from pathlib import Path

import tenscale

PACKAGE = Path(tenscale.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``from``-imports take from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("tenscale")):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    assert private_imports("from .scaling import _Plan, capacity\n"
                           "from tenscale.io import _require\n"
                           "from . import _hidden\n"
                           "from numpy import _private\n") \
        == ["_Plan", "_require", "_hidden"]


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    reaches = {path.name: private_imports(path.read_text()) for path in modules}
    assert {name: found for name, found in reaches.items() if found} == {}
