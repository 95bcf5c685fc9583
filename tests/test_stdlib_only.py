import ast
import importlib
import sys
from pathlib import Path

import pytest

import exactdyn
from exactdyn import errors

PACKAGE = Path(exactdyn.__file__).parent


def _imported_roots(tree: ast.AST) -> list[str]:
    roots: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots.append("exactdyn" if node.level else (node.module or "").split(".")[0])
    return roots


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}: {root}"
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "exactdyn" and root not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_each_public_name_is_a_package_attribute(monkeypatch):
    for name in exactdyn.__all__:
        if hasattr(errors, name):
            assert getattr(exactdyn, name) is getattr(errors, name)
        else:
            monkeypatch.delattr(exactdyn, name, raising=False)  # unbound, as in a fresh interpreter
            assert getattr(exactdyn, name) is importlib.import_module(f"exactdyn.{name}")
    with pytest.raises(AttributeError, match="no_such_module"):
        exactdyn.no_such_module
