"""The package imports nothing but the standard library and its declared dependencies."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "toph").glob("*.py"))

#: numpy and mpmath are what pyproject.toml declares.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mpmath", "toph"}


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level names of every absolute import in ``tree``, nested ones too."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_every_module_is_checked():
    assert {"cli.py", "synthgen.py", "truncation.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_declared_dependencies(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_roots(tree) - ALLOWED == set()


def test_an_undeclared_import_is_found():
    tree = ast.parse("import json\nfrom . import cli\ndef f():\n    import orjson.x\n")
    assert imported_roots(tree) - ALLOWED == {"orjson"}
