"""Every error type is raised somewhere: no class in ``toph.errors`` is dead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toph"


def error_classes(tree: ast.AST) -> set[str]:
    """The classes defined in ``tree``, less the base class ``TophError``."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name != "TophError"}


def constructed(tree: ast.AST) -> set[str]:
    """The names called in ``tree``, as ``Name(...)`` or ``module.Name(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def test_every_error_class_is_constructed_outside_errors():
    errors = PACKAGE / "errors.py"
    defined = error_classes(ast.parse(errors.read_text(encoding="utf-8")))
    used = set().union(*(constructed(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE.glob("*.py") if path != errors))
    assert len(defined) > 20
    assert defined - used == set()


def test_a_dead_class_is_found():
    defined = error_classes(ast.parse(
        "class TophError(ValueError): pass\nclass Used(TophError): pass\n"
        "class Dead(TophError): pass\n"))
    used = constructed(ast.parse("raise errors.Used('x')\nisinstance(e, Dead)\n"))
    assert defined - used == {"Dead"}
