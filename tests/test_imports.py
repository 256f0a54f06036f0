"""The package imports nothing but the standard library and its declared
dependencies, leaves mpmath's global precision alone, loads mpmath in the
CLI only for the commands that need it, and orders tokens in one place."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toph.hardness import CcssInstance, ccss_to_json

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


#: mpmath calls that switch the global context's precision for a block.
PRECISION_SWITCHES = {"workdps", "workprec", "extradps", "extraprec"}


def global_precision_uses(tree: ast.AST) -> list[int]:
    """Lines that switch, read or set the precision of mpmath's global context
    ``mpmath.mp``: a module computes in a context of its own instead."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if node.attr in PRECISION_SWITCHES or (node.attr in ("dps", "prec") and owner_name == "mp"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            lines.extend(node.lineno for alias in node.names if alias.name in PRECISION_SWITCHES)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_global_mpmath_precision_is_untouched(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert global_precision_uses(tree) == []


def test_a_global_precision_use_is_found():
    tree = ast.parse(
        "import mpmath as mp\n"
        "with mp.workdps(50):\n    pass\n"
        "digits = mp.mp.dps\n"
        "mpmath.mp.prec = 53\n"
        "from mpmath import workprec\n"
        "ctx = mpmath.MPContext()\nctx.dps = 50\n"
        "doc = 'mpmath.mp.dps'  # mp.workdps\n")
    assert global_precision_uses(tree) == [2, 4, 5, 6]


SRC = Path(__file__).resolve().parent.parent / "src"


#: numpy's functions that order token indices.
ORDERINGS = {"argsort", "argpartition", "lexsort"}


def ordering_functions(tree: ast.AST) -> set[str]:
    """The functions whose code (not a docstring or comment) names one of
    ``ORDERINGS``; ``"<module>"`` for code outside every function."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            names = {getattr(child, "attr", None), getattr(child, "id", None)}
            if isinstance(child, ast.alias):
                names.add(child.name)
            if names & ORDERINGS:
                found.add(function)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "<module>")
    return found


def test_truncation_orders_tokens_in_one_place():
    # one ordering path: a second order beside it could disagree on ties
    path = SRC / "toph" / "truncation.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert ordering_functions(tree) == {"_descending_order"}


def test_a_second_ordering_is_found():
    tree = ast.parse(
        "from numpy import lexsort as sort\n"
        "def a(p):\n    'p.argsort()'\n    return p.argsort()  # argpartition\n"
        "class B:\n    def b(self, p):\n        return np.argpartition(p, 3)\n"
        "def c(p):\n    return sorted(p), p.sort()\n")
    assert ordering_functions(tree) == {"<module>", "a", "b"}


def mpmath_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter has imported mpmath once it has run ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1] == "True"  # a command may print before it


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(None, False, id="import"),
    pytest.param(["truncate", "--input", "{data}", "--output", "{out}"], False, id="truncate"),
    pytest.param(["reduce", "--input", "{ccss}", "--output", "{out}"], True, id="reduce"),
])
def test_the_cli_loads_mpmath_only_for_the_hardness_commands(tmp_path, argv, loaded):
    data, ccss, out = tmp_path / "data.jsonl", tmp_path / "ccss.json", tmp_path / "out"
    data.write_text('{"id": "a", "probs": [0.6, 0.3, 0.1]}\n')
    ccss.write_text(json.dumps(ccss_to_json(CcssInstance((3, 5, 7), 15, 3))))
    code = "import toph.cli"
    if argv is not None:
        argv = [arg.format(data=data, ccss=ccss, out=out) for arg in argv]
        code += f"\nassert toph.cli.main({argv!r}) == 0"
    assert mpmath_loaded_after(code) is loaded
