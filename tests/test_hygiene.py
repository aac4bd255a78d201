"""Static checks on the package sources, with the standard library only.

Every top-level import of a module under src/cayley_lift must be used in
that module or listed in its __all__, and internal consistency checks raise
InvariantError (which the CLI maps to exit code 4), never a bare
AssertionError and never through an assert statement, which python -O
strips.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parent.parent / "src" / "cayley_lift"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree: ast.Module) -> List[str]:
    """Names bound by top-level imports that nothing in the module reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return ["line %d: %s" % (line, name) for name, line in bound if name not in used]


def bare_assertion_errors(tree: ast.Module) -> List[str]:
    """Lines that raise AssertionError itself."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append("line %d" % node.lineno)
    return out


def assert_statements(tree: ast.Module) -> List[str]:
    """Lines holding an assert statement."""
    return ["line %d" % node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_sources_are_found():
    assert {"cli.py", "root_system.py", "__init__.py"} <= {p.name for p in MODULES}


def test_no_unused_top_level_imports():
    found = {p.name: unused_imports(_parse(p)) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_bare_assertion_error():
    found = {p.name: bare_assertion_errors(_parse(p)) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_assert_statements():
    found = {p.name: assert_statements(_parse(p)) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_checks_flag_what_they_should():
    tree = ast.parse(
        "from fractions import Fraction as Q\n"
        "import os.path\n"
        "from typing import List, Tuple\n"
        "__all__ = ['Tuple']\n"
        "def f(x: List[int]):\n"
        "    raise AssertionError('x')\n"
        "def g():\n"
        "    raise AssertionError\n"
        "def h(x):\n"
        "    assert x is not None\n"
    )
    assert unused_imports(tree) == ["line 1: Q", "line 2: os"]
    assert bare_assertion_errors(tree) == ["line 6", "line 8"]
    assert assert_statements(tree) == ["line 10"]
