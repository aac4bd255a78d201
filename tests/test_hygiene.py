"""Static checks on the package sources, with the standard library only.

Every top-level import of a module under src/cayley_lift must be used in
that module or listed in its __all__, and internal consistency checks raise
InvariantError (which the CLI maps to exit code 4), never a bare
AssertionError and never through an assert statement, which python -O
strips.  Every repository path that README.md or a package source names
must exist, and every function or method the package defines must be named
somewhere else in src/, tests/ or perfbench/.  The exact-Fraction oracle in
tests/reference.py takes none of the library's matrix, permutation or
root-tagging helpers, so that a fault in one cannot show on both sides of a
comparison.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cayley_lift"
MODULES = sorted(SRC.glob("*.py"))
# A path that starts at one of the repository's top-level directories.
# Library helpers that tests/reference.py must compute for itself.
ORACLE_OWN = frozenset({"root_type", "root_permutation", "reflection_matrix", "identity_matrix",
                        "word_matrix", "mat_mul", "mat_apply", "matrix_to_word"})
REPO_PATH = re.compile(r"(?<![\w/.-])(?:scripts|tests|perfbench|src)/(?:[\w/.-]*[\w/])?")


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


def missing_paths(text: str, root: Path) -> List[str]:
    """Repository paths named in text that do not exist under root."""
    return ["line %d: %s" % (text.count("\n", 0, m.start()) + 1, m.group())
            for m in REPO_PATH.finditer(text) if not (root / m.group()).exists()]


def unreferenced_functions(trees: Sequence[ast.Module], texts: Sequence[str]) -> List[str]:
    """Functions and methods defined in trees whose name occurs in texts only
    at its definitions; dunder methods are called implicitly and skipped."""
    defined = Counter(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def library_helpers_used(tree: ast.Module) -> List[str]:
    """The ORACLE_OWN helpers that tree imports from cayley_lift or a submodule."""
    return ["line %d: %s" % (node.lineno, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cayley_lift"
            for a in node.names if a.name in ORACLE_OWN]


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


def test_named_paths_exist():
    found = {p.name: missing_paths(p.read_text(), ROOT) for p in [ROOT / "README.md"] + MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_reference_computes_its_own_matrices():
    assert library_helpers_used(_parse(ROOT / "tests" / "reference.py")) == []


def test_every_function_is_referenced():
    sources = MODULES + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    assert unreferenced_functions([_parse(p) for p in MODULES], [p.read_text() for p in sources]) == []


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
    text = (
        "run `tests/test_hygiene.py` and see tests/golden/.\n"
        "found by scripts/search.py, kept in (perfbench/nope.json) and nope/;\n"
        "the experiments in `src/nope/`.\n"
        "unittests/x.py and PYTHONPATH=src python are not paths\n"
    )
    assert missing_paths(text, ROOT) == [
        "line 2: scripts/search.py", "line 2: perfbench/nope.json", "line 3: src/nope/"]
    module = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        pass\n"
        "    def dead(self):\n"
        "        pass\n"
        "def tested():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "def orphan():\n"
        "    pass\n"
    )
    test = "from m import tested\nassert tested()\nsuborphan = 1\n"
    assert unreferenced_functions([ast.parse(module)], [module, test]) == ["dead", "orphan"]
    oracle = ast.parse(
        "from cayley_lift.root_system import add, mat_apply, word_matrix\n"
        "from cayley_lift import root_type\n"
        "from reference import mat_mul\n"
        "def f():\n"
        "    from cayley_lift.coherent import matrix_to_word\n"
    )
    assert library_helpers_used(oracle) == [
        "line 1: mat_apply", "line 1: word_matrix", "line 2: root_type", "line 5: matrix_to_word"]
