"""Static checks on the package sources, with the standard library only.

Every top-level import of a module under src/cayley_lift must be used in
that module or listed in its __all__, and internal consistency checks raise
InvariantError (which the CLI maps to exit code 4), never a bare
AssertionError and never through an assert statement, which python -O
strips.  Every repository path that README.md or a package source names
must exist, and every function or method the package defines must be named
somewhere else in src/, tests/ or perfbench/; a top-level function must also
be named elsewhere in src/, be public or be wrapped by the benchmark's tracer,
so that no helper only the tests call sits in the package, compiled by every
request that runs its module.  Only root_system reads an E group's rank off
its name (family[1]); every other module passes the rank it has to
build_root_system.  Only the sign test builds reflections: coherent alone
defines the Weyl group code (reflection, perm_mul, perm_to_word, subsystem,
canonical_reflection_word), so no second copy of it can grow.  Only chains
binds the root tags and defines root_tag, the one tag rule, and only
root_system (in forwarding) and the package __init__ define a __getattr__;
root_system, cartan and coherent each assign forwarding's.  Only the
count and the theorem import the sign test (coherent) at their top, and
dense inside the two routines that read it, and the class map (classes) is
imported at the top of the modules of the cartans and params verbs only, so
a witness replay runs neither.  No module imports dense, the Fraction edge
that no CLI request runs, at its top: the vector views import it when they
are called.
Each public function of dense, and each view or routine that imports dense,
has a reader: the benchmark's tracer (read through tests/test_package.py),
the acceptance gate, or a routine that is kept.  No module imports cli, which python -m
runs as __main__, so that no request compiles it twice, and cli defines
no verb handler: each verb's handler is a module of its own, which the CLI
imports on dispatch.  cli imports its help module (help text and comment
header) and its JSON writer only inside the functions that write them.  The __main__ block of cli only calls run(), which
ends the process with os._exit; that skips the interpreter's wait for
non-daemon threads, so no module imports threading, _thread,
multiprocessing or concurrent.  The exact-Fraction oracle in
tests/reference.py takes none of the library's matrix, permutation,
reflection, involution, Fraction-vector or root-tagging helpers, so that a
fault in one cannot show on both sides of a comparison; the acceptance gate
takes those it uses from the oracle.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cayley_lift"
MODULES = sorted(SRC.glob("*.py"))
# A path that starts at one of the repository's top-level directories.
# Library helpers that tests/reference.py must compute for itself, and that
# the acceptance gate must take from it.
ORACLE_OWN = frozenset({"root_type", "root_permutation", "reflection_matrix", "identity_matrix",
                        "word_matrix", "mat_mul", "mat_apply", "matrix_to_word",
                        "perm_mul", "perm_inv", "dot", "sub", "scale", "basis_vector",
                        "pairing", "reflect", "reflection", "reflection_table",
                        "involution_from_pairs"})
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"
REPO_PATH = re.compile(r"(?<![\w/.-])(?:scripts|tests|perfbench|src)/(?:[\w/.-]*[\w/])?")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _literal(tree: ast.Module, name: str):
    """The literal value assigned to name at the top level of tree, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _exported(tree: ast.Module) -> set:
    """The public names: those of the package's _EXPORTS table (its __all__
    is sorted from it), else a literal __all__."""
    table = _literal(tree, "_EXPORTS")
    if table is not None:
        return {name for names in table.values() for name in names}
    return set(_literal(tree, "__all__") or ())


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


def only_tested_helpers(trees: Sequence[ast.Module], texts: Sequence[str],
                        kept: set) -> List[str]:
    """Top-level functions of trees whose name occurs in texts (the package
    sources) only at its definitions and is not in kept; a module's
    __getattr__ is called implicitly and skipped."""
    defined = Counter(node.name for tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    top = {node.name for tree in trees for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and not (node.name.startswith("__") and node.name.endswith("__"))}
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    return sorted(name for name in top if words[name] <= defined[name] and name not in kept)


def library_helpers_used(tree: ast.Module) -> List[str]:
    """The ORACLE_OWN helpers that tree imports from cayley_lift or a submodule."""
    return ["line %d: %s" % (node.lineno, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cayley_lift"
            for a in node.names if a.name in ORACLE_OWN]


def family_rank_reads(tree: ast.Module) -> List[str]:
    """Lines that index a name or attribute called family with 1."""
    return ["line %d" % node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant) and node.slice.value == 1
            and getattr(node.value, "id", getattr(node.value, "attr", None)) == "family"]


def _imports(node: ast.AST, name: str) -> bool:
    """Whether node imports the package module called name."""
    if isinstance(node, ast.Import):
        return any(a.name == "cayley_lift." + name for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    package = node.module == "cayley_lift" or (node.level == 1 and node.module is None)
    return (node.module == "cayley_lift." + name or (node.level == 1 and node.module == name)
            or (package and any(a.name == name for a in node.names)))


def module_imports(tree: ast.Module, name: str) -> List[str]:
    """Imports of the package module called name, each with the function or
    class whose body holds it, TYPE_CHECKING for one in such a block (which
    only a type checker runs), or <module>."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                visit(child, "TYPE_CHECKING")
            elif _imports(child, name):
                out.append("line %d: %s" % (child.lineno, scope))
            else:
                visit(child, scope)

    visit(tree, "<module>")
    return out


def definitions(tree: ast.Module, names: Sequence[str]) -> List[str]:
    """The functions, methods and classes of tree that are called one of names."""
    return ["line %d: %s" % (node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in names]


def assignments(tree: ast.Module, names: Sequence[str]) -> List[str]:
    """The assignments in tree to a plain name that is one of names."""
    return ["line %d: %s" % (node.lineno, target.id) for node in ast.walk(tree)
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id in names]


def _references(node: ast.AST) -> Tuple[Set[str], Set[str]]:
    """The attribute names node reads, and the names it reads or imports."""
    attrs, names = set(), set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            attrs.add(child.attr)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.ImportFrom):
            names.update(a.asname or a.name for a in child.names)
    return attrs, names


def unread_fraction_code(trees: Dict[str, ast.Module], readers: Set[str]) -> List[str]:
    """module.function for the Fraction code that nothing reads.  That code is
    each public top-level function of dense and each function of another
    module that imports dense.  It is read when its name is in readers, or
    when another function calls it that is not such code or is read itself;
    a method is called where its name is read as an attribute, a function
    also where it is read as a name or imported."""
    code: Dict[str, Tuple[str, bool, Tuple[Set[str], Set[str]]]] = {}
    callers = []
    for module, tree in trees.items():
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                refs = _references(node)
                public_dense = module == "dense" and parent is tree and not node.name.startswith("_")
                if public_dense or any(_imports(child, "dense") for child in ast.walk(node)):
                    code[module + "." + node.name] = (node.name, isinstance(parent, ast.ClassDef), refs)
                else:
                    callers.append(refs)
    read = {key for key, (name, _, _) in code.items() if name in readers}
    callers += [code[key][2] for key in read]
    grown = True
    while grown:
        grown = False
        for key, (name, method, refs) in code.items():
            if key not in read and any(name in attrs or (not method and name in names)
                                       for attrs, names in callers):
                read.add(key)
                callers.append(refs)
                grown = True
    return sorted(set(code) - read)


def cli_imports(tree: ast.Module) -> List[str]:
    """Lines that import the cli module."""
    return ["line %d" % node.lineno for node in ast.walk(tree) if _imports(node, "cli")]


def verb_handlers(tree: ast.Module) -> List[str]:
    """The _cmd_ functions that tree defines."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]


def thread_imports(tree: ast.Module) -> List[str]:
    """Lines that import a module that can start a thread or a process."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += ["line %d: %s" % (node.lineno, name) for name in names
                if name.split(".")[0] in ("threading", "_thread", "multiprocessing", "concurrent")]
    return out


def main_block(tree: ast.Module) -> List[str]:
    """The statements of the module's `if __name__ == "__main__":` block."""
    return [ast.unparse(statement) for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for statement in node.body + node.orelse]


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


def test_only_the_root_system_reads_an_e_rank_off_its_name():
    found = {p.name: family_rank_reads(_parse(p)) for p in MODULES if p.name != "root_system.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert family_rank_reads(_parse(SRC / "root_system.py")) != []


def _importers(name: str) -> dict:
    """Module file -> the scopes of its imports of the package module name."""
    found = {p.name: [place.partition(": ")[2] for place in module_imports(_parse(p), name)]
             for p in MODULES}
    return {module: scopes for module, scopes in found.items() if scopes}


# The Weyl group code of the sign test: reflections and products of signed
# permutations, reduced words, subsystems and reflection words.
WEYL_CODE = ("reflection", "perm_mul", "perm_to_word", "subsystem", "canonical_reflection_word")


def test_only_the_sign_test_defines_the_weyl_group_code():
    """theta on the roots reads RootSystem.index, so parameters, cartan and
    the verbs built on them (cartans, params, klv-check, lift) need no
    reflection; chains reads a word's chain roots off the simple roots, so a
    witness replay needs none either.  coherent alone defines the code, each
    name once, so the Weyl layer cannot fork into a second module."""
    found = {p.name: [place.partition(": ")[2] for place in definitions(_parse(p), WEYL_CODE)]
             for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {
        "coherent.py": ["perm_mul", "reflection", "perm_to_word", "subsystem",
                        "canonical_reflection_word"]}


def _binding(names: Sequence[str], find) -> Dict[str, List[str]]:
    """Module file -> the names of names that find (definitions or
    assignments) reports in it, for the modules where it reports any."""
    found = {p.name: [place.partition(": ")[2] for place in find(_parse(p), names)]
             for p in MODULES}
    return {module: bound for module, bound in found.items() if bound}


def test_one_module_holds_the_root_tags_and_one_the_forwarding_rule():
    """chains alone binds the three root tags and defines root_tag, which
    chain_types and dense.root_type both call.  root_system alone defines the
    __getattr__ that forwards a moved name (forwarding), which root_system,
    cartan and coherent assign; __init__ defines the package's own."""
    tags = ("IMAGINARY", "REAL", "COMPLEX", "root_tag")
    assert _binding(tags, assignments) == {"chains.py": ["IMAGINARY", "REAL", "COMPLEX"]}
    assert _binding(tags, definitions) == {"chains.py": ["root_tag"]}
    assert _binding(("__getattr__",), definitions) == {"__init__.py": ["__getattr__"],
                                                       "root_system.py": ["__getattr__"]}
    assert set(_binding(("__getattr__",), assignments)) == {"cartan.py", "coherent.py",
                                                            "root_system.py"}


def test_only_the_count_and_the_theorem_import_the_sign_test():
    """A witness replay chains its stored word with chains and witness_data,
    so only the count-small handler and theorem (verify) run coherent; dense,
    which no request runs, imports it only inside the two routines that read
    it, so a Fraction view runs no sign test."""
    assert _importers("coherent") == {"cmd_count_small.py": ["<module>"],
                                      "dense.py": ["TYPE_CHECKING", "integral_system",
                                                   "matrix_to_word"],
                                      "theorem.py": ["<module>"]}


def test_the_class_map_is_imported_where_it_is_read():
    """parameters imports the class map inside the two functions that read
    it, and the E class table imports no package module, so the towers, the
    lift and a witness replay, which run parameters or the table, never run
    classes; only the cartans and params handlers and the Cayley graph
    import it at their top."""
    assert _importers("classes") == {
        "cayley_graph.py": ["<module>"],
        "cmd_cartans.py": ["<module>"],
        "cmd_params.py": ["<module>"],
        "parameters.py": ["class_of", "orbit_representatives"],
    }
    assert [node.lineno for node in ast.walk(_parse(SRC / "e_classes.py"))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("cayley_lift"))] == []


def test_no_module_imports_the_dense_module_at_its_top():
    """Every CLI verb runs only modules that import dense inside the view or
    routine that needs it, so no request compiles the Fraction edge."""
    assert {module: scopes for module, scopes in _importers("dense").items()
            if "<module>" in scopes} == {}
    assert _importers("dense") == {
        "cartan.py": ["matrix"],
        "center.py": ["quotient_reps"],
        "chains.py": ["steps"],
        "root_system.py": ["simple_roots", "positive_roots", "rho_half", "roots"],
    }


def _fraction_readers() -> Set[str]:
    """The names the benchmark's tracer wraps, caches or counts (with the
    attributes its counters read), and those the acceptance gate imports
    from the package or reads as attributes."""
    from test_package import _trace_child
    tracer = _trace_child()
    names = {name for names in tracer.LAYERS.values() for name in names}
    names |= {key.rpartition(".")[2] for key in (*tracer.CACHED, *tracer.COUNTERS)}
    names |= {name for count in tracer.COUNTERS.values() for name in count.__code__.co_names}
    gate = _parse(ROOT / "tests" / "test_acceptance.py")
    names |= {node.attr for node in ast.walk(gate) if isinstance(node, ast.Attribute)}
    return names | {a.name for node in ast.walk(gate) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "cayley_lift" for a in node.names}


def test_every_fraction_routine_and_view_has_a_reader():
    """The tracer, the acceptance gate or a kept routine reads each public
    function of dense and each view or routine that imports dense."""
    trees = {p.stem: _parse(p) for p in MODULES}
    assert unread_fraction_code(trees, _fraction_readers()) == []


def test_a_fraction_view_with_no_reader_is_flagged():
    """RootSystem.rho again, a view that nothing reads, fails the check."""
    trees = {p.stem: _parse(p) for p in MODULES}
    anchor = "    @cached_property\n    def rho_half(self)"
    source = (SRC / "root_system.py").read_text()
    assert source.count(anchor) == 1
    trees["root_system"] = ast.parse(source.replace(anchor, (
        "    @cached_property\n"
        "    def rho(self) -> Vector:\n"
        "        from .dense import view\n"
        "        return view(self.doubled_rho)\n\n") + anchor))
    assert unread_fraction_code(trees, _fraction_readers()) == ["root_system.rho"]


def test_only_the_cli_imports_its_help_and_json_modules_when_it_writes_them():
    """A text request with --no-header compiles neither: the help module
    loads for help and for the comment header, the JSON writer for --format
    json."""
    assert _importers("cli_help") == {"cli.py": ["_help", "_emit"]}
    assert _importers("cli_json") == {"cli.py": ["_emit"]}


def test_no_module_imports_the_cli_and_the_cli_holds_no_handler():
    found = {p.name: cli_imports(_parse(p)) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert verb_handlers(_parse(SRC / "cli.py")) == []


def test_no_module_can_start_a_thread():
    found = {p.name: thread_imports(_parse(p)) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_cli_main_block_only_calls_run():
    assert main_block(_parse(SRC / "cli.py")) == ["run()"]


def test_reference_computes_its_own_matrices():
    assert library_helpers_used(_parse(ROOT / "tests" / "reference.py")) == []


def test_the_acceptance_gate_takes_its_matrices_from_the_reference():
    assert library_helpers_used(_parse(ROOT / "tests" / "test_acceptance.py")) == []


def test_every_function_is_referenced():
    sources = MODULES + sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    assert unreferenced_functions([_parse(p) for p in MODULES], [p.read_text() for p in sources]) == []


def test_no_helper_only_the_tests_call():
    layers = _literal(_parse(TRACE_CHILD), "LAYERS")
    kept = _exported(_parse(SRC / "__init__.py")) | {n for names in layers.values() for n in names}
    assert only_tested_helpers([_parse(p) for p in MODULES], [p.read_text() for p in MODULES],
                               kept) == []


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
    reads = ast.parse("a = family[1]\nb = c.family[1]\nd = family[0]\ne = families[1]\n")
    assert family_rank_reads(reads) == ["line 1", "line 2"]
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
    views = {
        "dense": ast.parse(
            "def view(d):\n    return d\n"
            "def traced(x):\n    return helper(x)\n"
            "def helper(x):\n    return x\n"
            "def unread(x):\n    return x\n"
            "def _private(x):\n    return x\n"),
        "m": ast.parse(
            "class C:\n"
            "    def read(self):\n        from .dense import view\n        return view(1)\n"
            "    def lonely(self):\n        from .dense import view\n        return view(2)\n"
            "    def called(self):\n        from .dense import view\n        return view(3)\n"
            "def caller(c):\n    return c.called()\n"
            "def by_name():\n    return lonely()\n"),
    }
    assert unread_fraction_code(views, {"traced", "read"}) == ["dense.unread", "m.lonely"]
    assert unread_fraction_code(views, set()) == ["dense.helper", "dense.traced", "dense.unread",
                                                  "m.lonely", "m.read"]
    assert unreferenced_functions([ast.parse(module)], [module, test]) == ["dead", "orphan"]
    assert only_tested_helpers([ast.parse(module)], [module], set()) == ["orphan", "tested"]
    assert only_tested_helpers([ast.parse(module)], [module], {"tested"}) == ["orphan"]
    assert _exported(ast.parse("_EXPORTS = {'m': ('f', 'g')}\n__all__ = sorted(_HOME)\n")) == {"f", "g"}
    oracle = ast.parse(
        "from cayley_lift.root_system import add, mat_apply, pairing, word_matrix\n"
        "from cayley_lift import root_type\n"
        "from reference import mat_mul\n"
        "def f():\n"
        "    from cayley_lift.dense import matrix_to_word\n"
        "from cayley_lift.coherent import perm_to_word, reflection\n"
    )
    imports = ast.parse(
        "from .coherent import a\n"
        "import cayley_lift.coherent\n"
        "from . import cartan, coherent\n"
        "from .coherentish import b\n"
        "if TYPE_CHECKING:\n"
        "    from cayley_lift.coherent import c\n"
        "def f():\n"
        "    from cayley_lift import coherent\n"
        "class C:\n"
        "    def g(self):\n"
        "        from .root_system import reflection\n"
    )
    assert module_imports(imports, "coherent") == [
        "line 1: <module>", "line 2: <module>", "line 3: <module>", "line 6: TYPE_CHECKING",
        "line 8: f"]
    assert definitions(imports, ("g", "C", "a")) == ["line 9: C", "line 10: g"]
    forks = ast.parse(
        "def perm_mul(a, b):\n    pass\n"
        "class W:\n    def reflection(self):\n        pass\n"
        "def outer():\n    def subsystem():\n        pass\n"
        "perm_to_word = None\n"
        "def perm_to_words():\n    pass\n")
    assert definitions(forks, WEYL_CODE) == [
        "line 1: perm_mul", "line 4: reflection", "line 7: subsystem"]
    assert assignments(forks, WEYL_CODE) == ["line 9: perm_to_word"]
    clis = ast.parse(
        "from .cli import _vec\n"
        "from . import cartan, cli\n"
        "import cayley_lift.cli\n"
        "from cayley_lift import cli\n"
        "from .client import x\n"
        "def f():\n"
        "    from cayley_lift.cli import main\n"
        "def _cmd_roots(args, rank, chis):\n"
        "    pass\n"
    )
    assert cli_imports(clis) == ["line 1", "line 2", "line 3", "line 4", "line 7"]
    assert verb_handlers(clis) == ["_cmd_roots"]
    threads = ast.parse(
        "import threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import os, multiprocessing.pool\n"
        "from . import threading_tools\n"
        "def f():\n"
        "    import _thread\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main())\n"
        "else:\n"
        "    run()\n"
    )
    assert thread_imports(threads) == ["line 1: threading", "line 2: concurrent.futures",
                                       "line 3: multiprocessing.pool", "line 6: _thread"]
    assert main_block(threads) == ["sys.exit(main())", "run()"]
    assert library_helpers_used(oracle) == [
        "line 1: mat_apply", "line 1: pairing", "line 1: word_matrix", "line 2: root_type",
        "line 6: reflection", "line 5: matrix_to_word"]
