"""The package surface: public names, the README example, and cold start.

`import cayley_lift` registers its submodules without running them; a
submodule runs when one of its names, or the module itself, is first used.
The cold-start tests start one fresh interpreter per CLI verb, with
warnings turned into errors, and check which package modules actually ran:
a module still waiting on its lazy loader has a type other than
types.ModuleType, and asking for that type does not load it.  Each verb
runs its own handler module and no other; the CLI's help module runs only
for help and the comment header, its JSON writer only for --format json.  They also check that no
request, --help and --format json included, loads dataclasses, inspect,
fractions or decimal (every rational is printed from doubled integers),
argparse, gettext or locale (the CLI reads its flags from one table), or
json (the CLI writes JSON itself).  The child's stdout is buffered, as
it is for any process writing to a pipe, so output that the CLI's fast
exit (cli.run) failed to flush would be missing.  A fresh process exits
with the code and the stderr line of main in process; a reader that closed
stdout early gets status 1 and no traceback.  Each request compiles the
source of every module it runs, so the AST nodes of those modules are
held to a budget per verb.
"""

from __future__ import annotations

import ast
import errno
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayley_lift
from golden.generate import GROUPS, ROOT as GOLDEN

PACKAGE_ROOT = Path(cayley_lift.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"

# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------


# The public names, pinned: a name that joins or leaves the package's
# __all__ (sorted from its _EXPORTS table) changes this list.
PUBLIC = [
    "CartanClass",
    "CenterData",
    "CertificateError",
    "ChainCertificate",
    "FiniteAbelianGroup",
    "FormalIntegerCombination",
    "HasseDiagram",
    "InvariantError",
    "Involution",
    "K_coefficient",
    "M_entry",
    "PairSetParameter",
    "ParameterPoset",
    "RootSubsystem",
    "RootSystem",
    "RuleOutReport",
    "ScopeError",
    "StabilizerDescription",
    "TheoremReport",
    "TorusShape",
    "TransformError",
    "WordError",
    "build_root_system",
    "canonical_reflection_word",
    "cartan_classes",
    "cartan_constant",
    "cartan_shape",
    "cayley",
    "chain_types",
    "class_of",
    "contains",
    "count_small",
    "cover_center_data",
    "enumerate_block",
    "genuine_central_character_count",
    "hasse_diagram",
    "integral_system",
    "involution_for_class",
    "length",
    "lift_trivial",
    "m_entry",
    "make_parameter",
    "orbit_representatives",
    "pi_RD",
    "rd_subsets",
    "replay_witness",
    "root_type",
    "rule_out",
    "stabilizer",
    "theta",
    "tower_parameter",
    "tower_poset",
    "verify_inversion",
    "verify_main_theorem",
]


def test_every_public_name_is_its_home_module_attribute():
    assert cayley_lift.__all__ == PUBLIC
    assert sorted(cayley_lift._HOME) == cayley_lift.__all__
    for name in cayley_lift.__all__:
        value = getattr(cayley_lift, name)
        assert value.__module__.startswith("cayley_lift."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cayley_lift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cayley_lift.__all__)


def test_unknown_names_are_not_attributes():
    assert not hasattr(cayley_lift, "nope")
    with pytest.raises(AttributeError, match="nope"):
        cayley_lift.nope
    with pytest.raises(ImportError):
        exec("from cayley_lift import nope", {})


def _readme_library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_returns_what_it_states():
    """Each expression line of the example equals the literal in its comment,
    and each commented assignment has the attributes its comment names."""
    block = _readme_library_block()
    lines = block.splitlines()
    namespace = {}
    stated = 0
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == ast.literal_eval(comment), comment
            stated += 1
            continue
        exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
        if isinstance(statement, ast.Assign) and comment:
            value = namespace[statement.targets[0].id]
            assert all(hasattr(value, attr) for attr in comment.split(", ")), comment
            stated += 1
    assert stated == 4


# ---------------------------------------------------------------------------
# cold start: each verb runs only the modules it calls
# ---------------------------------------------------------------------------

# Prints, at interpreter exit, the package modules that ran and which of
# HEAVY were loaded.  The program text after it is the request.
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext", "locale",
         "json")  # no request needs any
REPORTER = """\
import atexit, sys, types

@atexit.register
def report():
    ran = sorted(name.partition(".")[2] for name, module in sys.modules.items()
                 if name.startswith("cayley_lift.") and type(module) is types.ModuleType)
    print("ran: " + " ".join(ran), file=sys.stderr)
    print("loaded: " + " ".join(name for name in %r if name in sys.modules), file=sys.stderr)

""" % (HEAVY,)
RUN_CLI = 'import runpy\nrunpy.run_module("cayley_lift.cli", run_name="__main__", alter_sys=True)\n'

SL4 = GROUPS["SL4"]
BASE = {"root_system"}
PARAMETERS = BASE | {"cartan", "center", "parameters"}
CLASSES = PARAMETERS | {"classes"}  # the class map: orbit representatives and shapes
COHERENT = CLASSES | {"chains", "coherent"}  # only the sign test builds reflections
REQUESTS = {  # verb: (arguments, golden transcript, modules run besides its handler)
    "roots": (SL4, "roots/SL4.txt", BASE),
    "centers": (SL4, "centers/SL4.txt", BASE | {"center"}),
    "cartans": (SL4, "cartans/SL4.txt", CLASSES | {"cayley_graph"}),
    "params": (SL4, "params/SL4.txt", CLASSES),
    "count-small": (SL4, "count-small/SL4.txt", COHERENT),
    # an E6 witness: the chain against its class's representative, read off
    # the E table, and no sign test, Weyl table or class map
    "replay-witness": (["--id", "E6-030"], "replay-witness/E6-030.txt",
                       PARAMETERS | {"chains", "witness_data", "e_classes"}),
    "klv-check": (SL4, "klv-check/SL4.txt", PARAMETERS | {"klv_poset"}),
    "lift": (SL4, "lift/SL4.txt", PARAMETERS | {"klv_poset", "lifting"}),
    "verify": (SL4, "verify/SL4.txt", COHERENT | {"klv_poset", "lifting", "theorem"}),
}
# The CLI's optional parts: the help text and comment header, and the JSON
# writer; a text request with --no-header runs neither.
HELP, JSON_WRITER = "cli_help", "cli_json"


def _ran(verb, *more) -> str:
    """The ran: line of a verb's request: its modules, its handler module and
    the modules named in more."""
    return "ran: " + " ".join(sorted(REQUESTS[verb][2] | {"cmd_" + verb.replace("-", "_"), *more}))


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter with warnings as errors, buffered stdout (no
    PYTHONUNBUFFERED from the caller's environment) and this package first
    on its path."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_requests_cover_every_verb():
    from cayley_lift.cli import _VERBS
    assert set(REQUESTS) == set(_VERBS)
    assert {verb: entry[0] for verb, entry in _VERBS.items()} == {
        verb: "cmd_" + verb.replace("-", "_") for verb in REQUESTS}


@pytest.mark.parametrize("verb", sorted(REQUESTS))
def test_each_verb_runs_only_the_modules_it_calls(verb):
    args, golden, _ = REQUESTS[verb]
    done = _python("-c", REPORTER + RUN_CLI, verb, *args, "--no-header")
    assert (done.returncode, done.stderr) == (0, _ran(verb) + "\nloaded: \n")
    assert done.stdout == (GOLDEN / golden).read_text()


def _check_json_request(verb):
    args, golden, _ = REQUESTS[verb]
    done = _python("-c", REPORTER + RUN_CLI, verb, *args, "--no-header", "--format", "json")
    assert (done.returncode, done.stderr) == (0, _ran(verb, JSON_WRITER) + "\nloaded: \n")
    assert done.stdout == (GOLDEN / golden.replace(".txt", ".json")).read_text()


def test_a_json_request_loads_nothing_heavy():
    _check_json_request("count-small")


@pytest.mark.parametrize("verb", ["roots", "centers", "replay-witness"])
def test_json_rationals_are_printed_without_fractions(verb):
    """The verbs that print rationals (roots, rho, coset representatives,
    chain roots) render them from doubled integers in JSON as in text."""
    _check_json_request(verb)


@pytest.mark.parametrize("verb", ["cartans", "params", "klv-check", "lift", "verify"])
def test_every_other_verb_prints_its_golden_json_cold(verb):
    _check_json_request(verb)


@pytest.mark.parametrize("argv", [["--help"], ["count-small", "--help"]])
def test_help_loads_nothing_heavy(argv):
    """Help is read off the flag table: no handler module runs."""
    done = _python("-c", REPORTER + RUN_CLI, *argv)
    assert (done.returncode, done.stderr) == (0, "ran: %s root_system\nloaded: \n" % HELP)
    assert done.stdout.startswith("usage: cayley-lift ")


@pytest.mark.parametrize("flags, optional", [
    (["--no-header"], ()),
    ([], (HELP,)),
    (["--format", "json"], (JSON_WRITER,)),
    (["--no-header", "--format", "json"], (JSON_WRITER,)),
], ids=["text-no-header", "text-header", "json", "json-no-header"])
def test_a_request_loads_the_help_module_for_its_header_and_the_json_writer_for_json(
        flags, optional):
    """A text request without a header loads neither optional CLI module; the
    comment header loads the help module, --format json the JSON writer
    (JSON output has no header)."""
    done = _python("-c", REPORTER + RUN_CLI, "centers", *SL4, *flags)
    assert (done.returncode, done.stderr) == (0, _ran("centers", *optional) + "\nloaded: \n")
    golden = (GOLDEN / ("centers/SL4." + ("json" if "json" in flags else "txt"))).read_text()
    header = "# cayley-lift centers family=A rank=4\n" if HELP in optional else ""
    assert done.stdout == header + golden


def test_importing_the_cli_runs_only_the_root_system():
    done = _python("-c", REPORTER + "import cayley_lift.cli\n")
    assert (done.returncode, done.stderr) == (0, "ran: cli root_system\nloaded: \n")


def test_importing_the_package_runs_no_submodule():
    done = _python("-c", REPORTER + "import cayley_lift\n")
    assert (done.returncode, done.stderr) == (0, "ran: \nloaded: \n")


def test_a_fraction_view_runs_only_the_root_system_and_the_dense_module():
    """dense reads the root tags (chains) and the sign test (coherent) only
    inside the routines that need them, so the first Fraction view of a
    process runs no Cartan, center or chain module."""
    done = _python("-c", REPORTER + "from cayley_lift.root_system import build_root_system\n"
                   'build_root_system("A", 3).simple_roots\n')
    assert (done.returncode, done.stderr.splitlines()[0]) == (0, "ran: dense root_system")


def test_python_m_emits_no_warning():
    done = _python("-m", "cayley_lift.cli", "roots", *SL4, "--no-header")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (GOLDEN / "roots/SL4.txt").read_text()


@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_python_m_compiles_the_cli_once(fmt):
    """python -m runs the CLI as __main__ (through runpy._run_module_as_main);
    a module that imported it as cayley_lift.cli would compile it again."""
    run_as_main = 'import runpy\nrunpy._run_module_as_main("cayley_lift.cli")\n'
    done = _python("-c", REPORTER + run_as_main, "count-small", *SL4, "--no-header",
                   "--format", "json" if fmt == "json" else "text")
    json_writer = [JSON_WRITER] if fmt == "json" else []
    assert (done.returncode, done.stderr) == (0, _ran("count-small", *json_writer) + "\nloaded: \n")
    assert done.stdout == (GOLDEN / ("count-small/SL4." + fmt)).read_text()


# ---------------------------------------------------------------------------
# compile budget: each cold request compiles the source of every package
# module it runs (nothing writes bytecode), so code that no request runs
# stays out of the modules the requests run
# ---------------------------------------------------------------------------

SRC = PACKAGE_ROOT / "cayley_lift"
# Every request compiles the package and the CLI besides the modules of its
# ran: line (python -m runs the CLI as __main__, so it is not listed there).
ALWAYS = ("__init__", "cli")


def _nodes(modules) -> int:
    """The AST nodes of the named package modules."""
    return sum(sum(1 for _ in ast.walk(ast.parse((SRC / (name + ".py")).read_text())))
               for name in modules)


def _compiled(ran: str) -> int:
    """The AST nodes a request compiles, from its ran: line."""
    assert ran.startswith("ran: ")
    return _nodes(ran.split()[1:] + list(ALWAYS))


# Per verb, at most the AST nodes its golden request compiles (its ran: line
# and ALWAYS) when pinned, plus 2%; a re-pin lowers a budget, never raises it.
COMPILE_BUDGETS = {"cartans": 9083, "centers": 4750, "count-small": 10569, "klv-check": 8365,
                   "lift": 8871, "params": 8266, "replay-witness": 10690, "roots": 3930,
                   "verify": 12832}


@pytest.mark.parametrize("verb", sorted(REQUESTS))
def test_each_verb_compiles_within_its_budget(verb):
    """The ran: line is the one test_each_verb_runs_only_the_modules_it_calls
    checks in a fresh process."""
    assert set(COMPILE_BUDGETS) == set(REQUESTS)
    assert _compiled(_ran(verb)) <= COMPILE_BUDGETS[verb]


def _compiled_cold(request_line: str) -> int:
    """The AST nodes a fresh text request with --no-header compiles."""
    done = _python("-c", REPORTER + RUN_CLI, *request_line.split(), "--no-header")
    assert done.returncode == 0
    return _compiled(done.stderr.splitlines()[0])


# The benchmark's tower requests (CLI ranks: A 6 is SL(6)), each with the AST
# nodes it compiled while the modules it runs still held the dense layer, the
# Cayley graph and the E class table; each is also held to its verb's budget.
TOWER = {
    "klv-check --family A --rank 6": 13545,
    "klv-check --family D --rank 4": 13545,
    "klv-check --family D --rank 5": 13545,
    "klv-check --family D --rank 7": 13545,
    "lift --family D --rank 6": 14034,
    "lift --family E7": 14034,
}


@pytest.mark.parametrize("request_line", sorted(TOWER))
def test_every_tower_request_compiles_at_least_15_percent_less(request_line):
    budget = COMPILE_BUDGETS[request_line.split()[0]]
    assert _compiled_cold(request_line) <= min(budget, 0.85 * TOWER[request_line])


def test_an_e_lift_runs_no_class_table():
    """C(H) is read off each tower parameter's own involution, so an E lift
    runs the modules of the SL(4) lift: not e_classes."""
    done = _python("-c", REPORTER + RUN_CLI, "lift", "--family", "E7", "--no-header")
    assert (done.returncode, done.stderr) == (0, _ran("lift") + "\nloaded: \n")
    assert done.stdout == (GOLDEN / "lift" / "E7.txt").read_text()


# The benchmark's describe requests, each with the AST nodes it compiled
# while cartan held the cover's center, cli its help text, header and JSON
# writer, and root_system the dual basis; each is also held to its verb's
# budget.
DESCRIBE = {
    "roots --family A --rank 4": 5191,
    "roots --family A --rank 10": 5191,
    "roots --family E6": 5191,
    "roots --family E8": 5191,
    "centers --family A --rank 4": 8050,
    "centers --family A --rank 5": 8050,
    "centers --family E7": 8050,
    "centers --family E8": 8050,
    "cartans --family A --rank 6": 10442,
    "replay-witness --id E6-022-s35": 15106,
    "replay-witness --id E6-030": 15106,
    "replay-witness --id E7-320": 15106,
    "replay-witness --id E8-230": 15106,
}
# The least cut per verb: a centers request no longer compiles cartan,
# roots no longer compiles the dual basis or the CLI's optional parts, and a
# replay no longer compiles the sign test, its reflections or the class map.
DESCRIBE_CUT = {"centers": 0.30, "roots": 0.15, "replay-witness": 0.25}


@pytest.mark.parametrize("request_line", sorted(DESCRIBE))
def test_every_describe_request_compiles_less(request_line):
    verb = request_line.split()[0]
    cut = DESCRIBE_CUT.get(verb, 0)
    assert _compiled_cold(request_line) <= min(COMPILE_BUDGETS[verb],
                                               (1 - cut) * DESCRIBE[request_line])


def test_the_tracer_reads_the_moved_names_through_their_old_modules():
    """perfbench/trace_child.py wraps these names in root_system, cartan and
    coherent, and the acceptance gate imports cartan_classes and
    involution_for_class from cartan and chain_types and replay_witness from
    coherent; each resolves to the one function of its new home, the
    lru_cache of reflection_matrix included, and no other name resolves."""
    from cayley_lift import (cartan, cayley_graph, center, chains, classes, coherent, dense,
                             root_system, witness_data)

    homes = {"dense": dense, "coherent": coherent, "cayley_graph": cayley_graph,
             "center": center, "classes": classes, "witness_data": witness_data}
    for module in (root_system, cartan, coherent):
        assert module._FORWARDED
        for name, home in module._FORWARDED.items():
            assert getattr(module, name) is getattr(homes[home], name), name
    assert set(root_system._FORWARDED) == {"mat_mul", "mat_apply", "reflection_matrix",
                                           "integral_system", "canonical_reflection_word"}
    assert set(cartan._FORWARDED) == {"hasse_diagram", "root_type", "cover_center_data",
                                      "cartan_classes", "involution_for_class"}
    assert set(coherent._FORWARDED) == {"replay_witness", "matrix_to_word"}
    assert root_system.mat_mul is dense.mat_mul
    assert root_system.canonical_reflection_word is vars(coherent)["canonical_reflection_word"]
    assert coherent.matrix_to_word is vars(dense)["matrix_to_word"]
    assert "matrix_to_word" not in vars(coherent)
    assert coherent.chain_types is chains.chain_types  # the sign test's own import
    cached = root_system.reflection_matrix
    assert hasattr(cached, "cache_info") and not hasattr(cached.__wrapped__, "cache_info")
    for module, name in [(root_system, "nonexistent"), (root_system, "dot"),
                         (root_system, "word_matrix"), (cartan, "nonexistent"),
                         (cartan, "cayley_moves"), (cartan, "classify_pairs"),
                         (coherent, "nonexistent"), (coherent, "ReplayReport")]:
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


# ---------------------------------------------------------------------------
# the process entry point: cli.run ends the process with os._exit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["count-small", "--family", "B"],  # usage error, exit 2
    ["count-small", "--family", "A", "--rank", "1"],  # out of scope, exit 3
    ["--help"],
    ["count-small", *SL4],
])
def test_a_process_exits_as_main_returns(argv, capsys):
    from cayley_lift.cli import main
    code = main(argv)
    captured = capsys.readouterr()
    done = _python("-m", "cayley_lift.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_final_flush_is_reported_as_by_the_interpreter():
    """Buffered stdout on a full device: the flush fails after main returns,
    and the interpreter reports it and exits 120, as without cli.run."""
    with open("/dev/full", "w") as full:
        done = _python("-m", "cayley_lift.cli", "roots", *SL4, stdout=full)
    ignored, error = done.stderr.splitlines()
    assert done.returncode == 120
    assert ignored.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
    assert error == "OSError: [Errno %d] %s" % (errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_with_status_1_and_no_traceback(flags):
    """The reader of `cayley-lift ... | head -3` may exit before the CLI
    writes: unbuffered, main's write fails; buffered, the final flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python(*flags, "-m", "cayley_lift.cli", "replay-witness", "--id", "E6-030",
                       "--no-header", stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_the_console_script_is_the_process_entry_point():
    """Plain text: tomllib is missing on Python 3.10, which the package allows."""
    pyproject = (README.parent / "pyproject.toml").read_text()
    assert '\ncayley-lift = "cayley_lift.cli:run"\n' in pyproject


# ---------------------------------------------------------------------------
# the benchmark's tracer
# ---------------------------------------------------------------------------


def _trace_child():
    """perfbench/trace_child.py loaded as a module; its main does not run."""
    path = README.parent / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_function_it_wraps():
    """`--trace 1` wraps each LAYERS name of each module and reads the
    lru_cache statistics of each CACHED function; a missing name or cache
    would break every traced run."""
    tracer = _trace_child()

    def resolve(module, name):
        return getattr(importlib.import_module("cayley_lift." + module), name, None)

    wrapped = [(module, name) for module, names in tracer.LAYERS.items() for name in names]
    assert len(wrapped) == 32
    assert [m + "." + n for m, n in wrapped if not callable(resolve(m, n))] == []
    assert len(tracer.CACHED) == 3
    assert [name for name in tracer.CACHED
            if not hasattr(resolve(*name.split(".")), "cache_info")] == []
