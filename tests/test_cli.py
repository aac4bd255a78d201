from __future__ import annotations

import json
import sys

import pytest

from cayley_lift import cartan, cli, klv_poset, lifting, parameters
from cayley_lift.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SCOPE,
    EXIT_USAGE,
    SCHEMA,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_constants():
    assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_SCOPE) == (0, 1, 2, 3)


def test_usage_errors(capsys):
    # exceptional families fix their own rank
    assert run(capsys, "count-small", "--family", "E7", "--rank", "7")[0] == EXIT_USAGE
    # classical families need one
    assert run(capsys, "count-small", "--family", "A")[0] == EXIT_USAGE
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_scope_errors(capsys):
    assert run(capsys, "count-small", "--family", "D", "--rank", "99")[0] == EXIT_SCOPE
    assert run(capsys, "count-small", "--family", "A", "--rank", "1")[0] == EXIT_SCOPE
    assert run(capsys, "replay-witness", "--id", "E9-000")[0] == EXIT_SCOPE
    assert run(capsys, "params", "--family", "A", "--rank", "5", "--chi", "3")[0] == EXIT_SCOPE


FAMILY_VERBS = ("roots", "cartans", "centers", "params", "count-small", "klv-check", "lift",
                "verify")
CHI_VERBS = ("params", "klv-check", "lift")
CHI_GROUPS = (  # CLI flags and the library's Lie rank
    (("--family", "A", "--rank", "4"), "A", 3),
    (("--family", "D", "--rank", "4"), "D", 4),
    (("--family", "E7"), "E7", None),
)


def _edge_cases():
    cases = []
    for verb in FAMILY_VERBS:
        for family, ranks in (("A", (-1, 0, 1, 11)), ("D", (-1, 0, 2, 9))):
            for rank in ranks:
                cases.append(((verb, "--family", family, "--rank", str(rank)), EXIT_SCOPE))
        cases.append(((verb, "--family", "E6", "--rank", "6"), EXIT_USAGE))
    for verb in CHI_VERBS:
        for flags, family, rank in CHI_GROUPS:
            count = cartan.genuine_central_character_count(family, rank)
            for chi in (-1, count):
                cases.append(((verb,) + flags + ("--chi", str(chi)), EXIT_SCOPE))
    cases.append((("replay-witness", "--id", "nope"), EXIT_SCOPE))
    for line in ("", "frobnicate", "--bogus roots --family E6", "roots --chi 0",
                 "count-small --id E6-030", "roots --family E6 extra", "roots --f E6",
                 "roots --family E6 --no-header=x", "count-small --family A --rank",
                 "replay-witness --id", "roots --family B", "roots --family E6 --format xml",
                 "count-small --family D --rank five", "lift --family E7 --chi one",
                 "count-small --rank 4", "replay-witness --format json",
                 "--bogus -h", "roots -h --family E6 --rank five", "roots --help x"):
        cases.append((tuple(line.split()), EXIT_USAGE))
    return cases


EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("argv, code", EDGE_CASES,
                         ids=[" ".join(a) or "(no arguments)" for a, _ in EDGE_CASES])
def test_malformed_requests_end_in_one_typed_stderr_line(capsys, argv, code):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    prefix = "usage error: " if code == EXIT_USAGE else "out of scope: "
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_non_integer_rank_is_an_argparse_usage_error(capsys):
    """The message keeps argparse's wording."""
    assert main(["count-small", "--family", "D", "--rank", "five"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --rank: invalid int value: 'five'\n"


def test_internal_error_is_exit_code_4_without_traceback(capsys, monkeypatch):
    # break one invariant: a Cayley move from an E6 class lands on a class
    # that is no longer listed (a filtered copy, as the shared table is
    # read-only); the class map is read uncached while patched, so neither
    # an earlier E6 map nor the filtered one outlives this test
    reps = {k: v for k, v in cartan.E_CLASS_REPS.items() if k != ("E6", (2, 2, 0))}
    monkeypatch.setattr(cartan, "E_CLASS_REPS", reps)
    monkeypatch.setattr(cartan, "_class_reps", cartan._class_reps.__wrapped__)
    assert EXIT_INTERNAL == 4
    assert main(["cartans", "--family", "E6"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: Cayley move left the class list: "
        "CartanClass(family='E6', rank=6, signature=(2, 2, 0))\n"
    )


@pytest.mark.parametrize("error, code, line", [
    (parameters.TransformError("pair (1, 3) is not a half-integral transform"), EXIT_USAGE,
     "usage error: pair (1, 3) is not a half-integral transform\n"),
    (ValueError("matrix does not permute the roots"), EXIT_INTERNAL,
     "internal error: matrix does not permute the roots\n"),
])
def test_value_errors_map_to_exit_codes_without_traceback(capsys, monkeypatch, error, code, line):
    def fail(args, rank, chis):
        raise error

    monkeypatch.setitem(cli._VERBS, "roots", (fail,) + cli._VERBS["roots"][1:])
    assert main(["roots", "--family", "E6"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == EXIT_OK


VERB_HELP = {  # verb: its help line
    "roots": "root system, rho/2, and its integral subsystem",
    "cartans": "Cartan classes, torus shapes, and the Cayley diagram",
    "centers": "center of the cover and its genuine quotient",
    "params": "orbit representatives with class, shape, and length",
    "count-small": "number of genuine small representations",
    "replay-witness": "replay a stored sign-test witness chain",
    "klv-check": "verify the closed-form change-of-basis inversion",
    "lift": "lift of the trivial representation",
    "verify": "whole-family check: lift support, coefficients, count",
}
COMMON_FLAGS = {"--format", "--no-header", "--help"}


def test_help_lists_every_verb_and_the_exit_codes(capsys):
    code, out = run(capsys, "--help")
    assert code == EXIT_OK
    listed = {line.split(None, 1)[0]: line.split(None, 1)[1] for line in out.splitlines()
              if line.startswith("  ") and line.split(None, 1)[0] in VERB_HELP}
    assert listed == VERB_HELP
    assert out.endswith(cli._EPILOG)
    assert "exit codes:\n  0  success" in out and "  4  internal error" in out


@pytest.mark.parametrize("verb", sorted(VERB_HELP))
def test_verb_help_lists_exactly_the_flags_it_accepts(capsys, verb):
    code, out = run(capsys, verb, "--help")
    assert code == EXIT_OK
    assert VERB_HELP[verb] in out and out.endswith(cli._EPILOG)
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
    takes = {"--id"} if verb == "replay-witness" else {"--family", "--rank"}
    assert listed == takes | COMMON_FLAGS | ({"--chi"} if verb in CHI_VERBS else set())


def test_main_reads_sys_argv_without_arguments(capsys, monkeypatch):
    """The [project.scripts] entry point calls main() with no argv."""
    monkeypatch.setattr(sys, "argv", ["cayley-lift", "count-small", "--family", "E7",
                                      "--no-header"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == "4\n"


# ---------------------------------------------------------------------------
# text output
# ---------------------------------------------------------------------------

def test_count_small_text(capsys):
    code, out = run(capsys, "count-small", "--family", "E7", "--no-header")
    assert code == EXIT_OK
    assert out == "4\n"


def test_header_names_the_invocation(capsys):
    _, out = run(capsys, "count-small", "--family", "A", "--rank", "4")
    assert out == "# cayley-lift count-small family=A rank=4\n4\n"


def test_group_language_rank(capsys):
    # --rank speaks group language: SL(4) has Lie rank 3 and four small reps
    assert run(capsys, "count-small", "--family", "A", "--rank", "4", "--no-header") == (
        EXIT_OK,
        "4\n",
    )
    assert run(capsys, "count-small", "--family", "A", "--rank", "5", "--no-header") == (
        EXIT_OK,
        "1\n",
    )
    assert run(capsys, "count-small", "--family", "D", "--rank", "4", "--no-header") == (
        EXIT_OK,
        "16\n",
    )


def test_replay_witness_text(capsys):
    code, out = run(capsys, "replay-witness", "--id", "E7-320", "--no-header")
    assert code == EXIT_OK
    assert "m = 23, epsilon = -1, det = +1" in out
    assert out.count("beta_") == 72


def test_lift_text(capsys):
    code, out = run(capsys, "lift", "--family", "A", "--rank", "4", "--no-header")
    assert code == EXIT_OK
    assert out == (
        "chi0: gamma() + gamma({1,2},{3,4})\n"
        "chi1: gamma() + gamma({1,2},{3,4})\n"
    )


def test_klv_check_text(capsys):
    code, out = run(capsys, "klv-check", "--family", "A", "--rank", "4", "--no-header")
    assert code == EXIT_OK
    assert out.endswith("PASS\n")
    assert "M.m = Id: True" in out


def test_roots_text(capsys):
    code, out = run(capsys, "roots", "--family", "E6", "--no-header")
    assert code == EXIT_OK
    assert out.startswith("family E6, Lie rank 6, ambient dimension 8\n")
    assert "positive roots: 36" in out


def test_cartans_text(capsys):
    code, out = run(capsys, "cartans", "--family", "D", "--rank", "8", "--no-header")
    assert code == EXIT_OK
    assert out.startswith("16 Cartan classes\n")
    assert "(0,0,+)    shape (0,0,8)    rep gamma()" in out


def test_centers_text(capsys):
    code, out = run(capsys, "centers", "--family", "E7", "--no-header")
    assert code == EXIT_OK
    assert "center of the cover: Z/2 x Z/2 (order 4)" in out
    assert "coset representative (1, 1, -1, 1, -1, 1, 0, 0)" in out


def test_params_text(capsys):
    code, out = run(capsys, "params", "--family", "A", "--rank", "4", "--no-header")
    assert code == EXIT_OK
    assert "chi0 i=3" in out and "length 9/2" in out and "chi1 i=1" in out


def test_verify_passes(capsys):
    assert run(capsys, "verify", "--family", "D", "--rank", "4")[0] == EXIT_OK
    assert run(capsys, "verify", "--family", "E6")[0] == EXIT_OK


def _failed(report):
    """The report with its verdict turned and every other field kept."""
    return type(report)(*(False if f == "passed" else getattr(report, f) for f in report._fields))


@pytest.mark.parametrize("verb", ["klv-check", "verify"])
def test_a_failed_check_prints_everything_and_exits_1(capsys, monkeypatch, verb):
    real = lifting.verify_main_theorem
    fakes = {"klv-check": (klv_poset, "verify_inversion", lambda poset: False),
             "verify": (lifting, "verify_main_theorem", lambda *a: _failed(real(*a)))}
    argv = (verb, "--family", "D", "--rank", "4")
    good = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("text", "json")}
    monkeypatch.setattr(*fakes[verb])
    bad = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("text", "json")}
    assert capsys.readouterr().err == ""
    assert [code for code, _ in good.values()] == [EXIT_OK, EXIT_OK]
    assert [code for code, _ in bad.values()] == [EXIT_CHECK_FAILED, EXIT_CHECK_FAILED]
    # every line still prints; only the verdicts turn
    text = good["text"][1].replace("M.m = Id: True", "M.m = Id: False")
    assert text.endswith("PASS\n") and bad["text"][1] == text[:-len("PASS\n")] + "FAIL\n"
    want = json.loads(good["json"][1])
    for check in want["checks"] if verb == "klv-check" else ():
        check["inversion"] = False
    want["passed"] = False
    assert json.loads(bad["json"][1]) == want
    assert bad["json"][1].count("\n") == good["json"][1].count("\n")


# ---------------------------------------------------------------------------
# json output
# ---------------------------------------------------------------------------

def test_json_schema_and_determinism(capsys):
    first = run(capsys, "verify", "--family", "D", "--rank", "6", "--format", "json")
    second = run(capsys, "verify", "--family", "D", "--rank", "6", "--format", "json")
    assert first == second and first[0] == EXIT_OK
    payload = json.loads(first[1])
    assert payload["schema"] == SCHEMA
    assert payload["passed"] is True


def test_count_small_json(capsys):
    code, out = run(capsys, "count-small", "--family", "E7", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"count": 4, "family": "E7", "schema": "cayley-lift/1"}
    # keys are emitted sorted
    assert out.index('"count"') < out.index('"family"') < out.index('"schema"')


def test_json_is_reparseable_for_every_verb(capsys):
    cases = [
        ("roots", "--family", "A", "--rank", "4"),
        ("cartans", "--family", "D", "--rank", "4"),
        ("centers", "--family", "A", "--rank", "6"),
        ("params", "--family", "A", "--rank", "4"),
        ("count-small", "--family", "A", "--rank", "4"),
        ("replay-witness", "--id", "E6-030"),
        ("klv-check", "--family", "A", "--rank", "4"),
        ("lift", "--family", "E7"),
        ("verify", "--family", "A", "--rank", "4"),
    ]
    for argv in cases:
        code, out = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, argv
        assert json.loads(out)["schema"] == SCHEMA
