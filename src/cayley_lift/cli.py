"""Command-line front end.

Rank flags use group language: --family A --rank N means SL(N) (ambient
dimension N, Lie rank N-1); --family D --rank N means Spin(N,N) (Lie rank
N).  The E families take no rank flag.  Output is deterministic; a comment
header carries run metadata and is suppressed by --no-header.  JSON
payloads carry schema "cayley-lift/1".
"""

from __future__ import annotations

import importlib
import re
import sys
from types import SimpleNamespace
from typing import List, Optional, Sequence

from .root_system import SCHEMA, CertificateError, InvariantError, ScopeError, TransformError
from . import center

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SCOPE = 3
EXIT_INTERNAL = 4

# flag: (attribute, a tuple of choices, int, str or None for a switch, help)
_FLAGS = {
    "--family": ("family", ("A", "D", "E6", "E7", "E8"), "required"),
    "--rank": ("rank", int, "SL(N) for family A, Spin(N,N) for family D; not for E"),
    "--chi": ("chi", int, "restrict to one genuine central character"),
    "--id": ("witness_id", str, "required: stored witness identifier, e.g. E7-320"),
    "--format": ("format", ("text", "json"), "default text"),
    "--no-header": ("no_header", None, "omit the comment header"),
    "--help": ("help", None, "show this help and exit"),
}
_COMMON = ("--format", "--no-header", "--help")
_GROUP = ("--family", "--rank")
_CHI = _GROUP + ("--chi",)


def _help(verb: Optional[str]) -> str:
    """What -h prints, from the help module."""
    from .cli_help import usage
    return usage(verb, _VERBS, _FLAGS, _COMMON)


def _is_flag(token: str) -> bool:
    """As in argparse, "-" alone and negative numbers are values."""
    return token[:1] == "-" and token != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", token)


def _parse(argv: Sequence[str]):
    """The request on a command line, as the attributes the verbs read, or the
    help for -h/--help alone before the verb, or after it on a well-formed line.
    A unique prefix names a flag; the last of a repeated flag wins."""
    at = next((k for k, t in enumerate(argv) if t == "--" or not _is_flag(t)), len(argv))
    if at and all(t == "-h" or "--help".startswith(t) for t in argv[:at]):
        return _help(None)
    if at or not argv or argv[0] not in _VERBS:
        raise UsageError("a command line starts with a verb: %s" % ", ".join(_VERBS))
    flags, tokens = _VERBS[argv[0]][2], iter(argv[1:])
    args = SimpleNamespace(verb=argv[0], family=None, rank=None, chi=None, witness_id=None,
                           format="text", no_header=False, help=False)
    for token in tokens:
        stem, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
        found = [f for f in flags + _COMMON if len(stem) > 2 and f.startswith(stem)]
        if len(found) != 1:
            raise UsageError("ambiguous option: %s could match %s" % (stem, ", ".join(found))
                             if found else "unrecognized argument: %s" % token)
        flag, (attr, kind, _) = found[0], _FLAGS[found[0]]
        if kind is None and eq:
            raise UsageError("argument %s: ignored explicit argument %r" % (flag, value))
        if kind is None:
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise UsageError("argument %s: expected one argument" % flag)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError("argument %s: invalid int value: %r" % (flag, value)) from None
        elif type(kind) is tuple and value not in kind:
            raise UsageError("argument %s: invalid choice: %r" % (flag, value))
        setattr(args, attr, value)
    if vars(args).pop("help"):
        return _help(args.verb)
    if getattr(args, _FLAGS[flags[0]][0]) is None:
        raise UsageError("the following arguments are required: %s" % flags[0])
    return args


def _lie_rank(args) -> Optional[int]:
    family = args.family
    if family in ("E6", "E7", "E8"):
        if args.rank is not None:
            raise UsageError("--rank is not accepted for family %s" % family)
        return None
    if args.rank is None:
        raise UsageError("--rank is required for family %s" % family)
    if family == "A":
        if args.rank < 2:
            raise ScopeError("SL(N) needs N >= 2")
        return args.rank - 1
    return args.rank


class UsageError(Exception):
    pass


def _chi_range(args, rank: Optional[int]) -> Sequence[int]:
    count = center.genuine_central_character_count(args.family, rank)
    if args.chi is None:
        return range(count)
    if not 0 <= args.chi < count:
        raise ScopeError("chi %d out of range; %s has %d genuine central characters"
                         % (args.chi, args.family, count))
    return (args.chi,)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    out = sys.stdout
    if args.format == "json":
        from .cli_json import dumps
        out.write(dumps({**payload, "schema": SCHEMA}) + "\n")
        return
    if not args.no_header:
        from .cli_help import header
        out.write(header(args))
    for line in text_lines:
        out.write(line + "\n")


# verb: (handler module, help line, the flags it takes besides _COMMON, the first
# required).  The module's run takes the request, the group's Lie rank (None
# for E) and the central characters asked for, and returns (JSON payload, text
# lines, ok); main imports it on dispatch, so a request compiles only its verb.
_VERBS = {
    "roots": ("cmd_roots", "root system, rho/2, and its integral subsystem", _GROUP),
    "cartans": ("cmd_cartans", "Cartan classes, torus shapes, and the Cayley diagram", _GROUP),
    "centers": ("cmd_centers", "center of the cover and its genuine quotient", _GROUP),
    "params": ("cmd_params", "orbit representatives with class, shape, and length", _CHI),
    "count-small": ("cmd_count_small", "number of genuine small representations", _GROUP),
    "replay-witness": ("cmd_replay_witness", "replay a stored sign-test witness chain", ("--id",)),
    "klv-check": ("cmd_klv_check", "verify the closed-form change-of-basis inversion", _CHI),
    "lift": ("cmd_lift", "lift of the trivial representation", _CHI),
    "verify": ("cmd_verify", "whole-family check: lift support, coefficients, count", _GROUP),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        module, _, flags = _VERBS[args.verb]
        rank = _lie_rank(args) if "--family" in flags else None
        chis = _chi_range(args, rank) if "--chi" in flags else None
        handler = importlib.import_module("." + module, __package__).run
        payload, lines, ok = handler(args, rank, chis)
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ScopeError as exc:
        print("out of scope: %s" % exc, file=sys.stderr)
        return EXIT_SCOPE
    except InvariantError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except TransformError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """The process entry point (`python -m cayley_lift.cli`, `cayley-lift`):
    main, then what interpreter shutdown does that can be seen from outside,
    in its order (the atexit handlers, then a flush of stdout and stderr),
    then os._exit, which skips module teardown.  That is safe only while the
    package starts no thread.  A reader that closed stdout early ends the
    process with status 1, as an uncaught exception would, and no traceback;
    any other failed flush falls back to sys.exit, and the interpreter
    reports it as it always has."""
    import atexit
    import os

    try:
        code = main()
    except BrokenPipeError:
        code = 1
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
