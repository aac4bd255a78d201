"""Command-line front end.

Rank flags use group language: --family A --rank N means SL(N) (ambient
dimension N, Lie rank N-1); --family D --rank N means Spin(N,N) (Lie rank
N).  The E families take no rank flag.  Output is deterministic; a comment
header carries run metadata and is suppressed by --no-header.  JSON
payloads carry schema "cayley-lift/1".
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import List, Optional, Sequence

from .root_system import (
    SCHEMA,
    CertificateError,
    Doubled,
    InvariantError,
    ScopeError,
    _integral_system,
    build_root_system,
    is_half_integral,
    rational,
    root_system_to_json,
)
from . import cartan, coherent, klv_poset, lifting, parameters, witness_data

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SCOPE = 3
EXIT_INTERNAL = 4

_EPILOG = """\
exit codes:
  0  success (all checks passed)
  1  a verification or replay check failed
  2  usage error
  3  request outside the implemented scope
  4  internal error: an invariant of the computation failed
"""


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
    """What -h prints: the verbs, or the flags of one verb, then the exit codes."""
    if verb is None:
        about, rows = "VERB is one of:", [(v, entry[1]) for v, entry in _VERBS.items()]
    else:
        about = _VERBS[verb][1]
        rows = [(f + (" {%s}" % ",".join(kind) if type(kind) is tuple else " N" if kind is int
                      else " ID" if kind else ""), text)
                for f in _VERBS[verb][2] + _COMMON for _, kind, text in [_FLAGS[f]]]
    return ("usage: cayley-lift %s [--flag value ...]\n%s\n" % (verb or "VERB", about)
            + "".join("\n  %-26s%s" % row for row in rows) + "\n\n" + _EPILOG)


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
    count = cartan.genuine_central_character_count(args.family, rank)
    if args.chi is None:
        return range(count)
    if not 0 <= args.chi < count:
        raise ScopeError("chi %d out of range; %s has %d genuine central characters"
                         % (args.chi, args.family, count))
    return (args.chi,)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    out = sys.stdout
    if args.format == "json":
        import json  # loaded only here: a text request never needs it

        payload = dict(payload)
        payload["schema"] = SCHEMA
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if not args.no_header:
        out.write("# cayley-lift %s\n" % " ".join(_header(args)))
    for line in text_lines:
        out.write(line + "\n")


def _vec(d: Doubled, den: int = 2) -> str:
    """The rational vector d / den, as (x, y, ...)."""
    return "(" + ", ".join(rational(x, den) for x in d) + ")"


def _header(args) -> List[str]:
    parts = [args.verb]
    if args.witness_id:
        parts.append("id=%s" % args.witness_id)
    if args.family:
        parts.append("family=%s" % args.family)
        if args.rank is not None:
            parts.append("rank=%d" % args.rank)
    return parts


# Each handler takes the request, the group's Lie rank (None for E) and the
# central characters asked for, and returns (JSON payload, text lines, ok).

def _cmd_roots(args, rank, chis):
    system = build_root_system(args.family, rank)
    integral = len(_integral_system(system, system.doubled_rho, 8).positive_index)
    half = sum(is_half_integral(system, d) for d in system.doubled_positive)
    payload = root_system_to_json(system)
    payload["integral_positive_count"] = integral
    payload["half_integral_positive_count"] = half
    lines = [
        "family %s, Lie rank %d, ambient dimension %d" % (
            system.family, system.rank, system.dim),
        "positive roots: %d" % len(system.doubled_positive),
    ]
    for k, d in enumerate(system.doubled_simple):
        lines.append("alpha_%d = %s" % (k + 1, _vec(d)))
    lines.append("rho   = %s" % _vec(system.doubled_rho))
    lines.append("rho/2 = %s" % _vec(system.doubled_rho, 4))
    lines.append("integral positive roots at rho/2: %d" % integral)
    lines.append("half-integral positive roots at rho/2: %d" % half)
    return payload, lines, True


def _cmd_cartans(args, rank, chis):
    reps = parameters.orbit_representatives(args.family, rank)
    diagram = cartan.hasse_diagram(args.family, rank)
    classes = diagram.classes
    payload = {
        "family": args.family,
        "lie_rank": classes[0].rank,
        "classes": [
            {
                "label": c.render(),
                "signature": list(c.signature),
                "shape": cartan.cartan_shape(c).render(),
                "blocks": [list(b) for b in rep.blocks],
                "pairs": [list(p) for p in rep.pairs],
            }
            for c, rep in reps
        ],
        "cayley_edges": [
            [classes[i].render(), classes[j].render()] for i, j in diagram.edges
        ],
    }
    lines = ["%d Cartan classes" % len(classes)]
    for c, rep in reps:
        lines.append(
            "%-10s shape %-10s rep %s" % (c.render(), cartan.cartan_shape(c).render(), rep.render())
        )
    lines.append("Cayley edges (one real rank step each):")
    for i, j in diagram.edges:
        lines.append("  %s -> %s" % (classes[i].render(), classes[j].render()))
    return payload, lines, True


def _cmd_centers(args, rank, chis):
    data = cartan.cover_center_data(args.family, rank)
    payload = {
        "family": data.family,
        "lie_rank": data.rank,
        "center_invariant_factors": list(data.center.invariant_factors),
        "center_order": data.center.order,
        "genuine_quotient_order": data.quotient_order,
        "quotient_representatives": [[rational(x, 2) for x in d] for d in data.doubled_reps],
    }
    lines = [
        "center of the cover: %s (order %d)" % (data.center.render(), data.center.order),
        "genuine quotient order (= genuine central characters): %d" % data.quotient_order,
    ]
    for d in data.doubled_reps:
        lines.append("  coset representative %s" % _vec(d))
    return payload, lines, True


def _cmd_params(args, rank, chis):
    entries = []
    lines = []
    for chi in chis:
        for c, p in parameters.orbit_representatives(args.family, rank, chi):
            length = rational(parameters.length(p), 2)  # length() is doubled
            entries.append(
                {
                    "class": c.render(),
                    "shape": cartan.cartan_shape(c).render(),
                    "length": length,
                    "parameter": parameters.parameter_to_json(p),
                }
            )
            lines.append(
                "chi%d %-10s shape %-10s length %-6s %s"
                % (chi, c.render(), cartan.cartan_shape(c).render(), length, p.render())
            )
    return {"family": args.family, "parameters": entries}, lines, True


def _cmd_count_small(args, rank, chis):
    n = coherent.count_small(args.family, rank)
    payload = {"family": args.family, "count": n}
    if rank is not None:
        payload["lie_rank"] = rank
    return payload, [str(n)], True


def _cmd_replay_witness(args, rank, chis):
    report = coherent.replay_witness(args.witness_id)
    cert = report.certificate
    entry = witness_data.CATALOG[args.witness_id]
    steps = tuple(zip(cert.doubled_steps, cert.tags))
    payload = {
        "witness_id": report.witness_id,
        "family": entry.family,
        "class_signature": list(entry.signature),
        "source": entry.source,
        "word": list(cert.word),
        "steps": [
            {"root": [rational(x, 2) for x in d], "type": tag}
            for d, tag in steps
        ],
        "imaginary_count": cert.imaginary_count,
        "epsilon": cert.sign,
        "det": cert.word_sign,
        "golden_checked": report.golden_checked,
    }
    lines = [
        "witness %s (%s class %s, %s)"
        % (report.witness_id, entry.family, "(%d,%d,%d)" % entry.signature, entry.source),
        "word length %d" % len(cert.word),
    ]
    for k, (d, tag) in enumerate(steps):
        lines.append("beta_%-2d = %-32s (%s)" % (k + 1, _vec(d), tag))
    lines.append("m = %d, epsilon = %+d, det = %+d" % (
        cert.imaginary_count, cert.sign, cert.word_sign))
    lines.append("golden data checked: %s" % ("yes" if report.golden_checked else "no"))
    return payload, lines, True


def _cmd_klv_check(args, rank, chis):
    results = []
    lines = []
    ok = True
    for chi in chis:
        poset = klv_poset.tower_poset(args.family, rank, chi)
        good = klv_poset.verify_inversion(poset)
        ok = ok and good
        results.append({"chi": chi, "elements": len(poset.elements), "inversion": good})
        lines.append(
            "chi%d: %d parameters, M.m = Id: %s" % (chi, len(poset.elements), good)
        )
    lines.append("PASS" if ok else "FAIL")
    return {"family": args.family, "checks": results, "passed": ok}, lines, ok


def _cmd_lift(args, rank, chis):
    out = []
    lines = []
    for chi in chis:
        combo = lifting.lift_trivial(args.family, rank, chi)
        out.append(
            {
                "chi": chi,
                "terms": [
                    {"coefficient": c, "parameter": parameters.parameter_to_json(p)}
                    for p, c in combo.terms
                ],
            }
        )
        lines.append("chi%d: %s" % (chi, combo.render()))
    return {"family": args.family, "lifts": out}, lines, True


def _cmd_verify(args, rank, chis):
    report = lifting.verify_main_theorem(args.family, rank)
    payload = {
        "family": report.family,
        "support_total": report.support_total,
        "small_count": report.small_count,
        "passed": report.passed,
        "checks": [
            {
                "chi": c.chi,
                "lift": c.lift.render(),
                "support_matches": c.support_matches,
                "coefficients_unit": c.coefficients_unit,
            }
            for c in report.checks
        ],
    }
    lines = []
    for c in report.checks:
        lines.append("chi%d lift: %s" % (c.chi, c.lift.render()))
        lines.append(
            "chi%d support matches pi_RD: %s; coefficients all +-1: %s"
            % (c.chi, c.support_matches, c.coefficients_unit)
        )
    lines.append(
        "total support %d, independent small count %d"
        % (report.support_total, report.small_count)
    )
    lines.append("PASS" if report.passed else "FAIL")
    return payload, lines, report.passed


# verb: (handler, help line, the flags it takes besides _COMMON, the first required)
_VERBS = {
    "roots": (_cmd_roots, "root system, rho/2, and its integral subsystem", _GROUP),
    "cartans": (_cmd_cartans, "Cartan classes, torus shapes, and the Cayley diagram", _GROUP),
    "centers": (_cmd_centers, "center of the cover and its genuine quotient", _GROUP),
    "params": (_cmd_params, "orbit representatives with class, shape, and length", _CHI),
    "count-small": (_cmd_count_small, "number of genuine small representations", _GROUP),
    "replay-witness": (_cmd_replay_witness, "replay a stored sign-test witness chain", ("--id",)),
    "klv-check": (_cmd_klv_check, "verify the closed-form change-of-basis inversion", _CHI),
    "lift": (_cmd_lift, "lift of the trivial representation", _CHI),
    "verify": (_cmd_verify, "whole-family check: lift support, coefficients, count", _GROUP),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        handler, _, flags = _VERBS[args.verb]
        rank = _lie_rank(args) if "--family" in flags else None
        chis = _chi_range(args, rank) if "--chi" in flags else None
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
    except cartan.TransformError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
