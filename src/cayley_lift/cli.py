"""Command-line front end.

Rank flags use group language: --family A --rank N means SL(N) (ambient
dimension N, Lie rank N-1); --family D --rank N means Spin(N,N) (Lie rank
N).  The E families take no rank flag.  Output is deterministic; a comment
header carries run metadata and is suppressed by --no-header.  JSON
payloads carry schema "cayley-lift/1".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .root_system import (
    CertificateError,
    InvariantError,
    ScopeError,
    Vector,
    build_root_system,
    half_integral_roots,
    integral_system,
    root_system_to_json,
    vector_to_strings,
)
from . import cartan, coherent, klv_poset, lifting, parameters, witness_data

SCHEMA = "cayley-lift/1"

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-lift",
        description="Genuine small representations of nonlinear double covers "
        "at infinitesimal character rho/2: exact combinatorial data.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, family: bool = True, chi: bool = False,
            wid: bool = False):
        cmd = sub.add_parser(name, help=help_text, epilog=_EPILOG,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        if family:
            cmd.add_argument("--family", choices=("A", "D", "E6", "E7", "E8"),
                             required=True)
            cmd.add_argument("--rank", type=int, default=None,
                             help="SL(N) for family A, Spin(N,N) for family D; "
                             "not accepted for E families")
        if chi:
            cmd.add_argument("--chi", type=int, default=None,
                             help="restrict to one genuine central character")
        if wid:
            cmd.add_argument("--id", required=True, dest="witness_id",
                             help="stored witness identifier, e.g. E7-320")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument("--no-header", action="store_true")
        return cmd

    add("roots", "root system, rho/2, and its integral subsystem")
    add("cartans", "Cartan classes, torus shapes, and the Cayley diagram")
    add("centers", "center of the cover and its genuine quotient")
    add("params", "orbit representatives with class, shape, and length", chi=True)
    add("count-small", "number of genuine small representations")
    add("replay-witness", "recompute a stored sign-test witness chain",
        family=False, wid=True)
    add("klv-check", "verify the closed-form change-of-basis inversion", chi=True)
    add("lift", "lift of the trivial representation", chi=True)
    add("verify", "whole-family check: lift support, coefficients, count")
    return parser


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


def _chi_range(args, family: str, rank: Optional[int]) -> Sequence[int]:
    count = cartan.genuine_central_character_count(family, rank)
    chi = getattr(args, "chi", None)
    if chi is None:
        return range(count)
    if not 0 <= chi < count:
        raise ScopeError(
            "chi %d out of range; %s has %d genuine central characters"
            % (chi, family, count)
        )
    return (chi,)


def _emit(args, header_parts: List[str], payload: dict, text_lines: List[str]) -> None:
    out = sys.stdout
    if args.format == "json":
        payload = dict(payload)
        payload["schema"] = SCHEMA
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if not args.no_header:
        out.write("# cayley-lift %s\n" % " ".join(header_parts))
    for line in text_lines:
        out.write(line + "\n")


def _vec(v: Vector) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _header(args, *extra: str) -> List[str]:
    parts = [args.verb]
    if getattr(args, "family", None):
        parts.append("family=%s" % args.family)
        if args.rank is not None:
            parts.append("rank=%d" % args.rank)
    parts.extend(extra)
    return parts


def _cmd_roots(args) -> int:
    rank = _lie_rank(args)
    system = build_root_system(args.family, rank)
    integral = integral_system(system.rho_half, system)
    half = half_integral_roots(system)
    payload = root_system_to_json(system)
    payload["integral_positive_count"] = len(integral.positive)
    payload["half_integral_positive_count"] = len(half)
    lines = [
        "family %s, Lie rank %d, ambient dimension %d" % (
            system.family, system.rank, system.dim),
        "positive roots: %d" % len(system.positive_roots),
    ]
    for k, a in enumerate(system.simple_roots):
        lines.append("alpha_%d = %s" % (k + 1, _vec(a)))
    lines.append("rho   = %s" % _vec(system.rho))
    lines.append("rho/2 = %s" % _vec(system.rho_half))
    lines.append("integral positive roots at rho/2: %d" % len(integral.positive))
    lines.append("half-integral positive roots at rho/2: %d" % len(half))
    _emit(args, _header(args), payload, lines)
    return EXIT_OK


def _cmd_cartans(args) -> int:
    rank = _lie_rank(args)
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
                "blocks": [list(b) for b in cartan.class_rep_data(c)[0]],
                "pairs": [list(p) for p in cartan.class_rep_data(c)[1]],
            }
            for c in classes
        ],
        "cayley_edges": [
            [classes[i].render(), classes[j].render()] for i, j in diagram.edges
        ],
    }
    lines = ["%d Cartan classes" % len(classes)]
    for c in classes:
        blocks, pairs = cartan.class_rep_data(c)
        rep = parameters.make_parameter(args.family, c.rank, 0, blocks, pairs)
        lines.append(
            "%-10s shape %-10s rep %s" % (c.render(), cartan.cartan_shape(c).render(), rep.render())
        )
    lines.append("Cayley edges (one real rank step each):")
    for i, j in diagram.edges:
        lines.append("  %s -> %s" % (classes[i].render(), classes[j].render()))
    _emit(args, _header(args), payload, lines)
    return EXIT_OK


def _cmd_centers(args) -> int:
    rank = _lie_rank(args)
    data = cartan.cover_center_data(args.family, rank)
    payload = {
        "family": data.family,
        "lie_rank": data.rank,
        "center_invariant_factors": list(data.center.invariant_factors),
        "center_order": data.center.order,
        "genuine_quotient_order": data.quotient_order,
        "quotient_representatives": [list(vector_to_strings(v)) for v in data.quotient_reps],
    }
    lines = [
        "center of the cover: %s (order %d)" % (data.center.render(), data.center.order),
        "genuine quotient order (= genuine central characters): %d" % data.quotient_order,
    ]
    for v in data.quotient_reps:
        lines.append("  coset representative %s" % _vec(v))
    _emit(args, _header(args), payload, lines)
    return EXIT_OK


def _cmd_params(args) -> int:
    rank = _lie_rank(args)
    chis = _chi_range(args, args.family, rank)
    entries = []
    lines = []
    for chi in chis:
        for c, p in parameters.orbit_representatives(args.family, rank, chi):
            entries.append(
                {
                    "class": c.render(),
                    "shape": cartan.cartan_shape(c).render(),
                    "length": str(parameters.length(p)),
                    "parameter": parameters.parameter_to_json(p),
                }
            )
            lines.append(
                "chi%d %-10s shape %-10s length %-6s %s"
                % (chi, c.render(), cartan.cartan_shape(c).render(), parameters.length(p),
                   p.render())
            )
    payload = {"family": args.family, "parameters": entries}
    _emit(args, _header(args), payload, lines)
    return EXIT_OK


def _cmd_count_small(args) -> int:
    rank = _lie_rank(args)
    n = coherent.count_small(args.family, rank)
    payload = {"family": args.family, "count": n}
    if rank is not None:
        payload["lie_rank"] = rank
    _emit(args, _header(args), payload, [str(n)])
    return EXIT_OK


def _cmd_replay_witness(args) -> int:
    report = coherent.replay_witness(args.witness_id)
    cert = report.certificate
    entry = witness_data.CATALOG[args.witness_id]
    payload = {
        "witness_id": report.witness_id,
        "family": entry.family,
        "class_signature": list(entry.signature),
        "source": entry.source,
        "word": list(cert.word),
        "steps": [
            {"root": list(vector_to_strings(root)), "type": tag}
            for root, tag in cert.steps
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
    for k, (root, tag) in enumerate(cert.steps):
        lines.append("beta_%-2d = %-32s (%s)" % (k + 1, _vec(root), tag))
    lines.append("m = %d, epsilon = %+d, det = %+d" % (
        cert.imaginary_count, cert.sign, cert.word_sign))
    lines.append("golden data checked: %s" % ("yes" if report.golden_checked else "no"))
    _emit(args, ["replay-witness", "id=%s" % report.witness_id], payload, lines)
    return EXIT_OK


def _cmd_klv_check(args) -> int:
    rank = _lie_rank(args)
    chis = _chi_range(args, args.family, rank)
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
    payload = {"family": args.family, "checks": results, "passed": ok}
    _emit(args, _header(args), payload, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_lift(args) -> int:
    rank = _lie_rank(args)
    chis = _chi_range(args, args.family, rank)
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
    payload = {"family": args.family, "lifts": out}
    _emit(args, _header(args), payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rank = _lie_rank(args)
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
    _emit(args, _header(args), payload, lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_DISPATCH = {
    "roots": _cmd_roots,
    "cartans": _cmd_cartans,
    "centers": _cmd_centers,
    "params": _cmd_params,
    "count-small": _cmd_count_small,
    "replay-witness": _cmd_replay_witness,
    "klv-check": _cmd_klv_check,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.verb](args)
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
    except parameters.TransformError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
