"""What the CLI prints besides a verb's output: the help text and the
comment header.  Only --help requests and requests without --no-header
load this module.  It reads the CLI's tables from its arguments: under
python -m the CLI runs as __main__, and importing it here would compile it
a second time.
"""

from __future__ import annotations

from typing import Optional

EPILOG = """\
exit codes:
  0  success (all checks passed)
  1  a verification or replay check failed
  2  usage error
  3  request outside the implemented scope
  4  internal error: an invariant of the computation failed
"""


def usage(verb: Optional[str], verbs: dict, flags: dict, common: tuple) -> str:
    """What -h prints: the verbs, or the flags of one verb, then the exit
    codes; verbs, flags and common are the CLI's _VERBS, _FLAGS and _COMMON."""
    if verb is None:
        about, rows = "VERB is one of:", [(v, entry[1]) for v, entry in verbs.items()]
    else:
        about = verbs[verb][1]
        rows = [(f + (" {%s}" % ",".join(kind) if type(kind) is tuple else " N" if kind is int
                      else " ID" if kind else ""), text)
                for f in verbs[verb][2] + common for _, kind, text in [flags[f]]]
    return ("usage: cayley-lift %s [--flag value ...]\n%s\n" % (verb or "VERB", about)
            + "".join("\n  %-26s%s" % row for row in rows) + "\n\n" + EPILOG)


def header(args) -> str:
    """The comment line that names the request, before its output."""
    parts = [args.verb]
    if args.witness_id:
        parts.append("id=%s" % args.witness_id)
    if args.family:
        parts.append("family=%s" % args.family)
        if args.rank is not None:
            parts.append("rank=%d" % args.rank)
    return "# cayley-lift %s\n" % " ".join(parts)
