"""Write the golden CLI transcripts next to this file.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/golden/generate.py

For every catalog id it stores the stdout of
``cayley-lift replay-witness --id ID --no-header`` as ``replay-witness/ID.txt``
and the same with ``--format json`` as ``replay-witness/ID.json``.  For every
verb in VERBS and group in GROUPS it stores the stdout of
``cayley-lift VERB FLAGS --no-header`` as ``VERB/GROUP.txt`` and ``.json``
in the same way.  For every verb in VERBS on each of the 18 groups in
ALL_GROUPS, in both formats, it stores the sha256 of that stdout in
``digests.json``.  tests/test_golden.py asserts that the CLI still prints
them byte for byte.  Regenerate only for an intended output change, and
name that change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List

from cayley_lift import cli, witness_data

ROOT = Path(__file__).resolve().parent
DIRECTORY = ROOT / "replay-witness"
DIGESTS = ROOT / "digests.json"
FORMATS = {"txt": [], "json": ["--format", "json"]}
VERBS = ("roots", "cartans", "centers", "params", "count-small", "klv-check", "lift", "verify")
GROUPS = {
    "SL4": ["--family", "A", "--rank", "4"],
    "SL7": ["--family", "A", "--rank", "7"],
    "Spin5-5": ["--family", "D", "--rank", "5"],
    "Spin6-6": ["--family", "D", "--rank", "6"],
    "E6": ["--family", "E6"],
    "E7": ["--family", "E7"],
    "E8": ["--family", "E8"],
}
# Every group in scope: SL(2)..SL(10), Spin(3,3)..Spin(8,8), E6, E7, E8.
ALL_GROUPS = dict(
    [("SL%d" % n, ["--family", "A", "--rank", str(n)]) for n in range(2, 11)]
    + [("Spin%d-%d" % (n, n), ["--family", "D", "--rank", str(n)]) for n in range(3, 9)]
    + [(e, ["--family", e]) for e in ("E6", "E7", "E8")]
)


def _stdout(argv: List[str]) -> bytes:
    """stdout of one CLI request with --no-header, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--no-header"])
    if code != cli.EXIT_OK:
        raise RuntimeError("%s exited with %d" % (" ".join(argv), code))
    return out.getvalue().encode()


def transcript(witness_id: str, suffix: str) -> bytes:
    """stdout of one replay-witness request."""
    return _stdout(["replay-witness", "--id", witness_id] + FORMATS[suffix])


def verb_transcript(verb: str, group: str, suffix: str) -> bytes:
    """stdout of one VERBS request for one of GROUPS."""
    return _stdout([verb] + GROUPS[group] + FORMATS[suffix])


def verb_digests() -> Dict[str, str]:
    """sha256 of the stdout of each VERBS request on each of ALL_GROUPS,
    keyed "VERB GROUP SUFFIX"."""
    return {
        "%s %s %s" % (verb, group, suffix):
            hashlib.sha256(_stdout([verb] + argv + FORMATS[suffix])).hexdigest()
        for verb in VERBS for group, argv in ALL_GROUPS.items() for suffix in FORMATS
    }


def main() -> None:
    DIRECTORY.mkdir(exist_ok=True)
    for witness_id in sorted(witness_data.CATALOG):
        for suffix in FORMATS:
            (DIRECTORY / ("%s.%s" % (witness_id, suffix))).write_bytes(transcript(witness_id, suffix))
    for verb in VERBS:
        (ROOT / verb).mkdir(exist_ok=True)
        for group in GROUPS:
            for suffix in FORMATS:
                path = ROOT / verb / ("%s.%s" % (group, suffix))
                path.write_bytes(verb_transcript(verb, group, suffix))
    DIGESTS.write_text(json.dumps(verb_digests(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
