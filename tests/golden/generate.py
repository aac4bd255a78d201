"""Write the replay-witness golden transcripts next to this file.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/golden/generate.py

For every catalog id it stores the stdout of
``cayley-lift replay-witness --id ID --no-header`` as ``replay-witness/ID.txt``
and the same with ``--format json`` as ``replay-witness/ID.json``;
tests/test_golden.py asserts that the CLI still prints them byte for byte.
Regenerate only for an intended output change, and name that change in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from cayley_lift import cli, witness_data

DIRECTORY = Path(__file__).resolve().parent / "replay-witness"
FORMATS = {"txt": [], "json": ["--format", "json"]}


def transcript(witness_id: str, suffix: str) -> bytes:
    """stdout of one replay-witness request, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["replay-witness", "--id", witness_id, "--no-header"] + FORMATS[suffix])
    if code != cli.EXIT_OK:
        raise RuntimeError("replay-witness --id %s exited with %d" % (witness_id, code))
    return out.getvalue().encode()


def main() -> None:
    DIRECTORY.mkdir(exist_ok=True)
    for witness_id in sorted(witness_data.CATALOG):
        for suffix in FORMATS:
            (DIRECTORY / ("%s.%s" % (witness_id, suffix))).write_bytes(transcript(witness_id, suffix))


if __name__ == "__main__":
    main()
