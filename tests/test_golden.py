"""CLI output pinned byte for byte against tests/golden (see generate.py there)."""

from __future__ import annotations

import pytest

from cayley_lift import witness_data
from golden.generate import DIRECTORY, FORMATS, transcript


def test_every_catalog_id_has_transcripts():
    expected = {"%s.%s" % (w, s) for w in witness_data.CATALOG for s in FORMATS}
    assert {path.name for path in DIRECTORY.iterdir()} == expected


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("witness_id", sorted(witness_data.CATALOG))
def test_replay_witness_transcript(witness_id, suffix):
    golden = (DIRECTORY / ("%s.%s" % (witness_id, suffix))).read_bytes()
    assert transcript(witness_id, suffix) == golden
