"""CLI output pinned byte for byte against tests/golden (see generate.py there)."""

from __future__ import annotations

import json

import pytest

from cayley_lift import witness_data
from golden.generate import (DIGESTS, DIRECTORY, FORMATS, GROUPS, ROOT, VERBS, transcript,
                             verb_digests, verb_transcript)


def test_every_catalog_id_has_transcripts():
    expected = {"%s.%s" % (w, s) for w in witness_data.CATALOG for s in FORMATS}
    assert {path.name for path in DIRECTORY.iterdir()} == expected


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("witness_id", sorted(witness_data.CATALOG))
def test_replay_witness_transcript(witness_id, suffix):
    golden = (DIRECTORY / ("%s.%s" % (witness_id, suffix))).read_bytes()
    assert transcript(witness_id, suffix) == golden


def test_every_verb_and_group_has_transcripts():
    expected = {"%s.%s" % (g, s) for g in GROUPS for s in FORMATS}
    for verb in VERBS:
        assert {path.name for path in (ROOT / verb).iterdir()} == expected


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("group", list(GROUPS))
@pytest.mark.parametrize("verb", VERBS)
def test_verb_transcript(verb, group, suffix):
    golden = (ROOT / verb / ("%s.%s" % (group, suffix))).read_bytes()
    assert verb_transcript(verb, group, suffix) == golden


def test_verb_digests_on_every_group():
    """Every verb on all 18 groups, in both formats, against digests.json."""
    assert verb_digests() == json.loads(DIGESTS.read_text())
