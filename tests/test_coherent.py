from __future__ import annotations

import random

import pytest

import reference
from cayley_lift import witness_data
from cayley_lift.coherent import (
    CertificateError,
    chain_types,
    count_small,
    matrix_to_word,
    random_equivalent_word,
    replay_witness,
    rule_out,
    stabilizer,
    survey,
)
from cayley_lift.parameters import make_parameter, orbit_representatives
from cayley_lift.root_system import (
    ScopeError,
    WordError,
    build_root_system,
    word_matrix,
)


# ---------------------------------------------------------------------------
# beta chains
# ---------------------------------------------------------------------------

TWELVE_TAGS = ("im", "im", "cx", "cx", "im", "cx", "cx", "real", "cx", "cx", "cx", "cx")


def _e6_030_parameter():
    return make_parameter("E6", 6, pairs=((1, 2), (-1, -2), (3, 4)))


def test_twelve_letter_chain_tags_exactly():
    entry = witness_data.CATALOG["E6-030"]
    cert = chain_types(_e6_030_parameter(), entry.word)
    assert tuple(tag for _, tag in cert.steps) == TWELVE_TAGS
    assert cert.imaginary_count == 3
    assert cert.sign == -1
    assert cert.word_sign == 1


def test_chain_sign_conventions():
    p = make_parameter("E6", 6)
    word = (5, 4, 5)
    cert = chain_types(p, word)
    assert all(tag == "real" for _, tag in cert.steps)
    assert cert.imaginary_count == 0
    assert cert.sign == 1
    assert cert.word_sign == (-1) ** len(word)


def test_chain_rejects_bad_letters():
    p = make_parameter("A", 3)
    with pytest.raises(WordError):
        chain_types(p, (0, 7))


def test_imaginary_count_depends_on_word_but_sign_does_not():
    # two words for the same Weyl element can disagree on the tag multiset,
    # yet the sign (-1)^m is an invariant of the element
    p = _e6_030_parameter()
    system = build_root_system("E6")
    entry = witness_data.CATALOG["E6-030"]
    rng = random.Random(11)
    base = chain_types(p, entry.word)
    seen_counts = set()
    for _ in range(30):
        other = random_equivalent_word(system, entry.word, rng)
        cert = chain_types(p, other)
        assert word_matrix(other, system) == word_matrix(entry.word, system)
        assert cert.sign == base.sign
        seen_counts.add(cert.imaginary_count)
    assert len(seen_counts) > 1


# ---------------------------------------------------------------------------
# stabilizer descriptions
# ---------------------------------------------------------------------------

def test_split_stabilizer_is_all_real():
    st = stabilizer(make_parameter("E6", 6))
    assert len(st.real.positive) == 16
    assert not st.imaginary.roots
    assert not st.complex_core.roots


def test_compact_e7_stabilizer_is_all_imaginary():
    reps = {c.render(): p for c, p in orbit_representatives("E7")}
    st = stabilizer(reps["(7,0,0)"])
    assert len(st.imaginary.positive) == 28
    assert not st.real.roots
    assert not st.complex_core.roots


def test_e6_survivor_core_size():
    reps = {c.render(): p for c, p in orbit_representatives("E6")}
    st = stabilizer(reps["(2,2,0)"])
    assert len(st.complex_core.positive) == 6


def test_complex_fixed_membership():
    p = _e6_030_parameter()
    entry = witness_data.CATALOG["E6-030"]
    assert reference.is_complex_fixed_member(p, entry.word)
    # on the split parameter s35 moves rho_real, so it is not a member
    split = make_parameter("E6", 6)
    assert not reference.is_complex_fixed_member(split, (5, 4, 5))


def test_integral_weyl_membership():
    split = make_parameter("E6", 6)
    assert reference.in_integral_weyl_group(split, (5, 4, 5))
    # a reflection in a half-integral root does not belong
    assert not reference.in_integral_weyl_group(split, (1,))


# ---------------------------------------------------------------------------
# word recovery
# ---------------------------------------------------------------------------

def test_matrix_to_word_round_trips():
    for family, rank, word in (("A", 3, (0, 1, 2, 1, 0)), ("D", 4, (0, 1, 3, 1)), ("E6", None, (5, 4, 5))):
        system = build_root_system(family, rank)
        mat = word_matrix(word, system)
        recovered = matrix_to_word(mat, system)
        assert word_matrix(recovered, system) == mat


def test_matrix_to_word_rejects_matrices_outside_the_weyl_group():
    from fractions import Fraction as Q

    system = build_root_system("A", 3)
    minus_one = tuple(tuple(Q(-1) if i == j else Q(0) for j in range(4)) for i in range(4))
    # fixes every root but doubles (1,1,1,1), which W fixes
    stretch = tuple(tuple(Q(1, 4) + (1 if i == j else 0) for j in range(4)) for i in range(4))
    half = tuple(tuple(Q(1, 2) if i == j else Q(0) for j in range(4)) for i in range(4))
    for m in (minus_one, stretch, half):
        with pytest.raises(ValueError):
            matrix_to_word(m, system)


# ---------------------------------------------------------------------------
# rule-out verdicts
# ---------------------------------------------------------------------------

A_VERDICTS = {
    (3, "i=3"): ("ruled_out", "real_reflection"),
    (3, "i=2"): ("survives", "full_sweep"),
    (3, "i=1"): ("survives", "full_sweep"),
    (4, "i=4"): ("ruled_out", "real_reflection"),
    (4, "i=3"): ("ruled_out", "real_reflection"),
    (4, "i=2"): ("survives", "full_sweep"),
}

D4_VERDICTS = {
    "(0,0,+)": ("ruled_out", "real_reflection"),
    "(1,0,+)": ("ruled_out", "complex_search"),
    "(0,1,+)": ("survives", "full_sweep"),
    "(2,0,+)": ("survives", "full_sweep"),
    "(2,0,-)": ("survives", "full_sweep"),
    "(1,1,+)": ("ruled_out", "complex_search"),
    "(0,2,+)": ("survives", "full_sweep"),
}

D5_VERDICTS = {
    "(0,0,+)": ("ruled_out", "real_reflection"),
    "(1,0,+)": ("ruled_out", "real_reflection"),
    "(0,1,+)": ("ruled_out", "real_reflection"),
    "(2,0,+)": ("survives", "full_sweep"),
    "(1,1,+)": ("ruled_out", "complex_search"),
    "(0,2,+)": ("survives", "full_sweep"),
}


@pytest.mark.parametrize("rank", [3, 4])
def test_a_rule_out_verdicts(rank):
    for c, p in orbit_representatives("A", rank):
        report = rule_out(p)
        assert (report.verdict, report.method) == A_VERDICTS[(rank, c.render())]


def test_d4_rule_out_verdicts():
    for c, p in orbit_representatives("D", 4):
        report = rule_out(p)
        assert (report.verdict, report.method) == D4_VERDICTS[c.render()]


def test_d5_rule_out_verdicts():
    for c, p in orbit_representatives("D", 5):
        report = rule_out(p)
        assert (report.verdict, report.method) == D5_VERDICTS[c.render()]


def test_e6_rule_out_decides_live():
    """checked counts the reflections and Schreier generators tested up to
    the first violation, whose word is the certificate."""
    verdicts = {}
    for c, p in orbit_representatives("E6"):
        report = rule_out(p)
        word = report.certificate.word if report.certificate else None
        verdicts[c.render()] = (report.verdict, report.method, report.checked, word)
    assert verdicts == {
        "(2,2,0)": ("survives", "full_sweep", 23, None),
        "(0,3,0)": ("ruled_out", "complex_search", 7, (4, 3, 2, 1, 3, 4, 3, 2, 1, 3, 2, 1)),
        "(0,2,2)": ("ruled_out", "real_reflection", 1, (4, 5, 4)),
        "(0,1,4)": ("ruled_out", "real_reflection", 1, (0, 2, 3, 4, 3, 2, 0)),
        "(0,0,6)": ("ruled_out", "real_reflection", 1, (2, 3, 4, 5, 4, 3, 2)),
    }


def test_live_verdicts_match_the_catalog_on_every_e_class():
    """The live sweep rules out exactly the 21 catalogued classes, each
    with a certificate whose sign differs from det; the other four survive."""
    catalogued = {(e.family, e.signature) for e in witness_data.CATALOG.values()}
    ruled_out = set()
    classes = 0
    for family in ("E6", "E7", "E8"):
        for c, p in orbit_representatives(family):
            classes += 1
            report = rule_out(p)
            if report.verdict == "ruled_out":
                ruled_out.add((family, c.signature))
                assert report.certificate.sign != report.certificate.word_sign
            else:
                assert (report.verdict, report.certificate) == ("survives", None)
    assert classes == 25
    assert len(catalogued) == 21
    assert ruled_out == catalogued


def test_survey_matches_rule_out():
    from cayley_lift.parameters import class_of

    reports = survey("D", 4)
    assert len(reports) == 7
    for report in reports:
        key = class_of(report.parameter).render()
        assert (report.verdict, report.method) == D4_VERDICTS[key]


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_small_at_classical_desk_ranks():
    assert count_small("A", 1) == 4    # SL(2)
    assert count_small("A", 2) == 1    # SL(3)
    assert count_small("A", 3) == 4    # SL(4)
    assert count_small("A", 4) == 1    # SL(5)
    assert count_small("D", 3) == 4
    assert count_small("D", 4) == 16
    assert count_small("D", 5) == 4


def test_count_small_is_orbits_times_characters():
    from cayley_lift.cartan import genuine_central_character_count

    for family, rank in (("A", 3), ("A", 4), ("D", 4), ("D", 5)):
        survivors = [r for r in survey(family, rank) if r.verdict == "survives"]
        assert count_small(family, rank) == len(survivors) * genuine_central_character_count(
            family, rank
        )


# ---------------------------------------------------------------------------
# witness catalog
# ---------------------------------------------------------------------------

SEARCHED = {"E7-510", "E8-610", "E8-420", "E8-230"}


def test_catalog_has_twenty_one_entries():
    assert len(witness_data.CATALOG) == 21
    assert set(witness_data.CATALOG) >= SEARCHED


@pytest.mark.parametrize("witness_id", sorted(witness_data.CATALOG))
def test_replay_every_witness(witness_id):
    report = replay_witness(witness_id)
    entry = witness_data.CATALOG[witness_id]
    cert = report.certificate
    assert cert.imaginary_count == entry.imaginary_count
    assert cert.sign == (-1) ** entry.imaginary_count
    # every catalog witness exhibits a sign defect against the determinant
    assert cert.sign != cert.word_sign
    assert report.golden_checked == (entry.golden is not None)
    if witness_id.endswith("-s35") or witness_id.endswith("-s57"):
        assert cert.imaginary_count == 0
        assert all(tag == "real" for _, tag in cert.steps)


def test_replay_unknown_id_is_scope_error():
    with pytest.raises(ScopeError):
        replay_witness("E9-000")


def _tampered(entry, **changes):
    """A copy of a catalog entry with some fields changed, built through the
    WitnessEntry constructor, which rejects a field name it does not have."""
    fields = {name: getattr(entry, name) for name in witness_data.WitnessEntry._fields}
    return witness_data.WitnessEntry(**{**fields, **changes})


def test_replay_detects_corrupted_count(monkeypatch):
    entry = witness_data.CATALOG["E6-030"]
    bad = _tampered(entry, imaginary_count=entry.imaginary_count + 2)
    monkeypatch.setitem(witness_data.CATALOG, "E6-030", bad)
    with pytest.raises(CertificateError):
        replay_witness("E6-030")


def test_replay_detects_corrupted_golden(monkeypatch):
    entry = witness_data.CATALOG["E6-030"]
    steps = entry.golden
    tampered = (steps[1],) + (steps[0],) + steps[2:]
    bad = _tampered(entry, golden=tampered)
    monkeypatch.setitem(witness_data.CATALOG, "E6-030", bad)
    with pytest.raises(CertificateError):
        replay_witness("E6-030")


def test_replay_detects_a_word_that_no_longer_violates(monkeypatch):
    # the empty word has epsilon = det = +1; count and golden data agree with it
    entry = witness_data.CATALOG["E6-030"]
    bad = _tampered(entry, word=(), imaginary_count=0, golden=None)
    monkeypatch.setitem(witness_data.CATALOG, "E6-030", bad)
    with pytest.raises(CertificateError, match="no longer violates"):
        replay_witness("E6-030")


def test_searched_words_share_letters_between_e7_and_e8():
    assert witness_data.CATALOG["E8-420"].word == witness_data.CATALOG["E7-510"].word
    assert witness_data.CATALOG["E8-230"].word == witness_data.CATALOG["E7-510"].word
    assert len(witness_data.CATALOG["E8-610"].word) == 112


def test_e7_320_full_golden():
    report = replay_witness("E7-320")
    cert = report.certificate
    assert len(cert.steps) == 72
    assert cert.imaginary_count == 23
    assert cert.sign == -1
    assert report.golden_checked
