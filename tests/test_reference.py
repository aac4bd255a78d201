"""The integer Weyl and root-system code against the exact-Fraction reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cayley_lift.coherent import _core_sweep, chain_types, matrix_to_word, stabilizer
from cayley_lift.parameters import enumerate_block, length, orbit_representatives
from cayley_lift.root_system import (
    _coefficient_table,
    beta_chain_for_word,
    build_root_system,
    perm_mul,
    perm_to_word,
    root_permutation,
    weyl_tables,
    word_matrix,
)

GROUPS = [("A", 5), ("D", 5), ("E6", None), ("E7", None), ("E8", None)]
IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_positive_roots_and_coefficients_match_reference(family, rank):
    system = build_root_system(family, rank)
    assert system.positive_roots == reference.positive_roots(system)
    assert _coefficient_table(system) == reference.coefficient_table(system)


@pytest.mark.parametrize("family, rank", [("A", 3), ("A", 5), ("D", 4), ("D", 5)])
def test_length_matches_reference_on_blocks(family, rank):
    block = enumerate_block(family, rank)
    assert [length(p) for p in block] == [reference.length(p) for p in block]


@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_length_matches_reference_on_e_class_representatives(family):
    reps = [p for _, p in orbit_representatives(family)]
    assert [length(p) for p in reps] == [reference.length(p) for p in reps]


@st.composite
def group_and_word(draw):
    family, rank = draw(st.sampled_from(GROUPS))
    system = build_root_system(family, rank)
    word = draw(st.lists(st.integers(0, system.rank - 1), max_size=16))
    return family, rank, system, tuple(word)


@settings(max_examples=40, deadline=None)
@given(group_and_word(), st.data())
def test_chains_match_reference(case, data):
    family, rank, system, word = case
    _, p = data.draw(st.sampled_from(orbit_representatives(family, rank)))
    steps = reference.chain_steps(p, word, system)
    assert beta_chain_for_word(word, system).steps == tuple(beta for beta, _ in steps)
    cert = chain_types(p, word)
    assert cert.steps == steps
    assert cert.imaginary_count == sum(1 for _, tag in steps if tag == "im")


@settings(max_examples=40, deadline=None)
@given(group_and_word())
def test_permutation_descent_matches_matrix_descent(case):
    _, _, system, word = case
    tables = weyl_tables(system)
    m = word_matrix(word, system)
    w = tables.identity
    for letter in word:
        w = perm_mul(w, tables.reflections[tables.simple[letter]])
    assert root_permutation(m, system) == w
    expected = reference.matrix_descent(m, system)
    assert perm_to_word(w, system) == expected
    assert matrix_to_word(m, system) == expected


@pytest.mark.parametrize(
    "family, rank, label",
    [("A", 5, "i=2"), ("D", 5, "(0,2,+)"), ("E6", None, "(2,2,0)")],
)
def test_sweep_order_matches_reference(family, rank, label):
    p = {c.render(): p for c, p in orbit_representatives(family, rank)}[label]
    system = build_root_system(family, rank)
    stab = stabilizer(p)
    expected = [root_permutation(m, system) for m in reference.sweep_elements(p, stab, system)]
    assert len(expected) > 1
    assert list(_core_sweep(p, stab)) == expected
