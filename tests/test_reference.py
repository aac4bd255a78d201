"""The integer Weyl and root-system code against the exact-Fraction reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cayley_lift.cartan import involution_from_pairs, signature_from_involution
from cayley_lift.coherent import (
    _core_sweep,
    chain_types,
    matrix_to_word,
    random_equivalent_word,
    stabilizer,
)
from cayley_lift.parameters import (
    enumerate_block,
    length,
    make_parameter,
    orbit_representatives,
    theta,
    theta_perm,
)
from cayley_lift.root_system import (
    _reflection_perm,
    beta_chain_for_word,
    build_root_system,
    canonical_reflection_word,
    half_integral_roots,
    integral_system,
    mat_apply,
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
    assert (system.simple_roots, system.positive_roots, system.rho) == reference.build(family, rank)
    assert {v: system.simple_coefficients(v) for v in system.roots} == \
        reference.coefficient_table(system)


def _same_subsystem(sub, expected):
    return (sub.roots, sub.positive, sub.simple) == tuple(expected)


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_integral_and_half_integral_roots_match_reference(family, rank):
    system = build_root_system(family, rank)
    integral = integral_system(system.rho_half, system)
    assert _same_subsystem(integral, reference.integral_system(system.rho_half, system))
    assert half_integral_roots(system) == reference.half_integral_roots(system)
    # any other weight goes through the same integer subsystem code
    lam = tuple(x / 3 for x in system.rho)
    assert _same_subsystem(integral_system(lam, system), reference.integral_system(lam, system))


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_reflection_tables_match_direct_permutations(family, rank):
    tables = weyl_tables(build_root_system(family, rank))
    assert tables.reflections == tuple(
        _reflection_perm(d, tables.doubled, tables.index) for d in tables.doubled
    )


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_canonical_reflection_words_match_reference(family, rank):
    system = build_root_system(family, rank)
    expected = [reference.canonical_reflection_word(a, system) for a in system.positive_roots]
    assert [canonical_reflection_word(a, system) for a in system.positive_roots] == expected
    assert [canonical_reflection_word(-(k + 1), system)
            for k in range(len(system.positive_roots))] == expected


def _same_stabilizer(st, expected):
    return all(
        _same_subsystem(getattr(st, name), getattr(expected, name))
        for name in ("integral", "real", "imaginary", "complex_core")
    ) and (st.rho_real, st.rho_imaginary) == (expected.rho_real, expected.rho_imaginary)


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_stabilizer_matches_reference_on_class_representatives(family, rank):
    for _, p in orbit_representatives(family, rank):
        st = stabilizer(p)
        assert st.parameter == p
        assert _same_stabilizer(st, reference.stabilizer(p))


BLOCKS = [("A", 3), ("A", 5), ("D", 4), ("D", 5)]


def _theta_cases():
    cases = [(family, rank, p) for family, rank in BLOCKS for p in enumerate_block(family, rank)]
    cases += [(family, None, p) for family in ("E6", "E7", "E8")
              for _, p in orbit_representatives(family)]
    return cases


THETA_CASES = _theta_cases()


def _check_theta(p):
    """theta(p) and everything read from it against the dense-matrix reference."""
    system = build_root_system(p.family, p.rank if p.family in ("A", "D") else None)
    th = theta(p)
    dense = reference.theta(p)
    assert th.is_involution()
    assert th.matrix == dense
    assert [th.apply(a) for a in system.roots] == [mat_apply(dense, a) for a in system.roots]
    assert theta_perm(p) == root_permutation(dense, system)
    assert signature_from_involution(system, th) == reference.signature(system, dense)
    assert _same_stabilizer(stabilizer(p), reference.stabilizer(p))


@pytest.mark.parametrize(
    "family, rank, p", THETA_CASES,
    ids=["%s%s-%s" % (f, r or "", p.render()) for f, r, p in THETA_CASES],
)
def test_theta_and_stabilizer_match_reference(family, rank, p):
    _check_theta(p)


@pytest.mark.parametrize("family, rank", BLOCKS)
def test_length_matches_reference_on_blocks(family, rank):
    block = enumerate_block(family, rank)
    assert [length(p) for p in block] == [reference.length(p) for p in block]


@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_length_matches_reference_on_e_class_representatives(family):
    reps = [p for _, p in orbit_representatives(family)]
    assert [length(p) for p in reps] == [reference.length(p) for p in reps]


@st.composite
def d6_pairs_and_blocks(draw):
    """Pair and block data of a D 6 parameter: (odd, even) slot planes, each
    unused, carrying e_i - e_j, e_i + e_j or both, or joining one block."""
    odds = draw(st.permutations([1, 3, 5]))
    evens = draw(st.permutations([2, 4, 6]))
    pairs, block = [], []
    for i, j in zip(odds, evens):
        use = draw(st.sampled_from(["none", "minus", "plus", "both", "block"]))
        if use in ("minus", "both"):
            pairs.append((i, j))
        if use in ("plus", "both"):
            pairs.append((-i, -j))
        if use == "block":
            block += [i, j]
    blocks = [tuple(block)] if len(block) >= 4 else []
    if len(block) == 2:
        pairs.append(tuple(block))
    return tuple(pairs), tuple(blocks)


@settings(max_examples=40, deadline=None)
@given(d6_pairs_and_blocks())
def test_d6_theta_and_stabilizer_match_reference(data):
    pairs, blocks = data
    system = build_root_system("D", 6)
    assert involution_from_pairs(system, pairs, blocks).matrix == \
        reference.involution_from_pairs(system, pairs, blocks)
    _check_theta(make_parameter("D", 6, pairs=pairs, blocks=blocks))


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


@st.composite
def block_parameter_and_word(draw):
    family = draw(st.sampled_from(("A", "D")))
    rank = draw(st.integers(3, 5))
    system = build_root_system(family, rank)
    p = draw(st.sampled_from(enumerate_block(family, rank)))
    word = draw(st.lists(st.integers(0, system.rank - 1), min_size=1, max_size=12))
    return system, p, tuple(word)


@settings(max_examples=40, deadline=None)
@given(block_parameter_and_word(), st.randoms(use_true_random=False), st.integers(1, 24))
def test_chain_sign_is_word_independent(case, rng, moves):
    """The imaginary count m depends on the word, but (-1)^m does not: a
    rewrite by identity moves gives the same element and the same sign."""
    system, p, word = case
    other = random_equivalent_word(system, word, rng, moves=moves)
    assert word_matrix(other, system) == word_matrix(word, system)
    assert chain_types(p, other).sign == chain_types(p, word).sign


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
