from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from cayley_lift.center import cover_center_data
from cayley_lift.dense import (
    dot,
    integral_system,
    mat_mul,
    reflection_matrix,
    view,
    word_matrix,
)
from cayley_lift.root_system import (
    RootSystem,
    ScopeError,
    WordError,
    build_root_system,
    neg,
    rational,
    root_system_to_json,
)
from cayley_lift.chains import chain_roots
from cayley_lift.coherent import canonical_reflection_word, perm_to_word, reflection
from reference import (basis_vector, beta_root, coefficient_table, decompose_to_chain,
                       half_integral_roots, pairing, reflect, sub, vector_from_strings)


def V(*xs):
    return tuple(Q(x) for x in xs)


def _signed_index(system, root):
    """The library's signed index of a root given as a Fraction vector."""
    return system.index[tuple(2 * x for x in root)]


def _chain_roots(word, system):
    """The chain roots of a word, from their doubled coordinates."""
    return tuple(map(view, chain_roots(word, system)))


# ---------------------------------------------------------------------------
# construction and counts
# ---------------------------------------------------------------------------

def test_positive_root_counts():
    assert len(build_root_system("A", 4).positive_roots) == 10  # SL(5)
    assert len(build_root_system("D", 4).positive_roots) == 12
    assert len(build_root_system("D", 8).positive_roots) == 56
    assert len(build_root_system("E6").positive_roots) == 36
    assert len(build_root_system("E7").positive_roots) == 63
    assert len(build_root_system("E8").positive_roots) == 120


def test_equal_systems_hash_alike():
    system = build_root_system("E7")
    copy = RootSystem(family=system.family, rank=system.rank, dim=system.dim,
                      doubled_simple=system.doubled_simple,
                      doubled_positive=system.doubled_positive,
                      doubled_rho=system.doubled_rho)
    assert copy is not system and copy == system and hash(copy) == hash(system)
    assert {system: 1}[copy] == 1
    assert build_root_system("E6") != system


def test_scope_caps():
    with pytest.raises(ScopeError):
        build_root_system("A", 10)  # ambient 11 > SL(10)
    with pytest.raises(ScopeError):
        build_root_system("D", 9)
    with pytest.raises(ScopeError):
        build_root_system("D", 2)
    with pytest.raises(ScopeError):
        build_root_system("B", 3)


E_RANKS = {"E6": 6, "E7": 7, "E8": 8}


@pytest.mark.parametrize("family", sorted(E_RANKS))
def test_an_e_group_takes_none_or_its_own_rank(family):
    """Every way of naming an E group reaches one cached object."""
    rank = E_RANKS[family]
    system = build_root_system(family)
    assert system.rank == rank
    assert build_root_system(family, rank) is system
    assert build_root_system(family, None) is system
    for wrong in (rank - 1, rank + 1, 0):
        with pytest.raises(ScopeError, match="^rank of %s is fixed$" % family):
            build_root_system(family, wrong)


def test_all_roots_have_squared_length_two():
    for family, rank in (("A", 4), ("D", 5), ("E6", None), ("E7", None), ("E8", None)):
        system = build_root_system(family, rank)
        assert all(dot(a, a) == 2 for a in system.roots)


def test_e_simple_roots_verbatim():
    e8 = build_root_system("E8")
    assert e8.simple_roots[0] == beta_root((2, 3, 4, 5, 6, 7))
    assert e8.simple_roots[0] == V("1/2", "-1/2", "-1/2", "-1/2", "-1/2", "-1/2", "-1/2", "1/2")
    assert e8.simple_roots[1] == V(1, 1, 0, 0, 0, 0, 0, 0)
    assert e8.simple_roots[2] == V(-1, 1, 0, 0, 0, 0, 0, 0)
    assert e8.simple_roots[3] == V(0, -1, 1, 0, 0, 0, 0, 0)
    assert e8.simple_roots[7] == V(0, 0, 0, 0, 0, -1, 1, 0)
    e6 = build_root_system("E6")
    e7 = build_root_system("E7")
    assert e6.simple_roots == e8.simple_roots[:6]
    assert e7.simple_roots == e8.simple_roots[:7]


def test_rho_vectors():
    assert view(build_root_system("E6").doubled_rho) == V(0, 1, 2, 3, 4, -4, -4, 4)
    assert view(build_root_system("E7").doubled_rho) == V(0, 1, 2, 3, 4, 5, "-17/2", "17/2")
    assert view(build_root_system("E8").doubled_rho) == V(0, 1, 2, 3, 4, 5, 6, 23)
    a3 = build_root_system("A", 3)  # SL(4): decreasing convention
    assert pairing(a3.rho_half, sub(basis_vector(1, 4), basis_vector(2, 4))) == Q(1, 2)


def test_e7_membership_rules():
    e7 = build_root_system("E7")
    assert not e7.is_root(V(0, 0, 0, 0, 0, 0, 1, 1))   # e7+e8 is not an E7 root
    assert e7.is_root(V(0, 0, 0, 0, 0, 0, -1, 1))      # e8-e7 is
    e6 = build_root_system("E6")
    assert not e6.is_root(V(0, 0, 0, 0, -1, 1, 0, 0))  # slot 6 unavailable in E6
    assert e6.is_root(V(0, 0, 0, -1, 1, 0, 0, 0))


def test_beta_root_minus_sign_parity():
    b = beta_root((1, 2))
    assert b[0] == Q(-1, 2) and b[1] == Q(-1, 2) and b[2] == Q(1, 2)
    with pytest.raises(ValueError):
        beta_root((1, 2, 3))  # odd number of minus signs


# ---------------------------------------------------------------------------
# integral / half-integral split at rho/2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,rank,n_integral,n_half",
    [("E6", None, 16, 20), ("E7", None, 28, 35), ("E8", None, 56, 64)],
)
def test_e_integral_half_integral_counts(family, rank, n_integral, n_half):
    system = build_root_system(family, rank)
    integral = integral_system(system.rho_half, system)
    half = half_integral_roots(system)
    assert len(integral.positive) == n_integral
    assert len(half) == n_half
    assert n_integral + n_half == len(system.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 6), ("D", 4), ("D", 7)])
def test_positive_roots_partition_at_rho_half(family, rank):
    system = build_root_system(family, rank)
    integral = set(integral_system(system.rho_half, system).positive)
    half = set(half_integral_roots(system))
    assert integral | half == set(system.positive_roots)
    assert not (integral & half)


@pytest.mark.parametrize("lam", [(Q(1),), (Q(1, 2),) * 5, (Q(1, 2),) * 4],
                         ids=["short", "long", "other"])
def test_integral_system_rejects_any_weight_but_rho_half(lam):
    system = build_root_system("A", 3)  # four coordinates, rho/2 = (3/4, 1/4, -1/4, -3/4)
    with pytest.raises(ValueError, match="^integral roots are computed at rho/2 only, not at "):
        integral_system(lam, system)


def test_a_integral_roots_are_same_parity_pairs():
    system = build_root_system("A", 5)  # SL(6)
    integral = integral_system(system.rho_half, system).positive
    for root in integral:
        slots = [k + 1 for k, x in enumerate(root) if x]
        assert (slots[0] - slots[1]) % 2 == 0


def test_d_integral_roots_are_same_parity_pairs():
    system = build_root_system("D", 6)
    integral = integral_system(system.rho_half, system).positive
    for root in integral:
        slots = [k + 1 for k, x in enumerate(root) if x]
        assert (slots[0] - slots[1]) % 2 == 0
    # both signs occur
    assert any(sum(1 for x in r if x == 1) == 2 for r in integral)
    assert any(sum(1 for x in r if x == 1) == 1 for r in integral)


# ---------------------------------------------------------------------------
# words and chains
# ---------------------------------------------------------------------------

def test_beta_chain_consumes_rightmost_letter_first():
    e6 = build_root_system("E6")
    assert _chain_roots((5, 4, 5), e6) == (
        sub(basis_vector(5, 8), basis_vector(4, 8)),
        sub(basis_vector(5, 8), basis_vector(3, 8)),
        sub(basis_vector(4, 8), basis_vector(3, 8)),
    )


def test_word_matrix_is_left_to_right_product():
    e7 = build_root_system("E7")
    w = (2, 3, 2)
    lhs = word_matrix(w, e7)
    s2 = reflection_matrix(e7.simple_roots[2])
    s3 = reflection_matrix(e7.simple_roots[3])
    assert lhs == mat_mul(mat_mul(s2, s3), s2)


def test_canonical_reflection_word_is_palindromic_and_correct():
    for family, rank in (("A", 4), ("D", 5), ("E7", None)):
        system = build_root_system(family, rank)
        for k in range(0, len(system.positive_roots), 7):
            root = system.positive_roots[k]
            word = canonical_reflection_word(k + 1, system)
            assert word == tuple(reversed(word))
            assert word_matrix(word, system) == reflection_matrix(root)


IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_canonical_reflection_words_are_reduced(family, rank):
    # simply laced: l(s_beta) = 2 ht(beta) - 1, and the canonical word has that length
    system = build_root_system(family, rank)
    heights = coefficient_table(system)
    for k, root in enumerate(system.positive_roots):
        length = 2 * sum(heights[root]) - 1
        assert len(canonical_reflection_word(k + 1, system)) == length
        assert len(perm_to_word(reflection(system, k), system)) == length


def test_canonical_reflection_word_rejects_non_roots():
    a3 = build_root_system("A", 3)
    for alpha in (0, 7, -7):
        with pytest.raises(ValueError, match="not a root"):
            canonical_reflection_word(alpha, a3)


def test_decompose_to_chain_has_odd_palindromic_structure():
    e8 = build_root_system("E8")
    root = beta_root((1, 2, 3, 4, 5, 6))
    chain = decompose_to_chain(root, e8)
    assert len(chain.word) % 2 == 1
    assert word_matrix(chain.word, e8) == reflection_matrix(root)
    assert _chain_roots(canonical_reflection_word(_signed_index(e8, root), e8), e8) == chain.steps


def test_decompose_to_chain_accepts_the_canonical_word():
    for family, rank in (("A", 3), ("D", 4), ("E6", None)):
        system = build_root_system(family, rank)
        for k, root in enumerate(system.positive_roots):
            word = canonical_reflection_word(k + 1, system)
            chain = decompose_to_chain(root, system, word)
            assert chain == decompose_to_chain(root, system)
            assert _chain_roots(word, system) == chain.steps
            assert decompose_to_chain(neg(root), system, word).word == word


def test_decompose_to_chain_rejects_bad_words():
    a3 = build_root_system("A", 3)
    a0, a1 = a3.simple_roots[:2]
    with pytest.raises(WordError, match="palindromic"):
        decompose_to_chain(a0, a3, (0, 1))
    # s_1 s_0 s_1 is the reflection in a0 + a1, not in a0
    for alpha, word in ((a0, (1, 0, 1)), (a1, (0,)), (V(1, 1, 0, 0), (0,))):
        with pytest.raises(WordError, match="compose"):
            decompose_to_chain(alpha, a3, word)
    for word in ((5,), (-1,), (0, 3, 0)):
        with pytest.raises(WordError, match="out of range"):
            decompose_to_chain(a0, a3, word)


def test_word_validation():
    a3 = build_root_system("A", 3)
    for word in ((0, 5), (-1,), (3, 0)):
        with pytest.raises(WordError, match="out of range"):
            chain_roots(word, a3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_root_system_json_round_trip():
    system = build_root_system("D", 4)
    payload = root_system_to_json(system)
    assert payload["schema"] == "cayley-lift/1"
    simples = tuple(vector_from_strings(v) for v in payload["simple_roots"])
    positives = tuple(vector_from_strings(v) for v in payload["positive_roots"])
    assert simples == system.simple_roots
    assert set(positives) == set(system.positive_roots)


def test_rational_is_str_of_fraction():
    assert [rational(n, d) for d in (1, 2, 4, 8) for n in range(-64, 65)] == \
        [str(Q(n, d)) for d in (1, 2, 4, 8) for n in range(-64, 65)]


IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


def _strings(vectors):
    return [[str(x) for x in v] for v in vectors]


def _rendered(doubled, den=2):
    return [[rational(x, den) for x in d] for d in doubled]


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_doubled_rendering_matches_the_fraction_views(family, rank):
    """What the CLI prints from doubled integers is str() of each Fraction view."""
    system = build_root_system(family, rank)
    data = cover_center_data(family, rank)
    doubled = [*system.doubled_simple, *system.doubled_positive, system.doubled_rho]
    views = [*system.simple_roots, *system.positive_roots, view(system.doubled_rho)]
    assert _rendered(doubled) == _strings(views)
    assert _rendered([system.doubled_rho], 4) == _strings([system.rho_half])
    assert _rendered(data.doubled_reps) == _strings(data.quotient_reps)


# ---------------------------------------------------------------------------
# reflection properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("A", 3), ("A", 4), ("D", 3), ("D", 4)]),
    st.data(),
)
def test_reflection_is_an_involution_and_permutes_roots(family_rank, data):
    family, rank = family_rank
    system = build_root_system(family, rank)
    roots = sorted(system.roots)
    alpha = data.draw(st.sampled_from(roots))
    beta = data.draw(st.sampled_from(roots))
    image = reflect(alpha, beta)
    assert image in set(system.roots)
    assert reflect(alpha, image) == beta


def test_negatives_are_roots_positives_partition():
    for family, rank in (("A", 5), ("D", 6), ("E6", None)):
        system = build_root_system(family, rank)
        pos = set(system.positive_roots)
        for r in pos:
            assert _signed_index(system, neg(r)) < 0
            assert system.is_root(neg(r))
        assert len(system.roots) == 2 * len(pos)
