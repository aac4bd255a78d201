"""The integer Weyl and root-system code against the exact-Fraction reference."""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cayley_lift.cartan import involution_from_pairs, signature_from_involution
from cayley_lift import coherent
from cayley_lift.coherent import (
    chain_types,
    matrix_to_word,
    random_equivalent_word,
    rule_out,
    stabilizer,
    violates,
)
from cayley_lift.parameters import (
    cayley_moves,
    enumerate_block,
    length,
    make_parameter,
    orbit_representatives,
    theta,
    theta_perm,
)
from cayley_lift.root_system import (
    InvariantError,
    _reflection_perm,
    beta_chain_for_word,
    build_root_system,
    canonical_reflection_word,
    half_integral_roots,
    idot,
    integral_system,
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
# Every block parameter of A 2-6 and D 3-6 checks theta and its signature.
THETA_BLOCKS = [("A", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]


def _theta_cases():
    cases = [(family, rank, p) for family, rank in THETA_BLOCKS
             for p in enumerate_block(family, rank)]
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
    assert [th.apply(a) for a in system.roots] == [reference.mat_apply(dense, a) for a in system.roots]
    assert theta_perm(p) == reference.theta_perm(p)
    assert signature_from_involution(system, th) == reference.signature(system, dense)
    assert _same_stabilizer(stabilizer(p), reference.stabilizer(p))


@pytest.mark.parametrize(
    "family, rank, p", THETA_CASES,
    ids=["%s%s-%s" % (f, r or "", p.render()) for f, r, p in THETA_CASES],
)
def test_theta_and_stabilizer_match_reference(family, rank, p):
    _check_theta(p)


@pytest.mark.parametrize(
    "family, rank, p", THETA_CASES,
    ids=["%s%s-%s" % (f, r or "", p.render()) for f, r, p in THETA_CASES],
)
def test_cayley_moves_match_reference(family, rank, p):
    """The moves make_parameter accepts are the real half-integral pair roots."""
    added = []
    for q in cayley_moves(p):
        assert (q.chi, q.blocks, len(q.pairs)) == (p.chi, p.blocks, len(p.pairs) + 1)
        assert set(p.pairs) < set(q.pairs)
        added += set(q.pairs) - set(p.pairs)
    assert sorted(added) == sorted(reference.cayley_moves(p))


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


@st.composite
def parameter_and_element(draw):
    """A class or block parameter and a product of reflections in its group."""
    family, rank = draw(st.sampled_from(GROUPS))
    params = [p for _, p in orbit_representatives(family, rank)]
    if family in ("A", "D"):
        params += enumerate_block(family, rank)
    system = build_root_system(family, rank)
    tables = weyl_tables(system)
    w = tables.identity
    for k in draw(st.lists(st.integers(0, len(tables.reflections) - 1), max_size=8)):
        w = perm_mul(w, tables.reflections[k])
    return draw(st.sampled_from(params)), system, w


@settings(max_examples=60, deadline=None)
@given(parameter_and_element())
def test_sign_test_reads_the_permutation(case):
    """epsilon != det is the parity of the non-imaginary inversions of w,
    as the chain of a reduced word for w says."""
    p, system, w = case
    cert = chain_types(p, perm_to_word(w, system))
    assert violates(w, theta_perm(p)) == (cert.sign != cert.word_sign)


# ---------------------------------------------------------------------------
# The sign test on generators of the theta-centralizer
# ---------------------------------------------------------------------------

CORE_LIMIT = 5000


def _closure(gens, identity):
    """The group the signed permutations gens generate, breadth first."""
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = perm_mul(w, g)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return group


def _weyl_order(sub):
    """|W| of a simply-laced root subsystem: each irreducible component is
    A_r, D_r or E_r, told apart by its rank r and its number of positive roots."""
    doubled = sub.system.doubled_positive
    parts = []
    for k in sub.simple_index:
        linked = [c for c in parts if any(idot(doubled[k], doubled[j]) for j in c)]
        parts = [c for c in parts if c not in linked] + [sum(linked, [k])]
    order = 1
    for c in parts:
        r = len(c)
        n = sum(1 for j in sub.positive_index if any(idot(doubled[j], doubled[k]) for k in c))
        if n == r * (r + 1) // 2:
            order *= factorial(r + 1)
        elif n == r * (r - 1):
            order *= 2 ** (r - 1) * factorial(r)
        else:
            order *= {36: 51840, 63: 2903040, 120: 696729600}[n]
    return order


def _core_centralizer(p, tables):
    """The theta-commuting elements of W(core), from a breadth-first search
    over all of W(core), which must have _weyl_order elements."""
    th = theta_perm(p)
    core = stabilizer(p).complex_core
    group = _closure([tables.reflections[k] for k in core.simple_index], tables.identity)
    assert len(group) == _weyl_order(core)
    return frozenset(w for w in group if perm_mul(th, w) == perm_mul(w, th))


@lru_cache(maxsize=None)
def _small_core_classes():
    """(label, p, W(core)^theta) for every class with no real integral root
    whose W(core) has at most CORE_LIMIT elements, and the number of classes
    with no real integral root."""
    cases, unreal = [], 0
    for family, rank in IN_SCOPE:
        tables = weyl_tables(build_root_system(family, rank))
        for c, p in orbit_representatives(family, rank):
            st = stabilizer(p)
            if st.real.positive_index:
                continue
            unreal += 1
            if _weyl_order(st.complex_core) <= CORE_LIMIT:
                label = "%s%s %s" % (family, rank or "", c.render())
                cases.append((label, p, _core_centralizer(p, tables)))
    return tuple(cases), unreal


def _schreier_list(p, limit=None):
    """The first limit (default all) Schreier generators for p, and the tables."""
    tables = weyl_tables(build_root_system(p.family, p.rank if p.family in ("A", "D") else None))
    gens = coherent._schreier_generators(stabilizer(p), theta_perm(p), tables)
    return list(islice(gens, limit)), tables


def _span_mismatches(cases):
    """Labels of the cases whose Schreier generators do not generate W(core)^theta."""
    out = []
    for label, p, centralizer in cases:
        gens, tables = _schreier_list(p)
        if _closure(gens, tables.identity) != centralizer:
            out.append(label)
    return out


def test_schreier_generators_span_the_core_centralizer():
    cases, unreal = _small_core_classes()
    assert (len(cases), unreal) == (49, 60)
    assert _span_mismatches(cases) == []
    assert max(len(centralizer) for _, _, centralizer in cases) == 24


VERDICT_GROUPS = [("A", r) for r in range(1, 7)] + [("D", r) for r in range(3, 6)]


@lru_cache(maxsize=None)
def _reference_verdicts():
    return tuple((c.render(), p, reference.rule_out(p))
                 for family, rank in VERDICT_GROUPS for c, p in orbit_representatives(family, rank))


def _verdict_mismatches():
    """Classes whose live (verdict, method) differs from the dense sweep's;
    an InvariantError from rule_out counts as a difference."""
    out = []
    for label, p, expected in _reference_verdicts():
        try:
            report = rule_out(p)
            got = (report.verdict, report.method)
        except InvariantError as exc:
            got = ("InvariantError", str(exc))
        if got != expected:
            out.append((p.family, p.rank, label, got, expected))
    return out


def test_rule_out_matches_the_dense_sweep():
    """The generators decide every class of A 1-6 and D 3-5 as the dense
    reference does from every theta-commuting element of W(core)."""
    assert len(_reference_verdicts()) == 34
    assert {v for _, _, v in _reference_verdicts()} == {
        ("ruled_out", "real_reflection"), ("ruled_out", "complex_search"), ("survives", "full_sweep")}
    assert _verdict_mismatches() == []


@st.composite
def centralizer_pair(draw):
    """A class with no real integral root and two products of its
    imaginary integral reflections and first 200 Schreier generators."""
    family, rank = draw(st.sampled_from(GROUPS))
    params = [p for _, p in orbit_representatives(family, rank)
              if not stabilizer(p).real.positive_index]
    p = draw(st.sampled_from(params))
    gens, tables = _schreier_list(p, 200)
    gens += [tables.reflections[k] for k in stabilizer(p).imaginary.positive_index]
    products = []
    for _ in range(2):
        w = tables.identity
        for g in draw(st.lists(st.sampled_from(gens), max_size=6)):
            w = perm_mul(w, g)
        products.append(w)
    return theta_perm(p), products[0], products[1]


@settings(max_examples=60, deadline=None)
@given(centralizer_pair())
def test_sign_test_is_a_character_of_the_centralizer(case):
    th, x, y = case
    assert violates(perm_mul(x, y), th) == (violates(x, th) != violates(y, th))


def test_the_comparisons_catch_injected_faults(monkeypatch):
    """On A 1-6 and D 3-5, a generator set short of one generator spans too
    little on some class, and a sign test flipped on one root changes some
    verdict."""
    cases, _ = _small_core_classes()
    original = coherent._schreier_generators

    def one_short(stab, th, tables):
        # every copy of the first nontrivial generator: the reverse of an
        # edge gives the inverse generator, so a single copy is redundant
        dropped = None
        for w in original(stab, th, tables):
            if dropped is None and w != tables.identity:
                dropped = w
            if w != dropped:
                yield w

    monkeypatch.setattr(coherent, "_schreier_generators", one_short)
    assert _span_mismatches([c for c in cases if (c[1].family, c[1].rank) in VERDICT_GROUPS])
    monkeypatch.undo()

    sign_test = coherent.violates
    monkeypatch.setattr(coherent, "violates", lambda w, th: sign_test(w, th) != (w[0] < 0))
    assert _verdict_mismatches()
    monkeypatch.undo()
    assert _verdict_mismatches() == []
