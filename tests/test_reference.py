"""The integer Weyl and root-system code against the exact-Fraction reference,
the CLI's flag-table parser against the argparse parser it replaced, and its
JSON encoder against json.dumps, which it replaced."""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
from functools import lru_cache
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import reference
from golden.generate import ALL_GROUPS, DIGESTS
from cayley_lift.cartan import involution_from_pairs, signature_from_involution
from cayley_lift.center import cover_center_data, genuine_central_character_count
from cayley_lift import (cayley_graph, center, chains, classes, cli, cli_json, coherent, dense,
                         parameters, root_system, witness_data)
from cayley_lift.chains import chain_roots, chain_types
from cayley_lift.coherent import (
    _doubled_sum,
    canonical_reflection_word,
    perm_mul,
    perm_to_word,
    reflection,
    rule_out,
    stabilizer,
    violates,
)
from cayley_lift.cayley_graph import cayley_moves, enumerate_block
from cayley_lift.dense import integral_system, matrix_to_word, root_permutation, word_matrix
from cayley_lift.e_classes import E_CLASS_REPS
from cayley_lift.klv_poset import rd_subsets, tower_terms
from cayley_lift.parameters import (
    class_of,
    length,
    make_parameter,
    orbit_representatives,
    theta,
    theta_perm,
)
from cayley_lift.root_system import (
    InvariantError,
    RootSystem,
    build_root_system,
    idot,
    is_half_integral,
    positive_coefficients,
)

GROUPS = [("A", 5), ("D", 5), ("E6", None), ("E7", None), ("E8", None)]
IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


def _scaled(vectors, factor=2):
    """factor times each Fraction vector, as ints: the library's doubled coordinates."""
    return tuple(tuple(int(factor * x) for x in v) for v in vectors)


def _indices(system, vectors):
    """The 0-based positive-root index of each positive root, read off the
    library's signed index of its doubled coordinates."""
    return tuple(system.index[d] - 1 for d in _scaled(vectors))


def _check_roots(family, rank):
    """The doubled simple and positive roots and rho, and the closure's
    coefficients of each positive root against the reference's exact basis
    solve."""
    system = build_root_system(family, rank)
    simples, positives, rho = reference.build(family, rank)
    assert (system.doubled_simple, system.doubled_positive, system.doubled_rho) == \
        (_scaled(simples), _scaled(positives), _scaled([rho])[0])
    table = reference.coefficient_table(system)
    assert positive_coefficients(system.doubled_simple) == {
        d: table[a] for d, a in zip(_scaled(positives), positives)}


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_positive_roots_and_coefficients_match_reference(family, rank):
    _check_roots(family, rank)


def _same_subsystem(sub, expected):
    """The positive and simple roots, by index."""
    return (sub.positive_index, sub.simple_index) == (
        _indices(sub.system, expected.positive), _indices(sub.system, expected.simple))


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_integral_and_half_integral_roots_match_reference(family, rank):
    system = build_root_system(family, rank)
    integral = integral_system(system.rho_half, system)
    assert _same_subsystem(integral, reference.integral_system(system.rho_half, system))
    half = tuple(k for k, d in enumerate(system.doubled_positive) if is_half_integral(system, d))
    assert half == _indices(system, reference.half_integral_roots(system))


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_reflection_tables_match_direct_permutations(family, rank):
    """Each reflection, built from doubled coordinates, is the oracle's,
    built from Fraction vectors and looked up in the oracle's own index."""
    system = build_root_system(family, rank)
    table = reference.reflection_table(system)
    assert tuple(reflection(system, k) for k in range(len(system.doubled_positive))) == \
        table.reflections
    assert tuple(system.index[a] - 1 for a in system.doubled_simple) == table.simple


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_canonical_reflection_words_match_reference(family, rank):
    system = build_root_system(family, rank)
    expected = [reference.canonical_reflection_word(a, system) for a in system.positive_roots]
    indices = range(1, len(system.doubled_positive) + 1)
    assert [canonical_reflection_word(s, system) for s in indices] == expected
    assert [canonical_reflection_word(-s, system) for s in indices] == expected


def _same_stabilizer(st, expected):
    """Each part by index, and the sums of the real and imaginary doubled
    positive roots (4 rho_r and 4 rho_i)."""
    return all(
        _same_subsystem(getattr(st, name), getattr(expected, name))
        for name in ("integral", "real", "imaginary", "complex_core")
    ) and (_doubled_sum(st.real), _doubled_sum(st.imaginary)) == \
        _scaled((expected.rho_real, expected.rho_imaginary), 4)


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
    _check_moves(p)


def _check_moves(p):
    added = []
    for q in cayley_moves(p):
        assert (q.chi, q.blocks, len(q.pairs)) == (p.chi, p.blocks, len(p.pairs) + 1)
        assert set(p.pairs) < set(q.pairs)
        added += set(q.pairs) - set(p.pairs)
    assert sorted(added) == sorted(reference.cayley_moves(p))


# Every group with a rule-built class map: A 1-9 and D 3-8.
CLASS_MAP_GROUPS = [("A", r) for r in range(1, 10)] + [("D", r) for r in range(3, 9)]


@lru_cache(maxsize=None)
def _class_map_parameters(family, rank):
    """The chi = 0 block and every tower parameter at every chi."""
    towers = tuple(p for chi in range(genuine_central_character_count(family, rank))
                   for subset in rd_subsets(family, rank)
                   for _, p in tower_terms(family, rank, chi, subset))
    return enumerate_block(family, rank) + towers


def _class_map_mismatches(groups):
    """Where the class map disagrees with the W-conjugacy class of theta on
    the coordinates: representatives that share a canonical form, a class
    count other than Carter's, and each parameter whose class_of is not the
    class of the representative with its canonical form."""
    out = []
    for family, rank in groups:
        group = "%s %d" % (family, rank)
        reps = orbit_representatives(family, rank)
        thetas = [reference.coordinate_theta(rep) for _, rep in reps]
        forms = reference.conjugacy_forms(family, thetas)
        by_form = {forms[t]: c for t, (c, _) in zip(thetas, reps)}
        if len(by_form) != len(reps):
            out.append((group, "representatives share a canonical form"))
        if len(reps) != reference.involution_class_count(family, rank):
            out.append((group, "%d classes" % len(reps)))
        for p in _class_map_parameters(family, rank):
            expected = by_form.get(forms.get(reference.coordinate_theta(p)))
            if class_of(p) != expected:
                out.append((group, p.render(), class_of(p).render()))
    return out


def test_the_class_map_is_the_w_conjugacy_class_of_theta():
    """On every parameter of the A 1-9 and D 3-8 blocks and every tower
    parameter, class_of agrees with theta's W-orbit on the coordinates, the
    representatives lie in distinct orbits, and there are as many classes as
    Carter's involution classes."""
    assert sum(len(_class_map_parameters(*group)) for group in CLASS_MAP_GROUPS) > 9000
    assert _class_map_mismatches(CLASS_MAP_GROUPS) == []


def test_the_class_map_check_catches_a_wrong_orientation_bit(monkeypatch):
    """The orientation bit read modulo 3 gives D 4's parameters with two
    negative single-sign pairs a class that no representative has."""
    monkeypatch.setattr(classes, "_class_reps", classes._class_reps.__wrapped__)
    monkeypatch.setattr(classes, "classify_pairs",
                        _mutant("% 2", "% 3")(classes.classify_pairs))
    assert _class_map_mismatches([("D", 4)])
    monkeypatch.undo()
    assert _class_map_mismatches([("D", 4)]) == []


def test_the_class_map_check_catches_a_flipped_representative(monkeypatch):
    """D 4's (2,0,+) representative with the sign of its last pair flipped
    lies in the orbit of the (2,0,-) representative."""
    right = classes._class_reps

    def flipped(family, rank):
        reps = dict(right(family, rank))
        if (family, rank) == ("D", 4):
            blocks, pairs = reps[(2, 0, 0)]
            reps[(2, 0, 0)] = (blocks, pairs[:-1] + (tuple(-x for x in pairs[-1]),))
        return reps

    monkeypatch.setattr(classes, "_class_reps", flipped)
    assert _class_map_mismatches([("D", 4)])
    monkeypatch.undo()
    assert _class_map_mismatches([("D", 4)]) == []


@pytest.mark.parametrize("family, rank", BLOCKS)
def test_length_matches_reference_on_blocks(family, rank):
    block = enumerate_block(family, rank)
    assert [length(p) for p in block] == [2 * reference.length(p) for p in block]


@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_length_matches_reference_on_e_class_representatives(family):
    reps = [p for _, p in orbit_representatives(family)]
    assert [length(p) for p in reps] == [2 * reference.length(p) for p in reps]


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
    assert tuple(map(dense.view, chain_roots(word, system))) == tuple(beta for beta, _ in steps)
    cert = chain_types(p, word)
    assert cert.steps == steps
    assert cert.imaginary_count == sum(1 for _, tag in steps if tag == "im")


@lru_cache(maxsize=None)
def _long_chain_cases():
    """(label, parameter, word) for every catalog word, against its class's
    representative, and for the certificate word of every ruled-out class."""
    cases = [(witness_id, make_parameter(e.family, None, 0, *E_CLASS_REPS[e.family, e.signature]),
              e.word) for witness_id, e in sorted(witness_data.CATALOG.items())]
    for family, rank in IN_SCOPE:
        for c, p in orbit_representatives(family, rank):
            cert = rule_out(p).certificate
            if cert is not None:
                cases.append(("%s%s %s" % (family, rank or "", c.render()), p, cert.word))
    return tuple(cases)


def _chain_mismatches(cases):
    """Labels of the cases whose chain_types steps (roots and tags) differ
    from the oracle's; a chain root with no index (not a root) counts as a
    difference."""
    out = []
    for label, p, word in cases:
        try:
            same = chain_types(p, word).steps == reference.chain_steps(p, word, build_root_system(
                p.family, p.rank))
        except KeyError:
            same = False
        if not same:
            out.append(label)
    return out


def test_chains_of_long_words_match_reference():
    """The drawn words above have at most 16 letters.  The catalog's words
    have up to 112 (E8-610; E7-320 has 72), and the certificates of the 76
    ruled-out classes are the reduced words of their violating elements."""
    cases = _long_chain_cases()
    assert len(cases) == len(witness_data.CATALOG) + 76
    assert max(len(word) for _, _, word in cases) == 112
    assert _chain_mismatches(cases) == []


def test_the_long_word_check_catches_a_skipped_neighbour(monkeypatch):
    """chain_roots that leaves the first Dynkin neighbour of each consumed
    letter out of the update of u fails the comparison on every long word,
    the 21 catalog words (E7-320 among them) and the 76 certificates; the
    routine as it is passes on all of them."""
    cases = _long_chain_cases()
    assert _chain_mismatches(cases) == []
    source = inspect.getsource(chains.chain_roots)
    update = "        for j in joined[c]:\n"
    assert source.count(update) == 1
    namespace = dict(vars(chains))
    exec(source.replace(update, "        for j in joined[c][1:]:\n"), namespace)
    monkeypatch.setattr(chains, "chain_roots", namespace["chain_roots"])
    found = _chain_mismatches(cases)
    assert "E7-320" in found
    assert found == [label for label, _, _ in cases]


@settings(max_examples=40, deadline=None)
@given(group_and_word())
def test_permutation_descent_matches_matrix_descent(case):
    _, _, system, word = case
    m = word_matrix(word, system)
    w = tuple(range(1, len(system.doubled_positive) + 1))
    for letter in word:
        w = perm_mul(w, reflection(system, system.index[system.doubled_simple[letter]] - 1))
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
    other = reference.random_equivalent_word(system, word, rng, moves=moves)
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
    n = len(system.doubled_positive)
    w = tuple(range(1, n + 1))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=8)):
        w = perm_mul(w, reflection(system, k))
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


def _closure(gens, identity, mul=perm_mul):
    """The group the signed permutations gens generate under the product
    mul, breadth first."""
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = mul(w, g)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return group


def _component_order(r, n):
    """|W| of an irreducible simply-laced system of rank r with n positive
    roots: A_r, D_r or E_r (Bourbaki, Planches I, IV-VII)."""
    if n == r * (r + 1) // 2:
        return factorial(r + 1)
    if n == r * (r - 1):
        return 2 ** (r - 1) * factorial(r)
    return {36: 51840, 63: 2903040, 120: 696729600}[n]


def _weyl_order(sub):
    """|W| of a simply-laced root subsystem: the product of its irreducible
    components' orders, each told apart by its rank and its number of
    positive roots."""
    doubled = sub.system.doubled_positive
    parts = []
    for k in sub.simple_index:
        linked = [c for c in parts if any(idot(doubled[k], doubled[j]) for j in c)]
        parts = [c for c in parts if c not in linked] + [sum(linked, [k])]
    order = 1
    for c in parts:
        n = sum(1 for j in sub.positive_index if any(idot(doubled[j], doubled[k]) for k in c))
        order *= _component_order(len(c), n)
    return order


def _core_centralizer(p, table):
    """The theta-commuting elements of W(core), from a breadth-first search
    over all of W(core), which must have _weyl_order elements."""
    th = theta_perm(p)
    core = stabilizer(p).complex_core
    group = _closure([table.reflections[k] for k in core.simple_index], table.identity)
    assert len(group) == _weyl_order(core)
    return frozenset(w for w in group if perm_mul(th, w) == perm_mul(w, th))


@lru_cache(maxsize=None)
def _small_core_classes():
    """(label, p, W(core)^theta) for every class with no real integral root
    whose W(core) has at most CORE_LIMIT elements, and the number of classes
    with no real integral root."""
    cases, unreal = [], 0
    for family, rank in IN_SCOPE:
        table = reference.reflection_table(build_root_system(family, rank))
        for c, p in orbit_representatives(family, rank):
            st = stabilizer(p)
            if st.real.positive_index:
                continue
            unreal += 1
            if _weyl_order(st.complex_core) <= CORE_LIMIT:
                label = "%s%s %s" % (family, rank or "", c.render())
                cases.append((label, p, _core_centralizer(p, table)))
    return tuple(cases), unreal


def _schreier_list(p, limit=None):
    """The first limit (default all) Schreier generators for p, and the
    oracle's reflection table."""
    table = reference.reflection_table(build_root_system(p.family, p.rank))
    gens = reference.schreier_generators(stabilizer(p), theta_perm(p), table)
    return list(islice(gens, limit)), table


def _span_mismatches(cases):
    """Labels of the cases whose Schreier generators do not generate W(core)^theta."""
    out = []
    for label, p, centralizer in cases:
        gens, table = _schreier_list(p)
        if _closure(gens, table.identity) != centralizer:
            out.append(label)
    return out


def test_schreier_generators_span_the_core_centralizer():
    cases, unreal = _small_core_classes()
    assert (len(cases), unreal) == (49, 60)
    assert _span_mismatches(cases) == []
    assert max(len(centralizer) for _, _, centralizer in cases) == 24


def _orbit(p):
    """theta's W(core)-orbit as rule_out labelled it: checked, which counts
    no imaginary reflection."""
    return rule_out(p).checked


def _small_core_orbit_failures():
    """The small-core survivors whose orbit times W(core)^theta is not
    |W(core)|, and the number of small-core survivors."""
    failures, survivors = [], 0
    for label, p, centralizer in _small_core_classes()[0]:
        if rule_out(p).verdict == "survives":
            survivors += 1
            if _orbit(p) * len(centralizer) != _weyl_order(stabilizer(p).complex_core):
                failures.append(label)
    return failures, survivors


def test_orbit_times_centralizer_is_the_core_weyl_order():
    """For each survivor among the small-core classes, checked is theta's
    W(core)-orbit, and the orbit times W(core)^theta is W(core)."""
    assert _small_core_orbit_failures() == ([], 32)


@lru_cache(maxsize=None)
def _schreier_sims_orders():
    """(label, W(core), its order by the oracle's Schreier-Sims on the
    reflections of its simple roots) for every class of the 18 groups."""
    out = []
    for family, rank in IN_SCOPE:
        table = reference.reflection_table(build_root_system(family, rank))
        for c, p in orbit_representatives(family, rank):
            core = stabilizer(p).complex_core
            gens = [table.reflections[k] for k in core.simple_index]
            label = "%s%s %s" % (family, rank or "", c.render())
            out.append((label, core, reference.schreier_sims_order(gens, table.identity)))
    return tuple(out)


def _order_mismatches():
    """The classes whose core's Schreier-Sims order is not _weyl_order's
    product of component orders."""
    return [label for label, core, order in _schreier_sims_orders() if order != _weyl_order(core)]


def test_schreier_sims_gives_the_core_weyl_order_on_every_class():
    """A second route to |W(core)|: the core's own stabilizer chain on the
    signed roots gives the product of its components' orders on all 112
    classes, the D8 core of E8 (0,4,0) the largest."""
    orders = _schreier_sims_orders()
    assert len(orders) == 112
    assert max((order, label) for label, _, order in orders) == (5160960, "E8 (0,4,0)")
    assert _order_mismatches() == []


def test_the_order_comparison_catches_a_wrong_component_type(monkeypatch):
    """An A component given D's order, 2^(r-1) r! for (r+1)!, fails the
    comparison."""
    right = _component_order

    def a_as_d(r, n):
        return right(r, r * (r - 1)) if n == r * (r + 1) // 2 else right(r, n)

    monkeypatch.setattr(sys.modules[__name__], "_component_order", a_as_d)
    assert _order_mismatches() != []
    monkeypatch.undo()
    assert _order_mismatches() == []


@lru_cache(maxsize=None)
def _generator_verdicts():
    """(group, class, p, the oracle's verdict, method and word) on every class."""
    return tuple(("%s%s" % (family, rank or ""), c.render(), p, reference.generator_rule_out(p))
                 for family, rank in IN_SCOPE for c, p in orbit_representatives(family, rank))


def _generator_mismatches():
    """Classes whose live verdict, method or certificate word differs from
    the oracle's first violating generator, lazily; an InvariantError from
    rule_out counts as a difference."""
    for group, label, p, expected in _generator_verdicts():
        try:
            report = rule_out(p)
            got = (report.verdict, report.method,
                   report.certificate.word if report.certificate else None)
        except InvariantError as exc:
            got = ("InvariantError", str(exc), None)
        if got != expected:
            yield group, label, got, expected


def test_rule_out_matches_the_schreier_generators_on_every_class():
    """On all 112 classes of the 18 groups, the labels of theta's orbit give
    the verdict, method and certificate word of the oracle's first
    violating Schreier generator."""
    verdicts = _generator_verdicts()
    assert len(verdicts) == 112
    assert len({v[:2] for _, _, _, v in verdicts}) == 3
    assert list(_generator_mismatches()) == []


def test_the_generator_comparison_catches_a_labelling_fault(monkeypatch):
    """Labels read with |N(g)| = 1, the parity of g's own root alone where x
    does not fix it, change some verdict or word."""
    sign_test = coherent.violates

    def own_root_only(w, x):
        k = next(k for k, j in enumerate(w) if j == -(k + 1))
        return x[k] != k + 1 or sign_test(w, x)

    monkeypatch.setattr(coherent, "violates", own_root_only)
    assert next(_generator_mismatches(), None) is not None
    monkeypatch.undo()
    assert list(_generator_mismatches()) == []


@lru_cache(maxsize=None)
def _survivor_centralizers():
    """(label, p, the group that the oracle's Schreier generators generate
    under the oracle's own product) for each class the oracle finds
    surviving, on the 18 groups."""
    out = []
    for group, label, p, (verdict, _, _) in _generator_verdicts():
        if verdict == "survives":
            table = reference.reflection_table(build_root_system(p.family, p.rank))
            gens = set(reference.schreier_generators(stabilizer(p), reference.theta_perm(p), table))
            centralizer = _closure(gens, table.identity, reference.perm_mul)
            out.append(("%s %s" % (group, label), p, frozenset(centralizer)))
    return tuple(out)


def _coverage_failures():
    """The survivors whose centralizer holds an element that does not
    commute with theta, or whose labelled orbit times the centralizer's
    order is not |W(core)|."""
    out = []
    for label, p, centralizer in _survivor_centralizers():
        th = reference.theta_perm(p)
        if any(reference.perm_mul(th, w) != reference.perm_mul(w, th) for w in centralizer) \
                or _orbit(p) * len(centralizer) != _weyl_order(stabilizer(p).complex_core):
            out.append(label)
    return out


def test_every_survivor_search_covers_the_core_centralizer():
    """A survivor's verdict rests on the search covering all of
    W(core)^theta.  On all 36 survivors of the 18 groups, four of them with
    |W(core)| over CORE_LIMIT, the oracle's Schreier generators generate a
    group that commutes with theta element by element, and theta's orbit as
    rule_out labelled it, times that group's order, is |W(core)|."""
    cases = _survivor_centralizers()
    assert len(cases) == 36
    assert [label for label, p, _ in cases
            if _weyl_order(stabilizer(p).complex_core) > CORE_LIMIT] == [
        "A9 i=5", "A9 i=4", "D8 (4,0,+)", "D8 (4,0,-)"]
    assert max(len(centralizer) for _, _, centralizer in cases) == 192
    assert _coverage_failures() == []


def test_every_certificate_lies_in_the_group_it_certifies():
    """A ruled-out verdict rests on its certificate.  On all 76 ruled-out
    classes of the 18 groups, the certificate word's element lies in the
    integral Weyl group, and one found by the core stage (complex_search,
    the only stage after the real reflection) lies in W(core)^theta."""
    ruled_out, core_stage, failures = 0, 0, []
    for group, label, p, _ in _generator_verdicts():
        report = rule_out(p)
        if report.verdict == "survives":
            continue
        ruled_out += 1
        word = report.certificate.word
        # W(core)^theta membership includes integral membership
        if report.method == "complex_search":
            core_stage += 1
            if not reference.is_complex_fixed_member(p, word):
                failures.append((group, label, "core"))
        elif not reference.in_integral_weyl_group(p, word):
            failures.append((group, label, "integral"))
    assert (ruled_out, core_stage) == (76, 24)
    assert failures == []


def _reflection_lemma():
    """(imaginary, real, failures): the imaginary and the real integral
    reflections of every class representative of the 18 groups, and those
    among them whose sign test is not as the lemma says, all on the
    oracle's own reflection table, theta, integral roots and sign test."""
    imaginary = real = 0
    failures = []
    for family, rank in IN_SCOPE:
        system = build_root_system(family, rank)
        table = reference.reflection_table(system)
        index = reference.signed_index(family, rank)
        integral = [index[a] - 1 for a in reference.integral_system(system.rho_half, system).positive]
        for c, p in orbit_representatives(family, rank):
            th = reference.theta_perm(p)
            for k in integral:
                if th[k] == k + 1:
                    imaginary += 1
                    if reference.perm_violates(table.reflections[k], th):
                        failures.append(("%s%s %s" % (family, rank or "", c.render()), k, "im"))
                elif th[k] == -(k + 1):
                    real += 1
                    if not reference.perm_violates(table.reflections[k], th):
                        failures.append(("%s%s %s" % (family, rank or "", c.render()), k, "re"))
    return imaginary, real, failures


def test_imaginary_reflections_never_violate_and_real_ones_always_do():
    """Why rule_out tests no imaginary reflection and needs only one real
    one.  The inversions of s_alpha other than alpha pair off as beta and
    alpha - beta; theta fixes both or neither when it fixes alpha, and
    neither when it negates alpha.  On all 112 classes every imaginary
    integral reflection passes the sign test and every real one fails it."""
    assert sum(len(orbit_representatives(f, r)) for f, r in IN_SCOPE) == 112
    assert _reflection_lemma() == (264, 434, [])


def test_the_coverage_check_catches_an_orbit_cut_short(monkeypatch):
    """An orbit search that counts at most 200 labelled conjugates, as one
    cut off there would on a survivor, passes the small-core check (whose
    survivors' orbits have at most 192 elements) and fails the coverage
    check on the survivor of A 9 whose orbit has 600."""
    search = coherent._core_violation

    def cut_at_200(st, th):
        w, labelled = search(st, th)
        return w, min(labelled, 200)

    monkeypatch.setattr(coherent, "_core_violation", cut_at_200)
    assert _small_core_orbit_failures() == ([], 32)
    assert _coverage_failures() == ["A9 i=5"]
    monkeypatch.undo()
    assert _coverage_failures() == []


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
    gens, table = _schreier_list(p, 200)
    gens += [table.reflections[k] for k in stabilizer(p).imaginary.positive_index]
    products = []
    for _ in range(2):
        w = table.identity
        for g in draw(st.lists(st.sampled_from(gens), max_size=6)):
            w = perm_mul(w, g)
        products.append(w)
    return theta_perm(p), products[0], products[1]


@settings(max_examples=60, deadline=None)
@given(centralizer_pair())
def test_sign_test_is_a_character_of_the_centralizer(case):
    th, x, y = case
    assert violates(perm_mul(x, y), th) == (violates(x, th) != violates(y, th))


@st.composite
def reflection_products(draw):
    """A class representative's theta, two random products a and b of
    reflections, and b^-1 as the reversed product."""
    family, rank = draw(st.sampled_from(GROUPS))
    p = draw(st.sampled_from([p for _, p in orbit_representatives(family, rank)]))
    table = reference.reflection_table(build_root_system(family, rank))
    out = []
    for _ in range(2):
        letters = draw(st.lists(st.sampled_from(table.reflections), max_size=6))
        for word in (letters, letters[::-1]):
            w = table.identity
            for g in word:
                w = perm_mul(w, g)
            out.append(w)
    a, _, b, b_inv = out
    return theta_perm(p), a, b, b_inv


@settings(max_examples=80, deadline=None)
@given(reflection_products())
def test_sign_test_is_a_cocycle_on_the_conjugates_of_theta(case):
    """violates(ab, theta) = violates(b, theta) XOR violates(a, b theta b^-1),
    the rule by which rule_out labels theta's W(core)-orbit."""
    th, a, b, b_inv = case
    conjugate = perm_mul(perm_mul(b, th), b_inv)
    assert violates(perm_mul(a, b), th) == (violates(b, th) != violates(a, conjugate))


def test_the_comparisons_catch_injected_faults(monkeypatch):
    """On A 1-6 and D 3-5, a generator set short of one generator spans too
    little on some class, and a sign test flipped on one root changes some
    verdict."""
    cases, _ = _small_core_classes()
    original = reference.schreier_generators

    def one_short(stab, th, table):
        # every copy of the first nontrivial generator, since another edge
        # can give the same generator again
        dropped = None
        for w in original(stab, th, table):
            if dropped is None and w != table.identity:
                dropped = w
            if w != dropped:
                yield w

    monkeypatch.setattr(reference, "schreier_generators", one_short)
    assert _span_mismatches([c for c in cases if (c[1].family, c[1].rank) in VERDICT_GROUPS])
    monkeypatch.undo()

    sign_test = coherent.violates
    monkeypatch.setattr(coherent, "violates", lambda w, th: sign_test(w, th) != (w[0] < 0))
    assert _verdict_mismatches()
    monkeypatch.undo()
    assert _verdict_mismatches() == []


def _check_center(family, rank):
    assert cover_center_data(family, rank).quotient_order == reference.gf2_kernel_count(family, rank)


def _failures(check, cases):
    """The cases on which check fails an assertion."""
    out = []
    for case in cases:
        try:
            check(*case)
        except AssertionError:
            out.append(case)
    return out


def _swap_first_two(original):
    return lambda p: original(p)[1::-1] + original(p)[2:]


def _drop_first(original):
    return lambda *args: original(*args)[1:]


def _negate_a_coordinate(original):
    def build(family, rank=None):
        s = original(family, rank)
        first = (-s.doubled_positive[0][0],) + s.doubled_positive[0][1:]
        return RootSystem(s.family, s.rank, s.dim, s.doubled_simple,
                          (first,) + s.doubled_positive[1:], s.doubled_rho)
    return build


# Command lines that both parsers read, one per verb and one per flag syntax,
# and the malformed lines.  A line that asks for help but is malformed
# otherwise is not listed: argparse printed the help when -h came before the
# fault, where the flag table rejects the line (tests/test_cli.py).
PARSE_LINES = [
    "roots --family A --rank 4",
    "cartans --family D --rank=5 --format json",
    "centers --family=E7 --no-header",
    "params --family A --rank 4 --chi 1",
    "count-small --family E6 --format=text",
    "replay-witness --id E6-030",
    "klv-check --family D --rank 4 --chi=0 --no-header",
    "lift --family E7 --chi 1 --format json --no-header",
    "verify --family A --rank 10",
    "count-small --fam A --r 4 --form json --no",
    "roots --family A --family D --rank 3 --rank 5",
    "roots --family E6 --format json --format text --no-header --no-header",
    "lift --family A --rank -3 --chi -1",
    "roots --family A --rank=-2",
    "replay-witness --id=-x",
    "replay-witness --id=",
    "count-small --family E6 --rank 6",
    "--help",
    "-h",
    "--he",
    "-h frobnicate",
    "-h --he",
    "roots -h",
    "count-small --help",
    "replay-witness --id E6-030 --h",
    # malformed
    "",
    "frobnicate",
    "Roots --family A",
    "--bogus roots --family E6",
    "-- roots --family E6",
    "roots --f A",
    "roots --chi 0",
    "count-small --id E6-030",
    "roots --family A --rank 4 extra",
    "roots extra --family E6",
    "roots --family E6 -5",
    "roots --family E6 --no-header=x",
    "roots --family E6 --help=x",
    "roots --family E6 --",
    "count-small --family A --rank",
    "replay-witness --id",
    "replay-witness --id -x",
    "replay-witness --id --no-header",
    "roots --family B",
    "roots --family=",
    "roots --family E6 --format xml",
    "count-small --family D --rank five",
    "count-small --family D --rank 4.0",
    "lift --family E7 --chi one",
    "count-small --rank 4",
    "replay-witness --format json",
    "roots --family E6 -x",
]
PARSED = ("verb", "family", "rank", "chi", "witness_id", "format", "no_header")


def _parsed(parse, argv):
    """"help", "usage error" or the attribute values that parse gives argv;
    parse either returns the help text or raises UsageError (the flag table),
    or exits through SystemExit (argparse)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parse(argv)
    except cli.UsageError:
        return "usage error"
    except SystemExit as exc:
        return "help" if exc.code == 0 else "usage error"
    if isinstance(args, str):
        return "help"
    return tuple((name, type(getattr(args, name, None)), getattr(args, name, None))
                 for name in PARSED)


def _check_parse(line):
    argv = line.split()
    assert _parsed(cli._parse, argv) == _parsed(reference._build_parser().parse_args, argv)


@pytest.mark.parametrize("line", PARSE_LINES)
def test_the_flag_table_parses_as_argparse_did(line):
    _check_parse(line)


# Values that exercise each rule of the encoder: every escaped character,
# a control character alone and inside text, non-ASCII inside and beyond the
# BMP, empty and nested containers, bool beside int, a tuple, unsorted keys.
JSON_VALUES = (
    ['"', "\\", "\n", "".join(map(chr, range(0x20))), "a\x00b\x1fc", "\x7f", "\u00e9", "\U0001d524"]
    + [chr(c) for c in range(0x20)]
    + [{"b": [], "a": {}, "c": [[], {}, [{}], {"e": []}]}, [True, 1, False, 0, None], (1, ("x", -2)),
       {"z": {"y": [1, 2], "x": "\t"}, "\u00e9": 10 ** 20, "a": ()}, [], {}, "", 0, -7]
)


def _check_json(value):
    assert cli_json.dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", JSON_VALUES, ids=ascii)
def test_the_json_encoder_writes_what_json_dumps_did(value):
    _check_json(value)


@pytest.mark.parametrize("value", [0.5, {1: "x"}, {None: 1}, {"a": {(1,): 2}}, {1, 2}, b"x"], ids=repr)
def test_the_json_encoder_rejects_floats_other_types_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli_json.dumps(value)


JSON_REQUESTS = sorted(key for key in json.loads(DIGESTS.read_text()) if key.endswith(" json"))


@pytest.mark.parametrize("request_key", JSON_REQUESTS)
def test_the_json_encoder_writes_each_golden_payload_as_json_dumps_did(monkeypatch, request_key):
    """The payload main hands to _emit, for each JSON request of
    tests/golden/digests.json, written with the schema as _emit writes it."""
    verb, group, _ = request_key.split()
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload))
    assert cli.main([verb] + ALL_GROUPS[group] + ["--format", "json"]) == cli.EXIT_OK
    (payload,) = payloads
    _check_json({**payload, "schema": root_system.SCHEMA})


def _mutant(old, new):
    """A fault that rewrites old to new, once, in the source of the function
    it is given; the rewritten function calls itself where it recursed."""
    def make(original):
        source = inspect.getsource(original)
        assert source.count(old) == 1, old
        namespace = dict(vars(sys.modules[original.__module__]))
        exec(compile(source.replace(old, new), "<fault>", "exec"), namespace)
        return namespace[original.__name__]
    return make


def _drop_chi(verbs):
    return {verb: entry[:2] + (tuple(f for f in entry[2] if f != "--chi"),)
            for verb, entry in verbs.items()}


def _skip_int_conversion(flags):
    return {flag: (attr, str if kind is int else kind, text)
            for flag, (attr, kind, text) in flags.items()}


SMALL_THETA_CASES = [(p,) for f, r, p in THETA_CASES if (f, r) in (("A", 3), ("D", 4))]
# fault: (module, function, faulty version, the comparison that must catch it, its cases)
CORE_FAULTS = {
    "theta_perm": (parameters, "theta_perm", _swap_first_two, _check_theta, SMALL_THETA_CASES),
    "cayley_moves": (cayley_graph, "cayley_moves", _drop_first, _check_moves, SMALL_THETA_CASES),
    "gf2_kernel_basis": (center, "_gf2_kernel_basis", _drop_first, _check_center,
                         [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E7", None)]),
    "build_root_system": (root_system, "build_root_system", _negate_a_coordinate, _check_roots,
                          [("A", 3), ("D", 4), ("E6", None)]),
    "parse_drops_chi": (cli, "_VERBS", _drop_chi, _check_parse, [(l,) for l in PARSE_LINES]),
    "parse_skips_int": (cli, "_FLAGS", _skip_int_conversion, _check_parse,
                        [(l,) for l in PARSE_LINES]),
    "json_unsorted_keys": (cli_json, "dumps", _mutant("sorted(value.items())", "value.items()"),
                           _check_json, [(v,) for v in JSON_VALUES]),
    "json_item_separator": (cli_json, "dumps", _mutant('("," + inner)', '(", " + inner)'),
                            _check_json, [(v,) for v in JSON_VALUES]),
}


def _install(monkeypatch, original, faulty):
    """faulty in place of original wherever the package or this module binds it."""
    namespaces = [m for n, m in sys.modules.items() if n.startswith("cayley_lift.")]
    for namespace in namespaces + [sys.modules[__name__]]:
        for attr, value in list(vars(namespace).items()):
            if value is original:
                monkeypatch.setattr(namespace, attr, faulty)


@pytest.mark.parametrize("fault", sorted(CORE_FAULTS))
def test_the_comparisons_catch_a_core_fault(monkeypatch, fault):
    """One small fault in a core routine, in the CLI's flag table (a verb
    table without --chi, or ints read as free text) or in its JSON encoder
    (keys left unsorted, or ", " between items), installed wherever the
    package or this module binds it, makes its oracle comparison fail on
    some case; without the fault the same cases pass.  No faulty result
    outlives the fault in a cache: each check asserts on the faulty
    routine's output before it calls a cached routine that uses it, except
    for cover_center_data, whose cache is cleared."""
    module, name, make_fault, check, cases = CORE_FAULTS[fault]
    original = getattr(module, name)
    _install(monkeypatch, original, make_fault(original))
    cover_center_data.cache_clear()
    assert _failures(check, cases)
    monkeypatch.undo()
    cover_center_data.cache_clear()
    assert _failures(check, cases) == []


E_GROUPS = [("E6", None), ("E7", None), ("E8", None)]


def test_the_root_comparison_catches_a_coefficient_bump_dropped_from_the_closure(monkeypatch):
    """positive_coefficients adds 1 to the coefficient of alpha_i when it
    steps from b to b + alpha_i.  Without that bump the closure still
    reaches every positive root, so the build's own count check passes, but
    the comparison with the reference's exact basis solve fails on each E
    group; without the fault it passes on each."""
    faulty = _mutant("(c[i] + 1,)", "(c[i],)")(positive_coefficients)
    assert [tuple(sorted(faulty(build_root_system(*group).doubled_simple)))
            for group in E_GROUPS] == \
        [build_root_system(*group).doubled_positive for group in E_GROUPS]
    _install(monkeypatch, positive_coefficients, faulty)
    assert _failures(_check_roots, E_GROUPS) == E_GROUPS
    monkeypatch.undo()
    assert _failures(_check_roots, E_GROUPS) == []
