from __future__ import annotations

import itertools
import math

import pytest

from cayley_lift.parameters import (
    PairSetParameter,
    ScopeError,
    TransformError,
    class_of,
    length,
    make_parameter,
    orbit_representatives,
    parameter_to_json,
    theta,
    tower_parameter,
)
from cayley_lift.cayley_graph import cayley, enumerate_block
from cayley_lift.klv_poset import contains, pi_RD, rd_subsets
from cayley_lift import (cayley_graph, count_small, cover_center_data, hasse_diagram, lift_trivial,
                         tower_poset)
from cayley_lift.classes import cartan_classes
from cayley_lift.root_system import build_root_system
from reference import (
    identity_matrix,
    mat_apply,
    mat_mul,
    parameter_from_json,
    pseudospherical_params,
    split_length,
)

IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_basic_renders():
    assert make_parameter("A", 3).render() == "gamma()"
    assert make_parameter("A", 3, pairs=((1, 2), (3, 4))).render() == "gamma({1,2},{3,4})"
    assert make_parameter("D", 4, pairs=((-1, -2), (3, 4))).render() == "gamma({-1,-2},{3,4})"
    assert make_parameter("E6", 6, blocks=((1, 2, 3, 4),)).render() == "gamma({1,2,3,4})"


def test_mixed_sign_pairs_normalize_to_negative():
    p = make_parameter("D", 4, pairs=((1, -2),))
    assert p.pairs == ((-1, -2),)
    q = make_parameter("D", 4, pairs=((-2, 1),))
    assert q.pairs == ((-1, -2),)


def test_validation_errors():
    with pytest.raises(TransformError):
        make_parameter("A", 3, pairs=((-1, -2),))  # signed pairs are D-only
    with pytest.raises(TransformError):
        make_parameter("A", 3, blocks=((1, 2, 3, 4),))
    with pytest.raises(TransformError):
        make_parameter("A", 3, pairs=((1, 2), (2, 3)))  # slot reuse
    with pytest.raises(TransformError):
        make_parameter("A", 3, pairs=((1, 3),))  # same parity: integral plane
    with pytest.raises(TransformError):
        make_parameter("D", 4, pairs=((1, 3),))
    with pytest.raises(TransformError):
        make_parameter("E6", 6, pairs=((5, 6),))  # no such root in E6
    with pytest.raises(TransformError):
        make_parameter("E7", 7, pairs=((-7, -8),))  # e7+e8 is not an E7 root
    with pytest.raises(ScopeError):
        make_parameter("A", 3, chi=2)
    with pytest.raises(ScopeError):
        make_parameter("A", 4, chi=1)  # SL(5) has a single genuine character
    # but the mirror-image pair is fine in E7
    assert make_parameter("E7", 7, pairs=((7, 8),)).render() == "gamma({7,8})"


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_parameter("A", 3, pairs=[(5, 6)]), id="A-pair"),
    pytest.param(lambda: make_parameter("D", 4, blocks=[(1, 2, 3, 40)]), id="D-block"),
    pytest.param(lambda: make_parameter("D", 4, blocks=[(0, 1)]), id="D-block-slot-0"),
    pytest.param(lambda: make_parameter("D", 4, blocks=[(-1, 2)]), id="D-block-negative-slot"),
    pytest.param(lambda: cayley(make_parameter("A", 3), (5, 6)), id="A-cayley"),
    pytest.param(lambda: cayley(make_parameter("D", 4), (-4, -5)), id="D-cayley"),
])
def test_slot_outside_the_ambient_dimension_is_a_transform_error(build):
    with pytest.raises(TransformError, match="outside"):
        build()


# Messages of the pair-overlap check, pinned: the earliest pair (in
# normalized order) that shares a slot with another plane, and the earliest
# such other pair.
OVERLAPS = [
    ("D", 6, [(1, 2), (2, 3)], "(1, 2) and (2, 3)"),
    ("D", 6, [(3, 4), (1, 4)], "(1, 4) and (3, 4)"),
    ("D", 6, [(1, 2), (-1, -2), (2, 3)], "(1, 2) and (2, 3)"),
    ("D", 6, [(-1, -4), (3, 4), (1, 2)], "(1, 2) and (-1, -4)"),
    ("D", 6, [(5, 6), (1, 6), (1, 2)], "(1, 2) and (1, 6)"),
    ("D", 6, [(1, 2), (3, 4), (3, 6)], "(3, 4) and (3, 6)"),
    ("D", 6, [(4, 5), (3, 6), (2, 3), (1, 4)], "(1, 4) and (4, 5)"),
    ("A", 6, [(1, 4), (3, 4), (1, 2)], "(1, 2) and (1, 4)"),
    ("D", 8, [(7, 8), (-5, -8), (1, 2), (-1, -2), (5, 6)], "(5, 6) and (-5, -8)"),
    ("D", 8, [(-7, -8), (5, 8), (7, 8), (3, 6)], "(5, 8) and (7, 8)"),
]


@pytest.mark.parametrize("family, rank, pairs, shared", OVERLAPS)
def test_overlapping_pairs_message(family, rank, pairs, shared):
    with pytest.raises(TransformError) as info:
        make_parameter(family, rank, pairs=pairs)
    assert str(info.value) == "slot shared between pairs " + shared


# A D 6 pair whose first slot (after normalization) lies inside the block
# (1,2,3,4); the block's own slots are checked before any pair's.
SLOT_REUSE = [
    ((4, 5), "slot 4 reused"),
    ((3, 6), "slot 3 reused"),
    ((5, 2), "slot 2 reused"),
    ((-3, -6), "slot 3 reused"),
]


@pytest.mark.parametrize("pair, message", SLOT_REUSE)
def test_a_pair_cannot_reuse_a_block_slot(pair, message):
    with pytest.raises(TransformError) as info:
        make_parameter("D", 6, blocks=[(1, 2, 3, 4)], pairs=[pair])
    assert str(info.value) == message


@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_e_rank_must_be_the_lie_rank(family):
    lie_rank = int(family[1])
    assert make_parameter(family, lie_rank).rank == lie_rank
    assert make_parameter(family, None) == make_parameter(family, lie_rank)
    for rank in (lie_rank - 1, lie_rank + 1, 0):
        with pytest.raises(ScopeError, match="rank of %s is fixed" % family):
            make_parameter(family, rank)


@pytest.mark.parametrize("family, rank", [("E6", 6), ("E7", 7), ("E8", 8)])
@pytest.mark.parametrize("compute", [count_small, orbit_representatives, hasse_diagram,
                                     tower_poset, lift_trivial, cover_center_data],
                         ids=lambda f: f.__name__)
def test_an_e_group_named_by_none_or_its_rank_gives_one_answer(family, rank, compute):
    assert compute(family, None) == compute(family, rank)


# ---------------------------------------------------------------------------
# Cayley transforms
# ---------------------------------------------------------------------------

def test_cayley_moves_down_and_contains():
    p0 = make_parameter("A", 3)
    p1 = cayley(p0, (1, 2))
    assert p1.render() == "gamma({1,2})"
    assert contains(p1, p0) and not contains(p0, p1)
    assert length(p1) < length(p0)
    with pytest.raises(TransformError):
        cayley(p1, (2, 3))  # slot 2 already used


def test_make_parameter_alone_decides_which_free_pair_is_a_move(monkeypatch):
    """cayley_moves offers cayley every pair of free slots and keeps no rule
    of its own: make_parameter refuses the two pairs whose root is not
    half-integral at rho/2, and the other four are the moves."""
    offered, refused = [], {}

    def recorded(p, pair):
        offered.append(pair)
        try:
            return cayley(p, pair)
        except TransformError as error:
            refused[pair] = str(error)
            raise

    monkeypatch.setattr(cayley_graph, "cayley", recorded)
    moves = cayley_graph.cayley_moves(make_parameter("A", 3))
    assert offered == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert refused == {pair: "pair %r is not a half-integral transform" % (pair,)
                       for pair in [(1, 3), (2, 4)]}
    assert [q.pairs for q in moves] == [((1, 2),), ((1, 4),), ((2, 3),), ((3, 4),)]


def test_cayley_supports_both_states_in_d():
    p = cayley(cayley(make_parameter("D", 4), (1, 2)), (-1, -2))
    assert p.render() == "gamma({1,2},{-1,-2})"
    assert class_of(p).render() == "(0,1,+)"


def test_cayley_order_does_not_matter_for_disjoint_pairs():
    p0 = make_parameter("D", 5)
    a = cayley(cayley(p0, (1, 2)), (-3, -4))
    b = cayley(cayley(p0, (-3, -4)), (1, 2))
    assert a == b


def _cayley_by_make_parameter(p, pair):
    """make_parameter on p's data with the pair added, by keyword."""
    return make_parameter(p.family, p.rank, chi=p.chi, blocks=p.blocks,
                          pairs=p.pairs + (tuple(pair),))


def _cayley_mismatches(groups):
    """(representative, pair, cayley's outcome, make_parameter's) wherever
    the two differ, for every pair (i, j), (-i, -j), (j, i) and (i, -j) of
    slots and a few malformed or out-of-range ones, on each class
    representative; an
    outcome is the parameter or the TransformError's message."""
    def outcome(build, p, pair):
        try:
            return build(p, pair)
        except TransformError as error:
            return str(error)

    out = []
    for family, rank in groups:
        dim = build_root_system(family, rank).dim
        pairs = [(0, 1), (1, 1), (-2, 2), (1,), (1, 2, 3), (1, dim + 1)] + [
            q for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
            for q in ((i, j), (-i, -j), (j, i), (i, -j))]
        for _, p in orbit_representatives(family, rank):
            for pair in pairs:
                new, old = outcome(cayley, p, pair), outcome(_cayley_by_make_parameter, p, pair)
                if new != old:
                    out.append((p.render(), pair, new, old))
    return out


def test_cayley_checks_only_the_new_pair_as_make_parameter_would():
    """On every class representative of all 18 groups, every move gives
    the parameter or the error that make_parameter gives on all the pairs."""
    assert _cayley_mismatches(IN_SCOPE) == []


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def test_split_lengths():
    # doubled lengths: 2 * (9/2, 10, 8, 18, 21, 35, 64)
    assert split_length("A", 3) == 9
    assert split_length("A", 5) == 20
    assert split_length("D", 4) == 16
    assert split_length("D", 6) == 36
    assert split_length("E6") == 42
    assert split_length("E7") == 70
    assert split_length("E8") == 128


def test_sl4_length_table():
    # doubled lengths: 2 * (9/2, 7/2, 7/2, 7/2, 3/2, 5/2, 1/2)
    expect = {
        (): 9,
        ((1, 2),): 7,
        ((2, 3),): 7,
        ((3, 4),): 7,
        ((1, 4),): 3,
        ((1, 2), (3, 4)): 5,
        ((1, 4), (2, 3)): 1,
    }
    for pairs, value in expect.items():
        doubled = length(make_parameter("A", 3, pairs=pairs))
        assert type(doubled) is int and doubled == value


def test_noncrossing_closed_form_and_crossing_counterexample():
    # for non-crossing pair sets the length is split_length - sum |i - j|,
    # doubled on both sides
    for pairs in (((1, 2),), ((1, 4), (2, 3)), ((1, 2), (3, 6), (4, 5))):
        p = make_parameter("A", 5, pairs=pairs)
        assert length(p) == split_length("A", 5) - 2 * sum(abs(i - j) for i, j in pairs)
    # the crossing configuration {1,4},{2,5} breaks the closed form
    p = make_parameter("A", 5, pairs=((1, 4), (2, 5)))
    assert length(p) == 10
    assert split_length("A", 5) - 2 * sum(abs(i - j) for i, j in p.pairs) == 8


def test_length_strictly_decreases_under_containment():
    block = enumerate_block("A", 3)
    for p, q in itertools.permutations(block, 2):
        if contains(p, q) and p != q:
            assert length(p) < length(q)


# ---------------------------------------------------------------------------
# block enumeration against an independent combinatorial oracle
# ---------------------------------------------------------------------------

def _disjoint_plane_families(planes):
    """All collections of pairwise slot-disjoint planes, as tuples."""
    families = [()]
    for k in range(1, len(planes) + 1):
        for combo in itertools.combinations(planes, k):
            slots = [s for plane in combo for s in plane]
            if len(slots) == len(set(slots)):
                families.append(combo)
    return families


def _a_block_oracle(ambient):
    planes = [
        (i, j)
        for i in range(1, ambient + 1)
        for j in range(i + 1, ambient + 1)
        if (i + j) % 2 == 1
    ]
    return len(_disjoint_plane_families(planes))


def _d_block_oracle(rank):
    planes = [
        (i, j)
        for i in range(1, rank + 1)
        for j in range(i + 1, rank + 1)
        if (i + j) % 2 == 1
    ]
    # each plane independently carries one of three states: +, -, or both
    return sum(3 ** len(f) for f in _disjoint_plane_families(planes))


def test_block_sizes_match_oracle():
    assert len(enumerate_block("A", 3)) == _a_block_oracle(4) == 7
    assert len(enumerate_block("A", 5)) == _a_block_oracle(6) == 34
    assert len(enumerate_block("A", 6)) == _a_block_oracle(7)
    assert len(enumerate_block("D", 4)) == _d_block_oracle(4) == 31
    assert len(enumerate_block("D", 5)) == _d_block_oracle(5) == 73


def test_a_block_matches_bipartite_matching_count():
    # partial matchings of K_{a,b} between odd and even slots
    for rank in (3, 4, 5, 6):
        n = rank + 1
        a, b = (n + 1) // 2, n // 2
        count = sum(
            math.comb(a, k) * math.comb(b, k) * math.factorial(k)
            for k in range(min(a, b) + 1)
        )
        assert len(enumerate_block("A", rank)) == count


def test_block_is_e_scope_guarded():
    with pytest.raises(ScopeError):
        enumerate_block("E6", 6)


def test_block_elements_are_distinct_and_valid():
    block = enumerate_block("D", 4)
    assert len(set(block)) == len(block)
    for p in block:
        assert isinstance(p, PairSetParameter)
        assert p.family == "D" and p.rank == 4


# ---------------------------------------------------------------------------
# theta involutions attached to parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 4), ("D", 4), ("D", 5)])
def test_parameter_theta_is_involutive_and_permutes_roots(family, rank):
    system = build_root_system(family, rank)
    roots = set(system.roots)
    for p in enumerate_block(family, rank):
        mat = theta(p).matrix
        assert mat_mul(mat, mat) == identity_matrix(system.dim)
        assert {mat_apply(mat, r) for r in roots} == roots


def test_e_theta_matches_class_involution():
    for family in ("E6", "E7", "E8"):
        system = build_root_system(family)
        for _, p in orbit_representatives(family):
            mat = theta(p).matrix
            assert mat_mul(mat, mat) == identity_matrix(system.dim)
            assert {mat_apply(mat, r) for r in system.roots} == set(system.roots)


# ---------------------------------------------------------------------------
# orbit representatives
# ---------------------------------------------------------------------------

def test_orbit_representatives_cover_every_class_once():
    """On all 18 groups and every genuine central character."""
    for family, rank in IN_SCOPE:
        for chi in range(cover_center_data(family, rank).quotient_order):
            reps = orbit_representatives(family, rank, chi)
            assert [c for c, _ in reps] == list(cartan_classes(family, rank))
            classes = [c.render() for c, _ in reps]
            assert len(classes) == len(set(classes))
            for c, p in reps:
                assert p.chi == chi
                assert class_of(p) == c


def test_d4_orbit_representative_renders():
    reps = {c.render(): p.render() for c, p in orbit_representatives("D", 4)}
    assert reps == {
        "(0,0,+)": "gamma()",
        "(1,0,+)": "gamma({1,2})",
        "(0,1,+)": "gamma({1,2},{-1,-2})",
        "(2,0,+)": "gamma({1,2},{3,4})",
        "(2,0,-)": "gamma({1,2},{-3,-4})",
        "(1,1,+)": "gamma({1,2},{-1,-2},{3,4})",
        "(0,2,+)": "gamma({1,2},{-1,-2},{3,4},{-3,-4})",
    }


def test_pseudospherical_params_are_empty_gammas():
    for family, rank in (("A", 3), ("D", 4), ("E7", None)):
        params = pseudospherical_params(family, rank)
        assert all(p.render() == "gamma()" for p in params)
        assert len(params) >= 1


# ---------------------------------------------------------------------------
# display supports
# ---------------------------------------------------------------------------

def test_rd_subsets_catalog():
    def shapes(family, rank=None):
        return [(s.simple_indices, s.pair_images) for s in rd_subsets(family, rank)]

    assert shapes("A", 3) == [((), ()), ((1, 3), ((1, 2), (3, 4)))]
    assert shapes("A", 5) == [((), ()), ((1, 3, 5), ((1, 2), (3, 4), (5, 6)))]
    assert shapes("D", 4) == [
        ((), ()),
        ((3, 4), ((3, 4), (-3, -4))),
        ((1, 3), ((1, 2), (3, 4))),
        ((1, 4), ((1, 2), (-3, -4))),
    ]
    assert shapes("D", 5) == [((), ()), ((4, 5), ((3, 4), (-3, -4)))]
    assert shapes("E6") == [((), ())]
    assert shapes("E7") == [((), ()), ((1, 3, 7), ((-1, -2), (3, 4), (5, 6)))]
    assert shapes("E8") == [((), ())]


def test_pi_rd_renders():
    def renders(family, rank=None, chi=0):
        return sorted(p.render() for p in pi_RD(family, rank, chi))

    assert renders("A", 3) == ["gamma()", "gamma({1,2},{3,4})"]
    assert renders("A", 5) == ["gamma()", "gamma({1,2},{3,4},{5,6})"]
    assert renders("D", 4) == [
        "gamma()",
        "gamma({1,2},{-3,-4})",
        "gamma({1,2},{3,4})",
        "gamma({3,4},{-3,-4})",
    ]
    assert renders("D", 5) == ["gamma()", "gamma({3,4},{-3,-4})"]
    assert renders("E6") == ["gamma()"]
    assert renders("E7") == ["gamma()", "gamma({-1,-2},{3,4},{5,6})"]
    assert renders("E8") == ["gamma()"]
    # chi only relabels: same support for every genuine central character
    assert renders("D", 4, chi=3) == renders("D", 4, chi=0)


def test_e7_tower_class_signatures_by_size():
    subset = rd_subsets("E7")[1]
    expected = {0: "(0,0,7)", 1: "(0,1,5)", 2: "(0,2,3)", 3: "(1,2,2)"}
    for k in range(4):
        for members in itertools.combinations(subset.simple_indices, k):
            t = tower_parameter("E7", None, 0, subset, members)
            assert class_of(t).render() == expected[k]


def test_tower_parameter_full_subset_matches_pi_rd():
    for family, rank in (("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E7", None)):
        expected = {p.render() for p in pi_RD(family, rank, 0)}
        produced = {
            tower_parameter(family, rank, 0, s, s.simple_indices).render()
            for s in rd_subsets(family, rank)
        }
        assert produced == expected


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_parameter_json_round_trip():
    p = make_parameter("D", 5, chi=1, pairs=((1, 2), (-3, -4)))
    payload = parameter_to_json(p)
    assert payload["schema"] == "cayley-lift/1"
    assert payload["central_char"] == 1
    assert parameter_from_json(payload) == p


def test_parameter_json_round_trip_with_blocks():
    p = make_parameter("E6", 6, blocks=((1, 2, 3, 4),))
    assert parameter_from_json(parameter_to_json(p)) == p
