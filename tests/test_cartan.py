from __future__ import annotations

import re
import sys
from fractions import Fraction as Q

import pytest

import reference
from cayley_lift import center
from cayley_lift.cartan import (
    Involution,
    TransformError,
    block_pairs,
    involution_from_pairs,
    signature_from_involution,
)
from cayley_lift.classes import (
    CartanClass,
    cartan_classes,
    cartan_shape,
    class_rep_data,
    classify_pairs,
    involution_for_class,
)
from cayley_lift.cayley_graph import hasse_diagram
from cayley_lift.center import cover_center_data, genuine_central_character_count
from cayley_lift.e_classes import E_CLASS_REPS
from cayley_lift.parameters import make_parameter
from cayley_lift.root_system import InvariantError, ScopeError, build_root_system
from cayley_lift.theorem import verify_main_theorem
from reference import identity_matrix, mat_apply, mat_mul, pairing


IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


def V(*xs):
    return tuple(Q(x) for x in xs)


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def test_a_class_lists():
    assert [c.render() for c in cartan_classes("A", 3)] == ["i=3", "i=2", "i=1"]
    assert [c.render() for c in cartan_classes("A", 4)] == ["i=4", "i=3", "i=2"]
    assert [c.render() for c in cartan_classes("A", 5)] == ["i=5", "i=4", "i=3", "i=2"]
    # ambient n has n//2 + 1 classes
    for rank in range(2, 10):
        n = rank + 1
        assert len(cartan_classes("A", rank)) == n // 2 + 1


def test_d_class_counts():
    expected = {3: 3, 4: 7, 5: 6, 6: 11, 7: 10, 8: 16}
    for rank, count in expected.items():
        assert len(cartan_classes("D", rank)) == count


def test_d_real_rank_read_off_the_signature_is_the_involutions():
    """The class list sorts D classes by rank - a - 2b; on all 53 classes of
    D 3..8 that is m + s of the representative's own involution, and the
    list runs in descending real rank."""
    checked = 0
    for rank in range(3, 9):
        system = build_root_system("D", rank)
        real_ranks = []
        for c in cartan_classes("D", rank):
            blocks, pairs = class_rep_data(c)
            r, m, s = signature_from_involution(
                system, involution_from_pairs(system, pairs=pairs, blocks=blocks))
            a, b, t = c.signature
            assert rank - a - 2 * b == m + s, c
            real_ranks.append(m + s)
            checked += 1
        assert real_ranks == sorted(real_ranks, reverse=True)
    assert checked == 53


def test_e_class_lists():
    assert [c.render() for c in cartan_classes("E6")] == [
        "(2,2,0)", "(0,3,0)", "(0,2,2)", "(0,1,4)", "(0,0,6)",
    ]
    assert len(cartan_classes("E7")) == 10
    assert len(cartan_classes("E8")) == 10
    assert len(E_CLASS_REPS) == 25


def test_e_class_table_is_read_only():
    """The E class order is the table literal's: a key can be neither
    deleted nor re-added, so no edit can move it to the end."""
    patch = pytest.MonkeyPatch()
    with pytest.raises(TypeError):
        patch.delitem(E_CLASS_REPS, ("E6", (2, 2, 0)))
    with pytest.raises(TypeError):
        patch.undo()  # re-adds the key it recorded
    assert [c.render() for c in cartan_classes("E6")] == [
        "(2,2,0)", "(0,3,0)", "(0,2,2)", "(0,1,4)", "(0,0,6)",
    ]


@pytest.mark.parametrize("signature", [
    ("A", 3, (-2,)),
    ("A", 3, (7,)),
    ("D", 4, (3, 0, 0)),
    ("D", 4, (1, 0, 1)),
    ("E7", 7, (9, 9, 9)),
], ids=lambda s: "%s%d:%s" % (s[0][:1], s[1], ",".join(map(str, s[2]))))
def test_a_signature_that_is_no_class_is_a_scope_error(signature):
    c = CartanClass(*signature)
    for reader in (class_rep_data, involution_for_class, cartan_shape):
        with pytest.raises(ScopeError, match="unknown %s class" % c.family):
            reader(c)


def test_an_e_class_with_another_rank_is_a_scope_error():
    with pytest.raises(ScopeError, match="rank of E6 is fixed"):
        class_rep_data(CartanClass("E6", 7, (0, 0, 6)))


def test_split_class_position_and_shape():
    # A and D list the split class first; E families list it last.
    for family, rank in (("A", 4), ("A", 7), ("D", 4), ("D", 5)):
        classes = cartan_classes(family, rank)
        shape = cartan_shape(classes[0])
        system = build_root_system(family, rank)
        assert shape.compact == 0 and shape.complex_pairs == 0
        assert shape.real_rank == system.rank
    for family in ("E6", "E7", "E8"):
        classes = cartan_classes(family)
        shape = cartan_shape(classes[-1])
        system = build_root_system(family)
        assert (shape.compact, shape.complex_pairs, shape.split) == (0, 0, system.rank)


def test_e_signature_equals_torus_shape():
    for family in ("E6", "E7", "E8"):
        for c in cartan_classes(family):
            shape = cartan_shape(c)
            assert c.signature == (shape.compact, shape.complex_pairs, shape.split)


def test_e7_compact_cartan_has_real_rank_zero():
    (compact,) = [c for c in cartan_classes("E7") if c.render() == "(7,0,0)"]
    assert cartan_shape(compact).real_rank == 0


def test_d4_shape_table():
    shapes = {c.render(): cartan_shape(c) for c in cartan_classes("D", 4)}
    as_tuples = {k: (s.compact, s.complex_pairs, s.split) for k, s in shapes.items()}
    assert as_tuples == {
        "(0,0,+)": (0, 0, 4),
        "(1,0,+)": (0, 1, 2),
        "(0,1,+)": (1, 1, 1),
        "(2,0,+)": (1, 1, 1),
        "(2,0,-)": (1, 1, 1),
        "(1,1,+)": (2, 1, 0),
        "(0,2,+)": (4, 0, 0),
    }


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_e_involutions_are_honest(family):
    system = build_root_system(family)
    roots = set(system.roots)
    for c in cartan_classes(family):
        inv = involution_for_class(c)
        theta = inv.matrix
        assert mat_mul(theta, theta) == identity_matrix(system.dim)
        assert {mat_apply(theta, r) for r in roots} == roots
        assert signature_from_involution(system, inv) == c.signature


def test_signature_rejects_a_non_involution():
    # a 3-cycle of the coordinates permutes the A 2 roots but has order 3
    system = build_root_system("A", 2)
    cycle = Involution(family="A", dim=3, coords=(2, 3, 1))
    assert not cycle.is_involution()
    with pytest.raises(InvariantError, match="not an involution"):
        signature_from_involution(system, cycle)


def test_signature_rejects_an_involution_that_leaves_the_root_system():
    # swapping coordinates 1 and 7 is an involution, but it sends the E7
    # simple root e_1 + e_2 to e_2 + e_7, which is no root of E7
    system = build_root_system("E7")
    swap = Involution(family="E7", dim=8, coords=(7, 2, 3, 4, 5, 6, 1, 8))
    assert swap.is_involution()
    with pytest.raises(InvariantError, match="sigma does not preserve the root lattice"):
        signature_from_involution(system, swap)


@pytest.mark.parametrize("family,rank", [("A", 3), ("A", 6), ("D", 4), ("D", 5), ("D", 6)])
def test_classical_involutions_are_honest(family, rank):
    system = build_root_system(family, rank)
    roots = set(system.roots)
    for c in cartan_classes(family, rank):
        theta = involution_for_class(c).matrix
        assert mat_mul(theta, theta) == identity_matrix(system.dim)
        assert {mat_apply(theta, r) for r in roots} == roots


# ---------------------------------------------------------------------------
# Hasse diagram
# ---------------------------------------------------------------------------

def test_d4_hasse_edges():
    h = hasse_diagram("D", 4)
    assert h.edges == ((0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6))


@pytest.mark.parametrize("family,rank", IN_SCOPE)
def test_hasse_edges_drop_real_rank_by_one(family, rank):
    h = hasse_diagram(family, rank)
    ranks = [cartan_shape(c).real_rank for c in h.classes]
    assert all(ranks[i] == ranks[j] + 1 for i, j in h.edges)
    # every class except the maximally split one is reachable, and every class
    # except the most compact one moves downward
    indices = set(range(len(h.classes)))
    split_index = ranks.index(max(ranks))
    compact_indices = {i for i, r in enumerate(ranks) if r == min(ranks)}
    assert {j for _, j in h.edges} == indices - {split_index}
    assert indices - {i for i, _ in h.edges} <= compact_indices


@pytest.mark.parametrize("family", ["E6", "E7", "E8"])
def test_e_hasse_edges_match_fixed_table(family):
    h = hasse_diagram(family)
    edges = [(h.classes[i].signature, h.classes[j].signature) for i, j in h.edges]
    assert sorted(edges) == sorted(reference.E_HASSE[family])


# ---------------------------------------------------------------------------
# centers of the nonlinear cover
# ---------------------------------------------------------------------------

# From the classification: the quotient is 2 for SL(n), n even, and 1 for n
# odd; 4 for Spin(n,n), n even, and 2 for n odd; 1, 2, 1 for E6, E7, E8.  A
# quotient of order 2^k goes with the center (Z/2)^(k+1).
@pytest.mark.parametrize(
    "family,rank,center_render,quotient",
    [
        ("A", 1, "Z/2 x Z/2", 2),       # SL(2)
        ("A", 3, "Z/2 x Z/2", 2),       # SL(4)
        ("A", 5, "Z/2 x Z/2", 2),       # SL(6)
        ("A", 7, "Z/2 x Z/2", 2),       # SL(8)
        ("A", 9, "Z/2 x Z/2", 2),       # SL(10)
        ("A", 2, "Z/2", 1),             # SL(3)
        ("A", 4, "Z/2", 1),             # SL(5)
        ("A", 6, "Z/2", 1),             # SL(7)
        ("A", 8, "Z/2", 1),             # SL(9)
        ("D", 4, "Z/2 x Z/2 x Z/2", 4),
        ("D", 6, "Z/2 x Z/2 x Z/2", 4),
        ("D", 8, "Z/2 x Z/2 x Z/2", 4),
        ("D", 3, "Z/2 x Z/2", 2),
        ("D", 5, "Z/2 x Z/2", 2),
        ("D", 7, "Z/2 x Z/2", 2),
        ("E6", None, "Z/2", 1),
        ("E7", None, "Z/2 x Z/2", 2),
        ("E8", None, "Z/2", 1),
    ],
)
def test_cover_center_structure(family, rank, center_render, quotient):
    data = cover_center_data(family, rank)
    assert data.center.render() == center_render
    assert data.quotient_order == quotient
    assert len(data.quotient_reps) == quotient
    assert genuine_central_character_count(family, rank) == quotient


def test_e7_quotient_representative():
    data = cover_center_data("E7")
    assert data.quotient_reps[0] == V(0, 0, 0, 0, 0, 0, 0, 0)
    rep = data.quotient_reps[1]
    assert rep == V(1, 1, -1, 1, -1, 1, 0, 0)
    e7 = build_root_system("E7")
    # the representative pairs evenly with every root, as a coweight of 2P must
    assert all(pairing(rep, a) % 2 == 0 for a in e7.roots)
    # e8 - e7 is an E7 root yet pairs oddly with the first simple root, so it
    # cannot represent any class of this quotient
    stray = V(0, 0, 0, 0, 0, 0, -1, 1)
    assert e7.is_root(stray)
    assert pairing(stray, e7.simple_roots[0]) % 2 == 1


@pytest.mark.parametrize("family,rank", IN_SCOPE)
def test_quotient_order_matches_brute_force_kernel_count(family, rank):
    assert cover_center_data(family, rank).quotient_order == reference.gf2_kernel_count(family, rank)


@pytest.mark.parametrize("compute", [verify_main_theorem, hasse_diagram], ids=lambda f: f.__name__)
def test_the_e7_center_is_computed_once(monkeypatch, compute):
    """Callers name E7 by None and by its rank 7; both share one center."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cayley_lift."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    computed = []
    original = center.cartan_matrix
    monkeypatch.setattr(center, "cartan_matrix", lambda system: computed.append(system) or original(system))
    compute("E7")
    assert computed == [build_root_system("E7")]


def test_nontrivial_quotient_reps_pair_evenly():
    for family, rank in IN_SCOPE:
        system = build_root_system(family, rank)
        data = cover_center_data(family, rank)
        for rep in data.quotient_reps:
            assert all(pairing(rep, a) % 2 == 0 for a in system.roots)


# ---------------------------------------------------------------------------
# quadruple blocks
# ---------------------------------------------------------------------------

def test_a_block_expands_to_sorted_odd_even_pairs():
    assert block_pairs((4, 1, 3, 2)) == ((1, 2), (3, 4))
    assert block_pairs((1, 6, 3, 8, 5, 2)) == ((1, 2), (3, 6), (5, 8))


# D pair sets whose every coordinate sits in a single-sign plane: the
# orientation bit is the parity of the negative planes.
ORIENTED = [
    (4, ((-1, -2), (-3, -4)), (2, 0, 0)),
    (4, ((1, 2), (-3, -4)), (2, 0, 1)),
    (6, ((-1, -2), (-3, -4), (-5, -6)), (3, 0, 1)),
]


@pytest.mark.parametrize("rank, pairs, signature", ORIENTED)
def test_the_orientation_bit_is_the_parity_of_the_negative_planes(rank, pairs, signature):
    assert classify_pairs("D", rank, pairs).signature == signature


@pytest.mark.parametrize("block", [(1, 2, 3), (1, 3), ()])
def test_every_block_expansion_rejects_an_unbalanced_block(block):
    """make_parameter, the involution and the class of a block all read it
    through block_pairs, so all three refuse it with one TransformError."""
    system = build_root_system("D", 4)
    message = re.escape("block must balance odd and even slots: %r" % (block,))
    with pytest.raises(TransformError, match=message):
        make_parameter("D", 4, blocks=(block,))
    with pytest.raises(TransformError, match=message):
        involution_from_pairs(system, blocks=(block,))
    with pytest.raises(TransformError, match=message):
        classify_pairs("D", 4, (), (block,))
