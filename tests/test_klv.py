from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import pytest

import reference

from cayley_lift import klv_poset
from cayley_lift.klv_poset import (
    M_entry,
    in_tower_scope,
    m_entry,
    matrix_M,
    matrix_m,
    tower_poset,
    verify_inversion,
)
from cayley_lift.cartan import TransformError
from cayley_lift.center import genuine_central_character_count
from cayley_lift.cayley_graph import cayley_moves
from cayley_lift.lifting import FormalIntegerCombination
from cayley_lift.parameters import make_parameter, orbit_representatives
from cayley_lift.root_system import ScopeError
from reference import block_poset, gamma_star_row_check, zuckerman_restricted


def _a3(pairs=()):
    return make_parameter("A", 3, pairs=pairs)


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

def test_multiplicity_entry_is_containment_indicator():
    full = _a3(((1, 2), (3, 4)))
    single = _a3(((1, 2),))
    other = _a3(((3, 4),))
    empty = _a3()
    assert m_entry(full, empty) == 1
    assert m_entry(full, single) == 1
    assert m_entry(single, full) == 0
    assert m_entry(single, other) == 0
    assert m_entry(single, single) == 1


def test_character_entry_signs():
    full = _a3(((1, 2), (3, 4)))
    single = _a3(((1, 2),))
    empty = _a3()
    # length drops by one per pair step, so signs alternate with pair count
    assert M_entry(full, full) == 1
    assert M_entry(full, single) == -1
    assert M_entry(full, empty) == 1
    assert M_entry(single, empty) == -1
    assert M_entry(single, full) == 0


def test_character_row_is_tower_scoped():
    crossing = _a3(((1, 4), (2, 3)))
    empty = _a3()
    assert not in_tower_scope(crossing)
    with pytest.raises(ScopeError):
        M_entry(crossing, empty)
    # the antidiagonal single pair is off-tower as well
    with pytest.raises(ScopeError):
        M_entry(_a3(((1, 4),)), empty)
    # columns are unrestricted: m rows work on every block element
    assert m_entry(crossing, empty) == 1


GROUPS = ([("A", r) for r in range(1, 10)] + [("D", r) for r in range(3, 9)]
          + [("E6", None), ("E7", None), ("E8", None)])


def _crossing(family, rank):
    """The parameters make_parameter accepts among: a pair of one nonempty S
    in R_D with a pair of another, and all the pairs of one S with a pair of
    another that S lacks."""
    subsets = [s.pair_images for s in klv_poset.rd_subsets(family, rank) if s.pair_images]
    shapes = set()
    for s, t in permutations(subsets, 2):
        shapes |= {frozenset((a, b)) for a in s for b in t if a != b}
        shapes |= {frozenset(s + (b,)) for b in t if b not in s}
    out = []
    for pairs in sorted(shapes, key=sorted):
        try:
            out.append(make_parameter(family, rank, pairs=pairs))
        except TransformError:
            continue
    return out


@lru_cache(maxsize=None)
def _scope_cases():
    """On each of the 18 groups: every tower parameter of every central
    character, every Cayley move from one (families A and D), every class
    representative and every parameter that crosses two subsets."""
    cases = []
    for family, rank in GROUPS:
        tower = [p for chi in range(genuine_central_character_count(family, rank))
                 for p in tower_poset(family, rank, chi).elements]
        moves = [q for p in tower for q in cayley_moves(p)] if family in ("A", "D") else []
        reps = [p for _, p in orbit_representatives(family, rank)]
        cases += tower + moves + reps + _crossing(family, rank)
    return tuple(cases)


def _scope_mismatches():
    return [p.render() for p in _scope_cases()
            if in_tower_scope(p) != reference.in_tower_scope(p)]


def test_tower_scope_is_membership_of_the_tower_poset():
    """Reading the scope off the R_D pairs agrees with membership of the
    chi = 0 tower poset on both sides of the scope, blocks included."""
    cases = _scope_cases()
    assert _scope_mismatches() == []
    verdicts = [reference.in_tower_scope(p) for p in cases]
    assert len(cases) == 2975 and verdicts.count(True) == 1038
    assert sum(1 for p in cases if p.blocks) == 9
    assert [p.render() for p in _crossing("D", 6) if not in_tower_scope(p)] == [
        "gamma({1,2},{3,4},{5,6},{-5,-6})", "gamma({1,2},{5,6},{-5,-6})",
        "gamma({3,4},{5,6},{-5,-6})"]


def test_the_scope_comparison_catches_a_dropped_pair(monkeypatch):
    """Without the last pair of long_minus (even D), its full-level
    parameter falls out of scope and the comparison fails."""
    assert _scope_mismatches() == []  # the oracle's posets are built first
    original = klv_poset.rd_subsets

    def short_long_minus(family, rank=None):
        subsets = original(family, rank)
        if family != "D" or len(subsets) < 4:
            return subsets
        last = subsets[3]
        return subsets[:3] + (klv_poset.RDSubset(last.simple_indices[:-1], last.pair_images[:-1]),)

    monkeypatch.setattr(klv_poset, "rd_subsets", short_long_minus)
    assert _scope_mismatches() != []
    monkeypatch.undo()
    assert _scope_mismatches() == []


def test_character_entry_rejects_a_half_integral_length_difference(monkeypatch):
    """No tower pair has an odd doubled length difference, so the branch is
    reached through a stand-in length: the number of pairs, whose difference
    here is -1, that is -1/2 undoubled."""
    monkeypatch.setattr(klv_poset, "length", lambda p: len(p.pairs))
    with pytest.raises(ScopeError) as info:
        M_entry(_a3(((1, 2),)), _a3())
    assert str(info.value) == (
        "length difference -1/2 is not an integer; closed form does not apply")


def test_sl2_edge_case():
    empty = make_parameter("A", 1)
    full = make_parameter("A", 1, pairs=((1, 2),))
    assert m_entry(full, empty) == 1
    assert M_entry(full, empty) == -1
    poset = tower_poset("A", 1)
    assert [p.render() for p in poset.elements] == ["gamma()", "gamma({1,2})"]
    assert verify_inversion(poset)


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------

def test_a3_poset_layouts():
    tower = tower_poset("A", 3)
    block = block_poset("A", 3)
    assert [p.render() for p in tower.elements] == [
        "gamma()",
        "gamma({1,2})",
        "gamma({3,4})",
        "gamma({1,2},{3,4})",
    ]
    assert [p.render() for p in block.elements] == [
        "gamma()",
        "gamma({1,2})",
        "gamma({1,4})",
        "gamma({2,3})",
        "gamma({3,4})",
        "gamma({1,2},{3,4})",
        "gamma({1,4},{2,3})",
    ]


def test_tower_poset_sizes():
    assert len(tower_poset("A", 5).elements) == 8
    assert len(tower_poset("A", 7).elements) == 16
    assert len(tower_poset("D", 4).elements) == 7
    assert len(tower_poset("D", 5).elements) == 4
    assert len(tower_poset("E7").elements) == 8
    assert len(tower_poset("E6").elements) == 1
    assert len(tower_poset("E8").elements) == 1


@pytest.mark.parametrize(
    "family,rank",
    [("A", 3), ("A", 5), ("A", 7), ("D", 4), ("D", 5), ("E7", None)],
)
def test_inversion_on_acceptance_posets(family, rank):
    assert verify_inversion(tower_poset(family, rank))


def test_inversion_matrices_are_triangular():
    poset = tower_poset("A", 5)
    big = matrix_M(poset)
    small = matrix_m(poset)
    n = len(poset.elements)
    for i in range(n):
        assert big[i][i] == 1 and small[i][i] == 1
        for j in range(i + 1, n):
            assert big[i][j] == 0 and small[i][j] == 0


def test_full_block_row_identity_for_catalog_gamma_star():
    block = block_poset("A", 3)
    assert gamma_star_row_check(block, _a3(((1, 2), (3, 4))))
    with pytest.raises(ScopeError):
        gamma_star_row_check(block, _a3(((1, 4), (2, 3))))


# ---------------------------------------------------------------------------
# restricted Zuckerman sums
# ---------------------------------------------------------------------------

def test_zuckerman_a3_signs():
    z = zuckerman_restricted("A", 3, 0)
    assert z.render() == "gamma() - gamma({1,2}) - gamma({3,4}) + gamma({1,2},{3,4})"


def test_zuckerman_e7_signs():
    z = zuckerman_restricted("E7", None, 0)
    assert z.render() == (
        "gamma() - gamma({-1,-2}) - gamma({3,4}) - gamma({5,6})"
        " + gamma({-1,-2},{3,4}) + gamma({-1,-2},{5,6}) + gamma({3,4},{5,6})"
        " - gamma({-1,-2},{3,4},{5,6})"
    )
    # coefficient is (-1)^{number of members} throughout
    for p in z.support():
        assert dict(z.terms).get(p, 0) == (-1) ** len(p.pairs)


# ---------------------------------------------------------------------------
# formal combinations
# ---------------------------------------------------------------------------

def test_formal_combination_merges_and_drops_zeros():
    a, b = _a3(), _a3(((1, 2),))
    combo = FormalIntegerCombination.from_pairs([(a, 2), (b, -1), (a, -2), (b, -1)])
    assert dict(combo.terms).get(a, 0) == 0
    assert dict(combo.terms).get(b, 0) == -2
    assert [p.render() for p in combo.support()] == ["gamma({1,2})"]
    assert combo.render() == "- 2*gamma({1,2})"


def test_formal_combination_render_orders_and_prefixes():
    a, b = _a3(), _a3(((1, 2),))
    combo = FormalIntegerCombination.from_pairs([(b, 1), (a, 3)])
    assert combo.render() == "3*gamma() + gamma({1,2})"
