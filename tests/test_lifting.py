from __future__ import annotations

import pytest

from cayley_lift.classes import cartan_shape
from cayley_lift.center import genuine_central_character_count
from cayley_lift.klv_poset import pi_RD, rd_subsets, tower_terms
from cayley_lift.lifting import (
    K_coefficient,
    cartan_constant,
    lift_trivial,
)
from cayley_lift.parameters import class_of, make_parameter
from cayley_lift.root_system import ScopeError
from cayley_lift.theorem import verify_main_theorem


# ---------------------------------------------------------------------------
# Cartan constants
# ---------------------------------------------------------------------------

def test_cartan_constant_doubles_only_with_compact_directions():
    assert cartan_constant(make_parameter("A", 3)) == 1
    assert cartan_constant(make_parameter("A", 3, pairs=((1, 2),))) == 1
    assert cartan_constant(make_parameter("A", 3, pairs=((1, 2), (3, 4)))) == 2
    assert cartan_constant(make_parameter("D", 4)) == 1
    assert cartan_constant(make_parameter("D", 4, pairs=((3, 4), (-3, -4)))) == 2
    assert cartan_constant(make_parameter("E7", 7)) == 1


IN_SCOPE = (
    [("A", r) for r in range(1, 10)]
    + [("D", r) for r in range(3, 9)]
    + [("E6", None), ("E7", None), ("E8", None)]
)


@pytest.mark.parametrize("family, rank", IN_SCOPE)
def test_cartan_constant_matches_the_class_representative(family, rank):
    """C(H) read off p's own involution is the value read off the torus
    shape of p's Cartan class, through the class representative, on every
    tower parameter at every central character."""
    tower = {p for chi in range(genuine_central_character_count(family, rank))
             for subset in rd_subsets(family, rank)
             for _, p in tower_terms(family, rank, chi, subset)}
    assert tower
    assert {p: cartan_constant(p) for p in tower} == {
        p: 2 if cartan_shape(class_of(p)).compact else 1 for p in tower}


def test_cartan_constant_is_tower_scoped():
    with pytest.raises(ScopeError):
        cartan_constant(make_parameter("A", 3, pairs=((1, 4),)))


# ---------------------------------------------------------------------------
# alternating-sum coefficients
# ---------------------------------------------------------------------------

def _full_subsets(family, rank=None):
    return rd_subsets(family, rank)[1:]


def test_k_coefficient_table():
    expected_a = {1: -1, 3: 1, 5: -1, 7: 1, 9: -1}
    for rank, value in expected_a.items():
        (subset,) = _full_subsets("A", rank)
        assert K_coefficient("A", rank, subset) == value
    # D short-support subsets always give +1
    for rank in (4, 5, 6, 7, 8):
        short = _full_subsets("D", rank)[0]
        assert short.pair_images[-1] == (-(2 * (rank // 2) - 1), -2 * (rank // 2))
        assert K_coefficient("D", rank, short) == 1
    # D long-support subsets alternate with half the rank
    for rank, value in ((4, 1), (6, -1), (8, 1)):
        for subset in _full_subsets("D", rank)[1:]:
            assert K_coefficient("D", rank, subset) == value
    (e7,) = _full_subsets("E7")
    assert K_coefficient("E7", None, e7) == -1


# ---------------------------------------------------------------------------
# lifts of the trivial representation
# ---------------------------------------------------------------------------

def test_lift_renders():
    assert lift_trivial("A", 1).render() == "gamma() - gamma({1,2})"
    assert lift_trivial("A", 3).render() == "gamma() + gamma({1,2},{3,4})"
    assert lift_trivial("D", 4).render() == (
        "gamma() + gamma({1,2},{-3,-4}) + gamma({1,2},{3,4}) + gamma({3,4},{-3,-4})"
    )
    assert lift_trivial("E6").render() == "gamma()"
    assert lift_trivial("E7").render() == "gamma() - gamma({-1,-2},{3,4},{5,6})"
    assert lift_trivial("E8").render() == "gamma()"


def test_lift_support_is_display_support():
    for family, rank in (("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E7", None)):
        lift = lift_trivial(family, rank)
        assert {p.render() for p in lift.support()} == {
            p.render() for p in pi_RD(family, rank, 0)
        }


def test_lift_coefficients_are_signs():
    for family, rank in (("A", 5), ("A", 7), ("D", 6), ("D", 8), ("E7", None)):
        lift = lift_trivial(family, rank)
        assert all(abs(dict(lift.terms).get(p, 0)) == 1 for p in lift.support())


# ---------------------------------------------------------------------------
# main verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,rank,total",
    [("A", 1, 4), ("A", 2, 1), ("A", 3, 4), ("D", 3, 4), ("D", 4, 16), ("E6", None, 1)],
)
def test_verify_main_theorem_light(family, rank, total):
    report = verify_main_theorem(family, rank)
    assert report.passed
    assert report.support_total == report.small_count == total
    for check in report.checks:
        assert check.support_matches and check.coefficients_unit


def test_verify_checks_cover_every_genuine_character():
    from cayley_lift.center import genuine_central_character_count

    report = verify_main_theorem("D", 4)
    assert [c.chi for c in report.checks] == list(
        range(genuine_central_character_count("D", 4))
    )


def test_verify_catches_a_wrong_full_level_parameter(monkeypatch):
    """The lift reads its support off the tops of the towers and verify
    compares it with pi_RD, so a fault in pi_RD (gamma({1,2}) in place of
    D 4's last full-level parameter, wherever pi_RD is bound) fails every
    character's support check and the whole report."""
    from cayley_lift import klv_poset, theorem

    original = klv_poset.pi_RD

    def wrong(family, rank=None, chi=0):
        return original(family, rank, chi)[:-1] + (
            make_parameter(family, rank, chi, pairs=((1, 2),)),)

    assert verify_main_theorem("D", 4).passed
    for module in (klv_poset, theorem):
        monkeypatch.setattr(module, "pi_RD", wrong)
    report = verify_main_theorem("D", 4)
    assert [c.support_matches for c in report.checks] == [False] * 4
    assert not report.passed
    assert report.checks[0].lift == lift_trivial("D", 4)
    assert report.checks[0].expected_support[-1].render() == "gamma({1,2})"
