"""Lifting the trivial representation to the nonlinear double cover.

The lift of the trivial character is a signed combination of parameters:
the pseudospherical gamma(empty) plus, for each distinguished subset S of
integral simple roots, the full Cayley transform c_S(gamma(empty)) with
an integer coefficient K_S.  K_S is an alternating sum over sub-subsets
of a two-or-one valued constant attached to each Cartan subgroup: 2 when
the associated torus has a compact factor, 1 otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .root_system import Record, ScopeError
from .cartan import cartan_shape, genuine_central_character_count
from .parameters import PairSetParameter, class_of
from .klv_poset import (
    FormalIntegerCombination,
    RDSubset,
    in_tower_scope,
    pi_RD,
    rd_subsets,
    tower_terms,
)


def cartan_constant(p: PairSetParameter) -> int:
    """The constant C(H) of the Cartan subgroup through a tower parameter:
    2 when its torus has a compact factor, 1 otherwise."""
    if not in_tower_scope(p):
        raise ScopeError(
            "C(H) is only established on lifted-parameter towers; %s is outside"
            % p.render()
        )
    shape = cartan_shape(class_of(p))
    return 2 if shape.compact >= 1 else 1


def _tower_sum(family: str, rank: Optional[int], subset: RDSubset,
               chi: int) -> Tuple[PairSetParameter, int]:
    """c_S(gamma(empty)), the last term of S's tower, and K_S."""
    k = 0
    for sign, p in tower_terms(family, rank, chi, subset):
        k += sign * cartan_constant(p)
    return p, k


def K_coefficient(family: str, rank: Optional[int], subset: RDSubset, chi: int = 0) -> int:
    """K_S: the alternating sum of C(H) over sub-subsets of S."""
    return _tower_sum(family, rank, subset, chi)[1]


def lift_trivial(family: str, rank: Optional[int] = None, chi: int = 0) -> FormalIntegerCombination:
    """The lift of the trivial representation at one central character:
    K_S c_S(gamma(empty)) summed over S in R_D, with c_S(gamma(empty)) the
    last term of the tower that K_S sums over."""
    return FormalIntegerCombination.from_pairs(
        _tower_sum(family, rank, subset, chi) for subset in rd_subsets(family, rank))


class CharacterCheck(Record):
    chi: int
    lift: FormalIntegerCombination
    expected_support: Tuple[PairSetParameter, ...]
    support_matches: bool
    coefficients_unit: bool   # every coefficient is +1 or -1


class TheoremReport(Record):
    family: str
    rank: Optional[int]
    checks: Tuple[CharacterCheck, ...]
    support_total: int
    small_count: int
    passed: bool


def verify_main_theorem(family: str, rank: Optional[int] = None) -> TheoremReport:
    """Whole-family check: each character's lift, whose support lift_trivial
    reads off the tops of the towers, is supported exactly on the full-level
    parameters that pi_RD lists, with coefficients +-1, and the total support
    size equals the independently computed number of small representations."""
    from .coherent import count_small

    checks = []
    count = genuine_central_character_count(family, rank)
    for chi in range(count):
        combo = lift_trivial(family, rank, chi)
        expected = pi_RD(family, rank, chi)
        support_matches = (set(combo.support()) == set(expected)
                           and len(combo.support()) == len(expected))
        unit = all(abs(c) == 1 for _, c in combo.terms)
        checks.append(
            CharacterCheck(
                chi=chi,
                lift=combo,
                expected_support=expected,
                support_matches=support_matches,
                coefficients_unit=unit,
            )
        )
    support_total = sum(len(c.lift.support()) for c in checks)
    small = count_small(family, rank)
    passed = (
        all(c.support_matches and c.coefficients_unit for c in checks)
        and support_total == small
    )
    return TheoremReport(
        family=family,
        rank=rank,
        checks=tuple(checks),
        support_total=support_total,
        small_count=small,
        passed=passed,
    )
