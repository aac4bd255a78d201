"""Lifting the trivial representation to the nonlinear double cover.

The lift of the trivial character is a signed combination of parameters:
the pseudospherical gamma(empty) plus, for each distinguished subset S of
integral simple roots, the full Cayley transform c_S(gamma(empty)) with
an integer coefficient K_S.  K_S is an alternating sum over sub-subsets
of a two-or-one valued constant attached to each Cartan subgroup: 2 when
the associated torus has a compact factor, 1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

from .root_system import ScopeError
from .cartan import cartan_shape, genuine_central_character_count
from .parameters import (
    PairSetParameter,
    RDSubset,
    class_of,
    pi_RD,
    rd_subsets,
    tower_parameter,
)
from .klv_poset import FormalIntegerCombination, in_tower_scope


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


def K_coefficient(family: str, rank: Optional[int], subset: RDSubset, chi: int = 0) -> int:
    """K_S: the alternating sum of C(H) over sub-subsets of S."""
    total = 0
    for size in range(len(subset.simple_indices) + 1):
        for members in combinations(subset.simple_indices, size):
            p = tower_parameter(family, rank, chi, subset, members)
            total += (-1 if size % 2 else 1) * cartan_constant(p)
    return total


def lift_trivial(family: str, rank: Optional[int] = None, chi: int = 0) -> FormalIntegerCombination:
    """The lift of the trivial representation at one central character."""
    terms = []
    for subset in rd_subsets(family, rank):
        p = tower_parameter(family, rank, chi, subset, subset.simple_indices)
        terms.append((p, K_coefficient(family, rank, subset, chi)))
    return FormalIntegerCombination.from_pairs(terms)


@dataclass(frozen=True)
class CharacterCheck:
    chi: int
    lift: FormalIntegerCombination
    expected_support: Tuple[PairSetParameter, ...]
    support_matches: bool
    coefficients_unit: bool   # every coefficient is +1 or -1


@dataclass(frozen=True)
class TheoremReport:
    family: str
    rank: Optional[int]
    checks: Tuple[CharacterCheck, ...]
    support_total: int
    small_count: int
    passed: bool


def verify_main_theorem(family: str, rank: Optional[int] = None) -> TheoremReport:
    """Whole-family check: each character's lift is supported exactly on the
    full-level parameters, with nonzero coefficients, and the total support
    size equals the independently computed number of small representations."""
    from .coherent import count_small

    checks = []
    count = genuine_central_character_count(family, rank)
    for chi in range(count):
        combo = lift_trivial(family, rank, chi)
        expected = pi_RD(family, rank, chi)
        got = {(p.blocks, p.pairs) for p in combo.support()}
        want = {(p.blocks, p.pairs) for p in expected}
        support_matches = got == want and len(combo.support()) == len(expected)
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
