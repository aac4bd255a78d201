"""The main theorem, checked over a whole family: at each genuine central
character the lift of the trivial representation is supported exactly on
the full-level parameters pi_RD lists, with coefficients +-1, and the
supports add up to the number of small representations that the sign test
counts.  Only the verify verb runs this module.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .root_system import Record
from .center import genuine_central_character_count
from .parameters import PairSetParameter
from .coherent import count_small
from .klv_poset import pi_RD
from .lifting import FormalIntegerCombination, lift_trivial


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
