"""Lifting the trivial representation to the nonlinear double cover.

The lift of the trivial character is a signed combination of parameters:
the pseudospherical gamma(empty) plus, for each distinguished subset S of
integral simple roots, the full Cayley transform c_S(gamma(empty)) with
an integer coefficient K_S.  K_S is an alternating sum over sub-subsets
of a two-or-one valued constant attached to each Cartan subgroup: 2 when
the associated torus has a compact factor, 1 otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .root_system import Record, ScopeError, build_root_system
from .cartan import signature_from_involution
from .parameters import PairSetParameter, theta
from .klv_poset import RDSubset, in_tower_scope, parameter_sort_key, rd_subsets, tower_terms


class FormalIntegerCombination(Record):
    """An integer linear combination of parameters, kept in sorted order."""

    terms: Tuple[Tuple[PairSetParameter, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[PairSetParameter, int]]) -> "FormalIntegerCombination":
        acc: Dict[PairSetParameter, int] = {}
        for p, c in pairs:
            acc[p] = acc.get(p, 0) + c
        kept = [(p, c) for p, c in acc.items() if c != 0]
        kept.sort(key=lambda t: parameter_sort_key(t[0]))
        return FormalIntegerCombination(tuple(kept))

    def support(self) -> Tuple[PairSetParameter, ...]:
        return tuple(p for p, _ in self.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for p, c in self.terms:
            sign = "+" if c >= 0 else "-"
            mag = abs(c)
            coeff = "" if mag == 1 else "%d*" % mag
            chunks.append("%s %s%s" % (sign, coeff, p.render()))
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else text


def cartan_constant(p: PairSetParameter) -> int:
    """The constant C(H) of the Cartan subgroup through a tower parameter:
    2 when its torus has a compact factor, 1 otherwise, read off the
    signature of p's own involution."""
    if not in_tower_scope(p):
        raise ScopeError(
            "C(H) is only established on lifted-parameter towers; %s is outside"
            % p.render()
        )
    compact = signature_from_involution(build_root_system(p.family, p.rank), theta(p))[0]
    return 2 if compact else 1


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
