"""Closed-form change-of-basis matrices on pair-set parameter posets.

On the union of lifted-parameter towers the multiplicity matrix m and the
inverse matrix M are given in closed form by containment of pair sets:
m(gamma, delta) = [delta's pairs contained in gamma's] and
M(gamma, delta) = (-1)^(l(delta) - l(gamma)) on the same support.  Every
interval of the containment order on these posets is a boolean lattice,
which is exactly what makes the two matrices inverse to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .root_system import InvariantError, ScopeError
from .parameters import (
    PairSetParameter,
    contains,
    enumerate_block,
    length,
    rd_subsets,
    tower_parameter,
)


def parameter_sort_key(p: PairSetParameter):
    return (len(p.elements()), p.blocks, p.pairs, p.chi)


@dataclass(frozen=True)
class ParameterPoset:
    """A finite set of parameters of one group and central character,
    ordered by containment of pair-and-block sets."""

    family: str
    rank: int
    chi: int
    elements: Tuple[PairSetParameter, ...]

    def index(self, p: PairSetParameter) -> int:
        return self.elements.index(p)


def _dedup_sorted(params: Iterable[PairSetParameter]) -> Tuple[PairSetParameter, ...]:
    seen = {}
    for p in params:
        seen[(p.blocks, p.pairs)] = p
    return tuple(sorted(seen.values(), key=parameter_sort_key))


def tower_poset(family: str, rank: Optional[int] = None, chi: int = 0) -> ParameterPoset:
    """The union of all lifted-parameter towers c_{S'}(gamma(empty))."""
    params: List[PairSetParameter] = []
    lie_rank = None
    for subset in rd_subsets(family, rank):
        for size in range(len(subset.simple_indices) + 1):
            for members in combinations(subset.simple_indices, size):
                p = tower_parameter(family, rank, chi, subset, members)
                params.append(p)
                lie_rank = p.rank
    if lie_rank is None:
        raise InvariantError("no tower parameter for %s" % family)
    return ParameterPoset(family, lie_rank, chi, _dedup_sorted(params))


def block_poset(family: str, rank: int, chi: int = 0) -> ParameterPoset:
    """The full Cayley-transform block through gamma(empty) (families A, D)."""
    params = enumerate_block(family, rank, chi)
    return ParameterPoset(family, params[0].rank, chi, _dedup_sorted(params))


@lru_cache(maxsize=None)
def _tower_shapes(family: str, rank: Optional[int]):
    poset = tower_poset(family, rank, 0)
    return frozenset((p.blocks, p.pairs) for p in poset.elements)


def in_tower_scope(p: PairSetParameter) -> bool:
    """Whether p lies on a lifted-parameter tower (where the closed forms hold)."""
    family_rank = p.rank if p.family in ("A", "D") else None
    return (p.blocks, p.pairs) in _tower_shapes(p.family, family_rank)


def m_entry(gamma: PairSetParameter, delta: PairSetParameter) -> int:
    """Multiplicity of the irreducible at delta in the standard at gamma."""
    return 1 if contains(gamma, delta) else 0


def M_entry(gamma: PairSetParameter, delta: PairSetParameter) -> int:
    """Coefficient of the standard at delta in the irreducible at gamma.

    The closed form is established only for gamma on a lifted-parameter
    tower; other rows of the full change-of-basis matrix are out of scope.
    """
    if not in_tower_scope(gamma):
        raise ScopeError(
            "closed-form row is only available on lifted-parameter towers; "
            "%s is outside" % gamma.render()
        )
    if not contains(gamma, delta):
        return 0
    diff = length(delta) - length(gamma)
    if diff.denominator != 1:
        raise ScopeError(
            "length difference %s is not an integer; closed form does not apply" % diff
        )
    return -1 if int(diff) % 2 else 1


def matrix_m(poset: ParameterPoset) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(m_entry(g, d) for d in poset.elements) for g in poset.elements
    )


def matrix_M(poset: ParameterPoset) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(M_entry(g, d) for d in poset.elements) for g in poset.elements
    )


def verify_inversion(poset: ParameterPoset) -> bool:
    """Whether M . m is the identity matrix on the poset."""
    big = matrix_M(poset)
    small = matrix_m(poset)
    n = len(poset.elements)
    for i in range(n):
        for j in range(n):
            entry = sum(big[i][k] * small[k][j] for k in range(n))
            if entry != (1 if i == j else 0):
                return False
    return True


def gamma_star_row_check(poset: ParameterPoset, gamma_star: PairSetParameter) -> bool:
    """The M-row of a maximal parameter inverts m on an arbitrary block."""
    for g in poset.elements:
        expect = 1 if g == gamma_star else 0
        total = sum(
            M_entry(gamma_star, d) * m_entry(d, g) for d in poset.elements
        )
        if total != expect:
            return False
    return True


# ---------------------------------------------------------------------------
# Formal integer combinations of parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormalIntegerCombination:
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

    def coefficient(self, p: PairSetParameter) -> int:
        for q, c in self.terms:
            if q == p:
                return c
        return 0

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


def zuckerman_restricted(
    family: str, rank: Optional[int], chi: int, subset_index: int = -1
) -> FormalIntegerCombination:
    """The alternating sum over one tower: coefficient (-1)^(number of pairs).

    subset_index selects among rd_subsets(family, rank); the default takes
    the last (the full tower for groups with a single nonempty S).
    """
    subsets = rd_subsets(family, rank)
    subset = subsets[subset_index]
    pairs = []
    for size in range(len(subset.simple_indices) + 1):
        for members in combinations(subset.simple_indices, size):
            p = tower_parameter(family, rank, chi, subset, members)
            pairs.append((p, -1 if size % 2 else 1))
    return FormalIntegerCombination.from_pairs(pairs)
