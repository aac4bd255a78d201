"""The lifted-parameter towers and their closed-form change-of-basis matrices.

The distinguished subsets R_D of the integral simple roots name the towers:
for S in R_D the tower is every c_{S'}(gamma(empty)) with S' inside S.  On
the union of these towers the multiplicity matrix m and the inverse matrix
M are given in closed form by containment of pair sets:
m(gamma, delta) = [delta's pairs contained in gamma's] and
M(gamma, delta) = (-1)^(l(delta) - l(gamma)) on the same support.  Every
interval of the containment order on these posets is a boolean lattice,
which is exactly what makes the two matrices inverse to each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple

from .root_system import Record, ScopeError, build_root_system
from .parameters import Pair, PairSetParameter, length, tower_parameter


# ---------------------------------------------------------------------------
# The distinguished subsets R_D of the integral simple roots, and their towers
# ---------------------------------------------------------------------------

class RDSubset(Record):
    """A subset S in R_D with the pair added by each of its simple roots."""

    simple_indices: Tuple[int, ...]   # 1-based indices among the alphas
    pair_images: Tuple[Pair, ...]     # parallel to simple_indices

    def image_pairs(self, members: Sequence[int]) -> Tuple[Pair, ...]:
        lookup = dict(zip(self.simple_indices, self.pair_images))
        return tuple(lookup[i] for i in members)


@lru_cache(maxsize=None)
def rd_subsets(family: str, rank: Optional[int] = None) -> Tuple[RDSubset, ...]:
    """The sets S (including the empty set) defining the lifted parameters."""
    empty = RDSubset((), ())
    if family in ("E6", "E8"):
        return (empty,)
    if family == "E7":
        return (empty, RDSubset((1, 3, 7), ((-1, -2), (3, 4), (5, 6))))
    n = build_root_system(family, rank).dim  # raises for any other family
    p = n // 2
    long_plus = RDSubset(
        tuple(2 * k + 1 for k in range(p)),
        tuple((2 * k + 1, 2 * k + 2) for k in range(p)),
    )
    if family == "A":
        return (empty,) if n % 2 else (empty, long_plus)
    short = RDSubset(
        (n - 1, n),
        ((2 * p - 1, 2 * p), (-(2 * p - 1), -2 * p)),
    )
    if n % 2:
        return (empty, short)
    long_minus = RDSubset(
        tuple(2 * k + 1 for k in range(p - 1)) + (2 * p,),
        tuple((2 * k + 1, 2 * k + 2) for k in range(p - 1)) + ((-(2 * p - 1), -2 * p),),
    )
    return (empty, short, long_plus, long_minus)


def _sub_subsets(subset: RDSubset) -> Iterator[Tuple[int, ...]]:
    """Each S' inside subset, by size."""
    for size in range(len(subset.simple_indices) + 1):
        yield from combinations(subset.simple_indices, size)


def tower_terms(family: str, rank: Optional[int], chi: int,
                subset: RDSubset) -> Iterator[Tuple[int, PairSetParameter]]:
    """((-1)^|S'|, c_{S'}(gamma(empty))) for each S' inside subset, by size;
    the last term is c_S(gamma(empty))."""
    for members in _sub_subsets(subset):
        yield -1 if len(members) % 2 else 1, tower_parameter(family, rank, chi, subset, members)


def pi_RD(family: str, rank: Optional[int] = None, chi: int = 0) -> Tuple[PairSetParameter, ...]:
    """The full-level parameters J(c_S(gamma(empty))) for S in R_D, fixed chi."""
    return tuple(tower_parameter(family, rank, chi, subset, subset.simple_indices)
                 for subset in rd_subsets(family, rank))


def contains(p1: PairSetParameter, p2: PairSetParameter) -> bool:
    """Whether p1's pair-and-block set contains p2's (same group and chi)."""
    if (p1.family, p1.rank, p1.chi) != (p2.family, p2.rank, p2.chi):
        return False
    return p2.elements() <= p1.elements()


# ---------------------------------------------------------------------------
# Posets of tower parameters
# ---------------------------------------------------------------------------

def parameter_sort_key(p: PairSetParameter):
    return (len(p.elements()), p.blocks, p.pairs, p.chi)


class ParameterPoset(Record):
    """A finite set of parameters of one group and central character,
    ordered by containment of pair-and-block sets."""

    family: str
    rank: int
    chi: int
    elements: Tuple[PairSetParameter, ...]


def tower_poset(family: str, rank: Optional[int] = None, chi: int = 0) -> ParameterPoset:
    """The union of all lifted-parameter towers c_{S'}(gamma(empty)).  Towers
    share terms (gamma(empty) is in every one), so each parameter is built
    once, from one (S, S') with its pair set."""
    terms = {frozenset(subset.image_pairs(members)): (subset, members)
             for subset in rd_subsets(family, rank) for members in _sub_subsets(subset)}
    params = sorted((tower_parameter(family, rank, chi, *term) for term in terms.values()),
                    key=parameter_sort_key)
    return ParameterPoset(family, params[0].rank, chi, tuple(params))


def in_tower_scope(p: PairSetParameter) -> bool:
    """Whether p lies on a lifted-parameter tower (where the closed forms
    hold): p has no block and every pair of p is a pair of one S in R_D."""
    pairs = set(p.pairs)
    return not p.blocks and any(pairs.issubset(s.pair_images)
                                for s in rd_subsets(p.family, p.rank))


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
    diff = length(delta) - length(gamma)  # doubled
    if diff % 2:
        raise ScopeError(
            "length difference %d/2 is not an integer; closed form does not apply" % diff
        )
    return -1 if diff // 2 % 2 else 1


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
