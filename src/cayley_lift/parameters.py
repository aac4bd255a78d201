"""Pseudospherical parameters and their Cayley-transform calculus.

A parameter is written gamma(S) for a collection S of pairs and quadruple
blocks of coordinate slots.  An unsigned pair {i,j} records a Cayley
transform through e_i - e_j, a signed pair {-i,-j} one through e_i + e_j;
a quadruple block {i1..i_{2r}} abbreviates both transforms for each of its
matched (odd slot, even slot) pairs.  All transform roots pair to Z + 1/2
against rho/2, which is what makes the moves available in the genuine
block.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .root_system import (
    SCHEMA,
    Record,
    RootSystem,
    ScopeError,
    SignedPerm,
    build_root_system,
    is_half_integral,
    pair_root,
)
from .cartan import (
    CartanClass,
    Involution,
    TransformError,
    block_pairs,
    cartan_classes,
    class_rep_data,
    classify_pairs,
    genuine_central_character_count,
    involution_from_pairs,
    signature_from_involution,
)

Pair = Tuple[int, int]
Block = Tuple[int, ...]


class PairSetParameter(Record):
    """A pseudospherical-origin parameter gamma(S) with a central character."""

    family: str
    rank: int
    chi: int
    blocks: Tuple[Block, ...]
    pairs: Tuple[Pair, ...]

    def elements(self) -> FrozenSet[Tuple[int, ...]]:
        return frozenset(self.blocks) | frozenset(self.pairs)

    def render(self) -> str:
        parts = ["{%s}" % ",".join(str(x) for x in b) for b in self.blocks]
        parts += ["{%d,%d}" % p for p in self.pairs]
        return "gamma(%s)" % ",".join(parts)


def _normalize_pair(pair: Sequence[int]) -> Pair:
    if len(pair) != 2:
        raise TransformError("a pair has exactly two slots: %r" % (pair,))
    a, b = pair
    if a == 0 or b == 0 or abs(a) == abs(b):
        raise TransformError("pair slots must be distinct nonzero: %r" % (pair,))
    negative = a < 0 or b < 0
    i, j = sorted((abs(a), abs(b)))
    return (-i, -j) if negative else (i, j)


def _pair_sort_key(p: Pair) -> Tuple[int, int, int]:
    return (abs(p[0]), abs(p[1]), 0 if p[0] > 0 else 1)


def _check_transform_root(system: RootSystem, p: Pair) -> None:
    if not all(1 <= abs(x) <= system.dim for x in p):
        raise TransformError("pair %r has a slot outside 1..%d" % (p, system.dim))
    root = pair_root(system.dim, p)
    if root not in system.index:
        raise TransformError("no root for pair %r in %s" % (p, system.family))
    if not is_half_integral(system, root):
        raise TransformError("pair %r is not a half-integral transform" % (p,))


def make_parameter(
    family: str,
    rank: Optional[int],
    chi: int = 0,
    blocks: Sequence[Sequence[int]] = (),
    pairs: Sequence[Sequence[int]] = (),
) -> PairSetParameter:
    system = build_root_system(family, rank)
    if not 0 <= chi < genuine_central_character_count(family, rank):
        raise ScopeError("central character index %d out of range" % chi)
    norm_pairs = sorted((_normalize_pair(p) for p in pairs), key=_pair_sort_key)
    norm_blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
    used: Set[int] = set()
    for b in norm_blocks:
        for x in b:
            if not 1 <= x <= system.dim:
                raise TransformError("block %r has a slot outside 1..%d" % (b, system.dim))
            if x in used:
                raise TransformError("slot %d reused" % x)
            used.add(x)
        for bp in block_pairs(b):
            _check_transform_root(system, bp)
            _check_transform_root(system, (-bp[0], -bp[1]))
    seen_pairs: Set[Pair] = set()
    for p in norm_pairs:
        if p in seen_pairs:
            raise TransformError("duplicate pair %r" % (p,))
        seen_pairs.add(p)
        _check_transform_root(system, p)
        for x in (abs(p[0]), abs(p[1])):
            if x in used:
                raise TransformError("slot %d reused" % x)
    by_slot: Dict[int, List[Pair]] = {}  # slot -> the pairs using it, in order
    for p in norm_pairs:
        by_slot.setdefault(abs(p[0]), []).append(p)
        by_slot.setdefault(abs(p[1]), []).append(p)
    for p in norm_pairs:
        plane = (abs(p[0]), abs(p[1]))
        clash = [q for x in plane for q in by_slot[x] if (abs(q[0]), abs(q[1])) != plane]
        if clash:
            other = min(clash, key=_pair_sort_key)
            raise TransformError("slot shared between pairs %r and %r" % (p, other))
    return PairSetParameter(
        family=family,
        rank=system.rank,
        chi=chi,
        blocks=norm_blocks,
        pairs=tuple(norm_pairs),
    )


def cayley(p: PairSetParameter, pair: Sequence[int]) -> PairSetParameter:
    """Apply one Cayley transform: p with the (normalized) pair added.

    make_parameter decides whether the move is legal: the transform root
    must be a half-integral root through slots that no block and no pair of
    another plane uses, so that it is real for p's involution.  The pair
    takes fresh slots, or outside family A completes a single-sign pair to
    both signs.
    """
    return make_parameter(
        p.family, p.rank, chi=p.chi, blocks=p.blocks, pairs=p.pairs + (tuple(pair),)
    )


def cayley_moves(p: PairSetParameter) -> Tuple[PairSetParameter, ...]:
    """Every parameter one Cayley transform from p.

    The candidates are the pairs (i, j) through two slots that p leaves
    free, and outside family A also (-i, -j) and the other sign of each
    pair of p; cayley keeps the legal ones.  Free pairs with i + j even are
    not tried: in these coordinates a pair root is half-integral at rho/2
    exactly when i + j is odd.
    """
    signed = p.family != "A"
    used = {abs(x) for q in p.pairs for x in q} | {x for b in p.blocks for x in b}
    free = [i for i in range(1, build_root_system(p.family, p.rank).dim + 1) if i not in used]
    candidates: List[Pair] = []
    for k, i in enumerate(free):
        for j in free[k + 1:]:
            if (i + j) % 2:
                candidates += [(i, j), (-i, -j)] if signed else [(i, j)]
    if signed:
        candidates += [(-a, -b) for a, b in p.pairs]
    moves: List[PairSetParameter] = []
    for pair in candidates:
        try:
            moves.append(cayley(p, pair))
        except TransformError:
            continue
    return tuple(moves)


@lru_cache(maxsize=None)
def theta(p: PairSetParameter) -> Involution:
    system = build_root_system(p.family, p.rank)
    return involution_from_pairs(system, pairs=p.pairs, blocks=p.blocks)


@lru_cache(maxsize=None)
def theta_perm(p: PairSetParameter) -> SignedPerm:
    """p's involution as a signed permutation of the positive roots."""
    th = theta(p)
    system = build_root_system(p.family, p.rank)
    return tuple([system.index[th.apply(d)] for d in system.doubled_positive])


def class_of(p: PairSetParameter) -> CartanClass:
    return classify_pairs(p.family, p.rank, p.pairs, p.blocks)


@lru_cache(maxsize=None)
def length(p: PairSetParameter) -> int:
    """The length of p, doubled (the package's Doubled convention): the
    number of positive roots moved out of the positive system by theta,
    plus the real rank of the associated Cartan subgroup."""
    flips = sum(1 for k in theta_perm(p) if k < 0)
    r, m, s = signature_from_involution(build_root_system(p.family, p.rank), theta(p))
    return flips + m + s


def contains(p1: PairSetParameter, p2: PairSetParameter) -> bool:
    """Whether p1's pair-and-block set contains p2's (same group and chi)."""
    if (p1.family, p1.rank, p1.chi) != (p2.family, p2.rank, p2.chi):
        return False
    return p2.elements() <= p1.elements()


def enumerate_block(family: str, rank: int, chi: int = 0) -> Tuple[PairSetParameter, ...]:
    """All parameters reachable from gamma(empty) by Cayley transforms (A/D)."""
    if family not in ("A", "D"):
        raise ScopeError("block enumeration is desk-scale only (families A and D)")
    start = make_parameter(family, rank, chi=chi)
    seen: Dict[Tuple[Pair, ...], PairSetParameter] = {start.pairs: start}
    frontier = [start]
    while frontier:
        level = {q.pairs: q for p in frontier for q in cayley_moves(p) if q.pairs not in seen}
        seen.update(level)
        frontier = list(level.values())
    return tuple(sorted(seen.values(), key=lambda p: (len(p.pairs), p.pairs)))


def orbit_representatives(
    family: str, rank: Optional[int] = None, chi: int = 0
) -> Tuple[Tuple[CartanClass, PairSetParameter], ...]:
    """One parameter per cross-action orbit, indexed by its Cartan class."""
    return tuple((c, make_parameter(family, rank, chi, *class_rep_data(c)))
                 for c in cartan_classes(family, rank))


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


def rd_subsets(family: str, rank: Optional[int] = None) -> Tuple[RDSubset, ...]:
    """The sets S (including the empty set) defining the lifted parameters."""
    empty = RDSubset((), ())
    if family in ("E6", "E8"):
        return (empty,)
    if family == "E7":
        return (empty, RDSubset((1, 3, 7), ((-1, -2), (3, 4), (5, 6))))
    system = build_root_system(family, rank)
    if family == "A":
        n = system.rank + 1
        if n % 2 == 1:
            return (empty,)
        p = n // 2
        return (
            empty,
            RDSubset(
                tuple(2 * k + 1 for k in range(p)),
                tuple((2 * k + 1, 2 * k + 2) for k in range(p)),
            ),
        )
    if family == "D":
        n = system.rank
        p = n // 2
        short = RDSubset(
            (n - 1, n),
            ((2 * p - 1, 2 * p), (-(2 * p - 1), -2 * p)),
        )
        if n % 2 == 1:
            return (empty, short)
        long_plus = RDSubset(
            tuple(2 * k + 1 for k in range(p)),
            tuple((2 * k + 1, 2 * k + 2) for k in range(p)),
        )
        long_minus = RDSubset(
            tuple(2 * k + 1 for k in range(p - 1)) + (2 * p,),
            tuple((2 * k + 1, 2 * k + 2) for k in range(p - 1)) + ((-(2 * p - 1), -2 * p),),
        )
        return (empty, short, long_plus, long_minus)
    raise ScopeError("unknown family %r" % (family,))


def tower_parameter(
    family: str, rank: Optional[int], chi: int, subset: RDSubset, members: Sequence[int]
) -> PairSetParameter:
    """The parameter c_{S'}(gamma(empty)) for S' = members inside subset."""
    return make_parameter(family, rank, chi=chi, pairs=subset.image_pairs(members))


def tower_terms(family: str, rank: Optional[int], chi: int,
                subset: RDSubset) -> Iterator[Tuple[int, PairSetParameter]]:
    """((-1)^|S'|, c_{S'}(gamma(empty))) for each S' inside subset, by size."""
    for size in range(len(subset.simple_indices) + 1):
        for members in combinations(subset.simple_indices, size):
            yield -1 if size % 2 else 1, tower_parameter(family, rank, chi, subset, members)


def pi_RD(family: str, rank: Optional[int] = None, chi: int = 0) -> Tuple[PairSetParameter, ...]:
    """The full-level parameters J(c_S(gamma(empty))) for S in R_D, fixed chi."""
    return tuple(tower_parameter(family, rank, chi, subset, subset.simple_indices)
                 for subset in rd_subsets(family, rank))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def parameter_to_json(p: PairSetParameter) -> dict:
    return {
        "schema": SCHEMA,
        "family": p.family,
        "rank": p.rank,
        "central_char": p.chi,
        "blocks": [list(b) for b in p.blocks],
        "pairs": [list(q) for q in p.pairs],
    }
