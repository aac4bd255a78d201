"""Pseudospherical parameters and their Cayley-transform calculus.

A parameter is written gamma(S) for a collection S of pairs and quadruple
blocks of coordinate slots.  An unsigned pair {i,j} records a Cayley
transform through e_i - e_j, a signed pair {-i,-j} one through e_i + e_j;
a quadruple block {i1..i_{2r}} abbreviates both transforms for each of its
matched (odd slot, even slot) pairs.  All transform roots pair to Z + 1/2
against rho/2, which is what makes the moves available in the genuine
block.  make_parameter checks a whole pair set; the cayley_graph module
adds one transform at a time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .root_system import (
    SCHEMA,
    Record,
    RootSystem,
    ScopeError,
    SignedPerm,
    TransformError,
    build_root_system,
    is_half_integral,
    pair_root,
)
from .cartan import Involution, block_pairs, involution_from_pairs, signature_from_involution
from .center import genuine_central_character_count

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


# theta, theta_perm and length depend on p's pair set, not on chi, so each
# is cached on the key (family, rank, blocks, pairs): one build serves every chi.

def _key(p: PairSetParameter) -> Tuple:
    return p.family, p.rank, p.blocks, p.pairs


def theta(p: PairSetParameter) -> Involution:
    return _theta(*_key(p))


@lru_cache(maxsize=None)
def _theta(family, rank, blocks, pairs) -> Involution:
    return involution_from_pairs(build_root_system(family, rank), pairs=pairs, blocks=blocks)


def theta_perm(p: PairSetParameter) -> SignedPerm:
    """p's involution as a signed permutation of the positive roots."""
    return _theta_perm(*_key(p))


@lru_cache(maxsize=None)
def _theta_perm(*key) -> SignedPerm:
    th = _theta(*key)
    system = build_root_system(*key[:2])
    return tuple([system.index[th.apply(d)] for d in system.doubled_positive])


def class_of(p: PairSetParameter) -> CartanClass:
    from .classes import classify_pairs

    return classify_pairs(p.family, p.rank, p.pairs, p.blocks)


def length(p: PairSetParameter) -> int:
    """The length of p, doubled (the package's Doubled convention): the
    number of positive roots moved out of the positive system by theta,
    plus the real rank of the associated Cartan subgroup."""
    return _length(*_key(p))


@lru_cache(maxsize=None)
def _length(*key) -> int:
    flips = sum(1 for k in _theta_perm(*key) if k < 0)
    r, m, s = signature_from_involution(build_root_system(*key[:2]), _theta(*key))
    return flips + m + s


def orbit_representatives(
    family: str, rank: Optional[int] = None, chi: int = 0
) -> Tuple[Tuple[CartanClass, PairSetParameter], ...]:
    """One parameter per cross-action orbit, indexed by its Cartan class.
    The class map (classes) is imported here and in class_of, so a request
    that calls neither never runs it."""
    from .classes import cartan_classes, class_rep_data

    return tuple((c, make_parameter(family, rank, chi, *class_rep_data(c)))
                 for c in cartan_classes(family, rank))


def tower_parameter(
    family: str, rank: Optional[int], chi: int, subset: RDSubset, members: Sequence[int]
) -> PairSetParameter:
    """The parameter c_{S'}(gamma(empty)) for S' = members inside subset,
    an RDSubset of klv_poset (which imports this module)."""
    return make_parameter(family, rank, chi=chi, pairs=subset.image_pairs(members))


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
