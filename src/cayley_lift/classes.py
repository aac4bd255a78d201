"""The class map: conjugacy classes of Cartan subgroups and their
representatives.

Classes are labelled by a signature: for E families the triple (r, m, s) of
compact / complex / split torus factors, for A the real rank, for D the
plane census plus an orientation bit.  Each class has one representative
pair set, from a rule for A and D and from the e_classes table for E; an
E class's signature is read off its involution (cartan).  The count and
the cartans and params verbs run this module; the towers, the lift and a
witness replay never do.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .root_system import Record, ScopeError, build_root_system
from .cartan import Involution, block_pairs, involution_from_pairs, signature_from_involution


class TorusShape(Record):
    compact: int
    complex_pairs: int
    split: int

    @property
    def real_rank(self) -> int:
        return self.complex_pairs + self.split

    def render(self) -> str:
        return "(%d,%d,%d)" % (self.compact, self.complex_pairs, self.split)


class CartanClass(Record):
    """Conjugacy class of Cartan subgroups.

    signature: E families (r, m, s); family A (real_rank,);
    family D (plain_pairs, both_sign_pairs, orientation).
    """

    family: str
    rank: int
    signature: Tuple[int, ...]

    def render(self) -> str:
        if self.family == "A":
            return "i=%d" % self.signature[0]
        if self.family == "D":
            a, b, t = self.signature
            return "(%d,%d,%s)" % (a, b, "-" if t else "+")
        return "(%d,%d,%d)" % self.signature


RepData = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, int], ...]]  # (blocks, pairs)


@lru_cache(maxsize=None)
def _class_reps(family: str, rank: int) -> Mapping[Tuple[int, ...], RepData]:
    """Signature -> (blocks, pairs) of a representative, for every Cartan
    class of the group, in printed order.

    E rows are those of the e_classes table.  A and D keep the first
    candidate per classify_pairs signature; D rows are then sorted by
    descending real rank (rank - a - 2b for the class (a, b, t)), then
    signature.
    """
    system = build_root_system(family, rank)
    if family in ("E6", "E7", "E8"):
        from .e_classes import E_CLASS_REPS

        return MappingProxyType({sig: data for (fam, sig), data in E_CLASS_REPS.items()
                                 if fam == family})
    up = [(2 * k + 1, 2 * k + 2) for k in range(system.dim // 2)]
    reps: Dict[Tuple[int, ...], RepData] = {}
    for planes in range(len(up) + 1):
        # A: the first `planes` planes.  D: b of them in both signs, then
        # single-sign ones, the last of these taken in either sign.
        for b in range(planes + 1 if family == "D" else 1):
            both = tuple(q for i, j in up[:b] for q in ((i, j), (-i, -j)))
            single = tuple(up[b:planes])
            for sign in (1, -1) if family == "D" and single else (1,):
                pairs = both + single[:-1] + tuple((sign * i, sign * j) for i, j in single[-1:])
                reps.setdefault(classify_pairs(family, rank, pairs).signature, ((), pairs))
    if family == "D":
        reps = dict(sorted(reps.items(), key=lambda item: (item[0][0] + 2 * item[0][1], item[0])))
    return MappingProxyType(reps)


def class_rep_data(c: CartanClass) -> RepData:
    """(blocks, pairs) of the representative parameter for the class."""
    reps = _class_reps(c.family, c.rank)
    if c.signature not in reps:
        raise ScopeError("unknown %s class %r" % (c.family, c.signature))
    return reps[c.signature]


def involution_for_class(c: CartanClass) -> Involution:
    system = build_root_system(c.family, c.rank)
    blocks, pairs = class_rep_data(c)
    return involution_from_pairs(system, pairs=pairs, blocks=blocks)


@lru_cache(maxsize=None)
def cartan_shape(c: CartanClass) -> TorusShape:
    system = build_root_system(c.family, c.rank)
    theta = involution_for_class(c)
    r, m, s = signature_from_involution(system, theta)
    return TorusShape(compact=r, complex_pairs=m, split=s)


def cartan_classes(family: str, rank: Optional[int] = None) -> Tuple[CartanClass, ...]:
    n = build_root_system(family, rank).rank
    return tuple(CartanClass(family, n, sig) for sig in _class_reps(family, n))


def classify_pairs(family: str, rank: int, pairs: Sequence[Tuple[int, int]],
                   blocks: Sequence[Tuple[int, ...]] = ()) -> CartanClass:
    """Cartan class of the parameter with the given pair data."""
    if family == "A":
        n = rank + 1
        return CartanClass("A", rank, ((n - 1) - len(pairs),))
    if family == "D":
        n = rank
        planes: Dict[Tuple[int, int], List[int]] = {}
        for a, b in pairs:
            planes.setdefault((abs(a), abs(b)), []).append(1 if a > 0 else -1)
        for block in blocks:
            for i, j in block_pairs(block):
                planes.setdefault((i, j), []).extend([1, -1])
        single = [signs[0] for signs in planes.values() if len(signs) == 1]
        a_count = len(single)
        b_count = sum(1 for signs in planes.values() if len(signs) == 2)
        # The orientation bit survives conjugacy only when every coordinate
        # sits in a single-sign plane: an unused coordinate or a both-sign
        # plane absorbs individual sign flips.
        chirality_defined = b_count == 0 and 2 * a_count == n and a_count >= 1
        t = sum(1 for s in single if s < 0) % 2 if chirality_defined else 0
        return CartanClass("D", n, (a_count, b_count, t))
    if family in ("E6", "E7", "E8"):
        system = build_root_system(family, rank)
        theta = involution_from_pairs(system, pairs=pairs, blocks=blocks)
        sig = signature_from_involution(system, theta)
        return CartanClass(family, system.rank, sig)
    raise ScopeError("unknown family %r" % (family,))
