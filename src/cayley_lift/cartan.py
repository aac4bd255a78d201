"""Cartan involutions and Cartan-subgroup classes.

An involution theta is stored as a signed permutation of the ambient
coordinates: every theta built here is -Id composed with reflections in
e_i -+ e_j, which swap two coordinates (negating both for e_i + e_j).
Conjugacy classes of Cartan subgroups are labelled by a signature: for E
families the triple (r, m, s) of compact / complex / split torus factors,
for A the real rank, for D the plane census plus an orientation bit.
Signatures are computed exactly from the action of sigma = -theta on the
root lattice, in simple-root coordinates: sigma maps each simple root to a
root, whose coefficients root_system's closure lists.  The cover's center
is the center module.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .root_system import (
    InvariantError,
    Matrix,
    Record,
    RootSystem,
    Vector,
    build_root_system,
    positive_coefficients,
    ScopeError,
    TransformError,
)
from .center import _gf2_kernel_basis

# Root type tags, as printed in chain certificates.
IMAGINARY = "im"
REAL = "real"
COMPLEX = "cx"


def block_pairs(block: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """The (odd slot, even slot) pairs of a quadruple block, matched in
    sorted order; each stands for both transforms of its plane."""
    odds = sorted(x for x in block if x % 2 == 1)
    evens = sorted(x for x in block if x % 2 == 0)
    if len(odds) != len(evens) or not block:
        raise TransformError("block must balance odd and even slots: %r" % (block,))
    return tuple(zip(odds, evens))


class Involution(Record):
    """An involutive isometry normalizing the root system, stored as a signed
    permutation of the ambient coordinates: coordinate k of theta(v) is
    v[c - 1] for c = coords[k] > 0, and -v[-c - 1] for c < 0."""

    family: str
    dim: int
    coords: Tuple[int, ...]

    def apply(self, v: Vector) -> Vector:
        return tuple([v[c - 1] if c > 0 else -v[-c - 1] for c in self.coords])

    def is_involution(self) -> bool:
        return self.apply(self.coords) == tuple(range(1, self.dim + 1))

    @cached_property
    def matrix(self) -> Matrix:
        """theta as a dense matrix with exact 0 and +-1 entries."""
        from .dense import _fraction

        return tuple(
            tuple(_fraction(1 if c > 0 else -1) if abs(c) == j + 1 else _fraction(0)
                  for j in range(self.dim))
            for c in self.coords
        )


def involution_from_pairs(
    system: RootSystem,
    pairs: Sequence[Tuple[int, int]] = (),
    blocks: Sequence[Tuple[int, ...]] = (),
) -> Involution:
    """theta = (-Id) composed with the reflections named by the pair data.

    A positive pair (i, j) contributes the reflection in e_i - e_j, a negative
    pair (-i, -j) the reflection in e_i + e_j.  A block contributes both
    reflections for each of its block_pairs.
    """
    planes = [(abs(a), abs(b), a < 0) for a, b in pairs]
    for block in blocks:
        for i, j in block_pairs(block):
            planes += [(i, j, False), (i, j, True)]
    coords = [-(k + 1) for k in range(system.dim)]
    for i, j, signed in planes:
        # theta.s_root reads coordinate j where theta read i and i where it
        # read j, negated for the root e_i + e_j.
        swap = {i: -j if signed else j, j: -i if signed else i}
        coords = [swap[abs(c)] * (1 if c > 0 else -1) if abs(c) in swap else c for c in coords]
    return Involution(family=system.family, dim=system.dim, coords=tuple(coords))


# ---------------------------------------------------------------------------
# Signatures from the lattice action
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def signature_from_involution(system: RootSystem, theta: Involution) -> Tuple[int, int, int]:
    """(compact, complex, split) torus signature of theta.

    sigma = -theta acts on the root lattice, which splits into r sign, s
    trivial and m regular Z[sigma]-pieces (Reiner 1957).  Only the regular
    pieces survive in sigma - 1 modulo 2, so m is its rank over GF(2), and
    the trace of sigma, s - r, gives the rest.
    """
    if not theta.is_involution():
        raise InvariantError("theta is not an involution")
    n = system.rank
    coefficients = positive_coefficients(system.doubled_simple)
    sigma_cols: List[Sequence[int]] = []
    for a in system.doubled_simple:
        k = system.index.get(tuple([-x for x in theta.apply(a)]))  # sigma(a), signed
        if k is None:
            raise InvariantError("sigma does not preserve the root lattice")
        col = coefficients[system.doubled_positive[abs(k) - 1]]
        sigma_cols.append(col if k > 0 else [-c for c in col])
    trace = sum(sigma_cols[i][i] for i in range(n))
    m = n - len(_gf2_kernel_basis(
        [[sigma_cols[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]))
    return ((n - trace) // 2 - m, m, (n + trace) // 2 - m)


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


# ---------------------------------------------------------------------------
# Forwarded names
# ---------------------------------------------------------------------------
# Names that perfbench/trace_child.py wraps in this module, and the modules
# that now hold them; nothing in the package reads them here.
_FORWARDED = {"hasse_diagram": "cayley_graph", "root_type": "dense",
              "cover_center_data": "center"}


def __getattr__(name: str):
    if name in _FORWARDED:
        from importlib import import_module
        return getattr(import_module("." + _FORWARDED[name], __package__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
