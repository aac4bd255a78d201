"""Cartan involutions, Cartan-subgroup classes, and the cover's center.

An involution theta is stored as a signed permutation of the ambient
coordinates: every theta built here is -Id composed with reflections in
e_i -+ e_j, which swap two coordinates (negating both for e_i + e_j).
Conjugacy classes of Cartan subgroups are labelled by a signature: for E
families the triple (r, m, s) of compact / complex / split torus factors,
for A the real rank, for D the plane census plus an orientation bit.
Signatures are computed exactly from the action of sigma = -theta on the
root lattice.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .root_system import (
    Doubled,
    InvariantError,
    Matrix,
    Record,
    RootSystem,
    Vector,
    _dual_basis,
    _fraction,
    _scaled_coefficients,
    _view,
    build_root_system,
    idot,
    mat_apply,
    neg,
    ScopeError,
)

# Root type tags, as printed in chain certificates.
IMAGINARY = "im"
REAL = "real"
COMPLEX = "cx"


def root_type(theta: Matrix, alpha: Vector) -> str:
    image = mat_apply(theta, alpha)
    if image == alpha:
        return IMAGINARY
    if image == neg(alpha):
        return REAL
    return COMPLEX


class TransformError(ValueError):
    """An illegal Cayley transform was requested."""


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
# Integer linear algebra (exact, small matrices)
# ---------------------------------------------------------------------------

def _gf2_kernel_basis(mat: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [[mat[i][j] % 2 for j in range(cols)] for i in range(rows)]
    pivots: Dict[int, int] = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(cols) if c not in pivots]
    for fc in free_cols:
        v = [0] * cols
        v[fc] = 1
        for c, row in pivots.items():
            if m[row][fc]:
                v[c] = 1
        basis.append(tuple(v))
    return basis


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
    rows, div = _dual_basis(system.doubled_simple)
    sigma_cols: List[List[int]] = []
    for a in system.doubled_simple:
        image = tuple([-x for x in theta.apply(a)])
        col = _scaled_coefficients(rows, image)
        if image not in system.index or any(c % div for c in col):
            raise InvariantError("sigma does not preserve the root lattice")
        sigma_cols.append([c // div for c in col])
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

# Representative pair data for the E classes, keyed by (family, signature).
# Read-only: the literal's order is the printed E class order.
E_CLASS_REPS: Mapping[Tuple[str, Tuple[int, int, int]], RepData] = MappingProxyType({
    ("E6", (2, 2, 0)): (((1, 2, 3, 4),), ()),
    ("E6", (0, 3, 0)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E6", (0, 2, 2)): ((), ((1, 2), (-1, -2))),
    ("E6", (0, 1, 4)): ((), ((1, 2),)),
    ("E6", (0, 0, 6)): ((), ()),
    ("E7", (7, 0, 0)): (((1, 2, 3, 4, 5, 6),), ((7, 8),)),
    ("E7", (5, 1, 0)): (((1, 2, 3, 4),), ((5, 6), (7, 8))),
    ("E7", (3, 2, 0)): (((1, 2, 3, 4),), ((7, 8),)),
    ("E7", (1, 3, 0)): ((), ((1, 2), (-1, -2), (3, 4), (7, 8))),
    ("E7", (2, 2, 1)): (((1, 2, 3, 4),), ()),
    ("E7", (1, 2, 2)): ((), ((1, 2), (-1, -2), (7, 8))),
    ("E7", (0, 3, 1)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E7", (0, 2, 3)): ((), ((1, 2), (-1, -2))),
    ("E7", (0, 1, 5)): ((), ((1, 2),)),
    ("E7", (0, 0, 7)): ((), ()),
    ("E8", (8, 0, 0)): (((1, 2, 3, 4, 5, 6, 7, 8),), ()),
    ("E8", (6, 1, 0)): (((1, 2, 3, 4, 5, 6),), ((7, 8),)),
    ("E8", (4, 2, 0)): (((1, 2, 3, 4),), ((5, 6), (7, 8))),
    ("E8", (2, 3, 0)): (((1, 2, 3, 4),), ((5, 6),)),
    ("E8", (0, 4, 0)): ((), ((1, 2), (-1, -2), (3, 4), (5, 6))),
    ("E8", (2, 2, 2)): ((), ((1, 2), (-1, -2), (3, 4), (-3, -4))),
    ("E8", (0, 3, 2)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E8", (0, 2, 4)): ((), ((1, 2), (-1, -2))),
    ("E8", (0, 1, 6)): ((), ((1, 2),)),
    ("E8", (0, 0, 8)): ((), ()),
})


@lru_cache(maxsize=None)
def _class_reps(family: str, rank: int) -> Mapping[Tuple[int, ...], RepData]:
    """Signature -> (blocks, pairs) of a representative, for every Cartan
    class of the group, in printed order.

    E rows are the E_CLASS_REPS literal's.  A and D keep the first
    candidate per classify_pairs signature; D rows are then sorted by
    descending real rank, then signature.
    """
    system = build_root_system(family, rank)
    if family in ("E6", "E7", "E8"):
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
        def real_rank(pairs: Tuple[Tuple[int, int], ...]) -> int:
            r, m, s = signature_from_involution(system, involution_from_pairs(system, pairs))
            return m + s
        reps = dict(sorted(reps.items(), key=lambda item: (-real_rank(item[1][1]), item[0])))
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


class HasseDiagram(Record):
    classes: Tuple[CartanClass, ...]
    edges: Tuple[Tuple[int, int], ...]  # (from, to) indices; one Cayley step


def hasse_diagram(family: str, rank: Optional[int] = None) -> HasseDiagram:
    """An edge from each class to the class of each parameter one Cayley
    transform from its representative, by the same rule for every family.
    The tests compare the E6, E7 and E8 edges with the fixed table in
    tests/reference.py."""
    from .parameters import cayley_moves, class_of, orbit_representatives  # parameters imports cartan

    reps = orbit_representatives(family, rank)
    classes = tuple(c for c, _ in reps)
    index = {c.signature: k for k, c in enumerate(classes)}
    edges = set()
    for k, (_, rep) in enumerate(reps):
        for q in cayley_moves(rep):
            target = class_of(q)
            if target.signature not in index:
                raise InvariantError("Cayley move left the class list: %r" % (target,))
            edges.add((k, index[target.signature]))
    return HasseDiagram(classes=classes, edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Center of the nonlinear cover
# ---------------------------------------------------------------------------

class FiniteAbelianGroup(Record):
    invariant_factors: Tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def render(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join("Z/%d" % d for d in self.invariant_factors)


def cartan_matrix(system: RootSystem) -> List[List[int]]:
    out = []
    for a in system.doubled_simple:
        row = [2 * idot(a, b) for b in system.doubled_simple]  # (a, a) times <b, a^vee>
        if any(x % idot(a, a) for x in row):
            raise InvariantError("non-integer Cartan pairing")
        out.append([x // idot(a, a) for x in row])
    return out


class CenterData(Record):
    """Center of the nonlinear double cover and its genuine quotient, with
    the coset representatives held doubled; quotient_reps is their view."""

    family: str
    rank: int
    center: FiniteAbelianGroup        # Z of the cover
    quotient_order: int               # [2 P^vee cap R^vee : 2 R^vee]
    doubled_reps: Tuple[Doubled, ...]  # 2 * each coset representative

    @cached_property
    def quotient_reps(self) -> Tuple[Vector, ...]:
        return tuple(map(_view, self.doubled_reps))


@lru_cache(maxsize=None)
def cover_center_data(family: str, rank: Optional[int] = None) -> CenterData:
    """Center of the cover via the lattice quotient [2P^vee cap R^vee]/2R^vee.

    In simple-root coordinates the quotient is the kernel of the Cartan
    matrix mod 2, of order 2^k for k the dimension of that kernel, and the
    center is (Z/2)^(k+1).  The representatives are the zero vector, then
    the sums of simple roots over the nonzero kernel vectors in sorted order.
    An E group named by None shares its rank's entry: one center per system.
    """
    system = build_root_system(family, rank)
    n = system.rank
    if rank != n:
        return cover_center_data(family, n)
    kernel = _gf2_kernel_basis(cartan_matrix(system))
    k = len(kernel)

    span: List[List[int]] = []
    for mask in range(1 << k):
        coeffs = [0] * n
        for bit in range(k):
            if (mask >> bit) & 1:
                coeffs = [(x + y) % 2 for x, y in zip(coeffs, kernel[bit])]
        span.append(coeffs)
    columns = tuple(zip(*system.doubled_simple))
    reps = tuple(tuple(idot(coeffs, column) for column in columns) for coeffs in sorted(span))

    return CenterData(
        family=family,
        rank=n,
        center=FiniteAbelianGroup(invariant_factors=(2,) * (k + 1)),
        quotient_order=1 << k,
        doubled_reps=reps,
    )


def genuine_central_character_count(family: str, rank: Optional[int] = None) -> int:
    """Number of genuine central characters with a fixed infinitesimal type."""
    return cover_center_data(family, rank).quotient_order
