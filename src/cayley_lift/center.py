"""The center of the nonlinear double cover and its genuine quotient.

The paper's count is the number of surviving Cartan classes times the
number of genuine central characters, the order of the lattice quotient
[2P^vee cap R^vee : 2R^vee], which is read off the kernel of the Cartan
matrix mod 2.  The centers verb runs this module and root_system alone;
cartan imports the GF(2) kernel from here for its torus signatures.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .root_system import Doubled, InvariantError, Record, RootSystem, Vector, build_root_system, idot


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
        from .dense import view
        return tuple(map(view, self.doubled_reps))


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
