"""Cartan involutions and their torus signatures.

An involution theta is stored as a signed permutation of the ambient
coordinates: every theta built here is -Id composed with reflections in
e_i -+ e_j, which swap two coordinates (negating both for e_i + e_j).
Its signature, the triple (r, m, s) of compact / complex / split torus
factors, is computed exactly from the action of sigma = -theta on the root
lattice, in simple-root coordinates: sigma maps each simple root to a root,
whose coefficients root_system's closure lists.  The conjugacy classes of
Cartan subgroups and their representatives are the classes module; the
cover's center is the center module; the root type tags are the chains
module.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import List, Sequence, Tuple

from .root_system import (
    InvariantError,
    Matrix,
    Record,
    RootSystem,
    Vector,
    positive_coefficients,
    TransformError,
    forwarding,
)
from .center import _gf2_kernel_basis


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


# ---------------------------------------------------------------------------
# Forwarded names
# ---------------------------------------------------------------------------
# Names that perfbench/trace_child.py wraps in this module, or that the
# acceptance gate imports from it (involution_for_class), and the modules
# that now hold them; nothing in the package reads them here.
_FORWARDED = {"hasse_diagram": "cayley_graph", "root_type": "dense",
              "cover_center_data": "center", "cartan_classes": "classes",
              "involution_for_class": "classes"}
__getattr__ = forwarding(__name__, _FORWARDED)
