"""The Fraction edge: rational vectors and dense exact matrices.

The package computes in doubled integer coordinates (root_system); this
module holds what works on fractions.Fraction instead.  It builds the vector
views of RootSystem, RootSubsystem, CenterData and ChainCertificate, which
each view imports on first use, and it is the whole dense-matrix layer:
reflections and Weyl words as matrices, and the signed permutation a matrix
induces on the roots.  No CLI request runs it; the tests compare the
integer core with it.  fractions loads on the first call of _fraction.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Tuple

from .root_system import Doubled, Matrix, RootSystem, SignedPerm, Vector, WeylWord, idot, neg
from .cartan import COMPLEX, IMAGINARY, REAL, _dual_basis, _scaled_coefficients
from .weyl import RootSubsystem, _integral_system

if TYPE_CHECKING:
    from fractions import Fraction as Q


@lru_cache(maxsize=1024)  # views share one Fraction per value; bounded: callers pass user input
def _fraction(*args) -> Q:
    """The package's one Fraction constructor; fractions loads on the first call."""
    from fractions import Fraction

    return Fraction(*args)


def view(d: Doubled, den: int = 2) -> Vector:
    """The rational vector d / den."""
    return tuple([_fraction(x, den) for x in d])


def dot(x: Vector, y: Vector) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch: %d vs %d" % (len(x), len(y)))
    return sum((a * b for a, b in zip(x, y)), _fraction(0))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def scale(c: Q, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def basis_vector(i: int, dim: int) -> Vector:
    """Standard basis vector e_i (1-based index)."""
    return tuple(_fraction(int(k == i - 1)) for k in range(dim))


def pairing(lam: Vector, alpha: Vector) -> Q:
    """<lam, alpha^vee> = 2(lam, alpha)/(alpha, alpha)."""
    nn = dot(alpha, alpha)
    if nn == 0:
        raise ValueError("pairing against the zero vector")
    return 2 * dot(lam, alpha) / nn


def reflect(alpha: Vector, v: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    return sub(v, scale(pairing(v, alpha), alpha))


# ---------------------------------------------------------------------------
# Root-system queries on rational vectors
# ---------------------------------------------------------------------------

def simple_coefficients(system: RootSystem, v: Vector) -> Tuple[Q, ...]:
    """Coordinates of v in the simple-root basis; ValueError off the span."""
    rows, div = _dual_basis(system.doubled_simple)
    den = lcm(*(_fraction(x).denominator for x in v))
    scaled = tuple(int(x * den) for x in v)  # v = scaled / den
    coeffs = _scaled_coefficients(rows, scaled)  # den * div/2 times the coefficients
    span = [idot(coeffs, column) for column in zip(*system.doubled_simple)]
    if span != [div * x for x in scaled]:
        raise ValueError("vector is not in the span of the basis")
    return tuple(_fraction(2 * c, den * div) for c in coeffs)


def height(system: RootSystem, root: Vector) -> Q:
    return sum(simple_coefficients(system, root), _fraction(0))


def integral_system(lam: Vector, system: RootSystem) -> RootSubsystem:
    """Roots with integral pairing against lam, with positives and simples.

    At lam = rho/2 this reads the doubled rho; another lam is scaled to
    integers, den * lam, with <lam, a^vee> = (den * lam . 2a) / 2den.
    """
    if len(lam) != system.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (len(lam), system.dim))
    if lam == system.rho_half:
        return _integral_system(system, system.doubled_rho, 8)
    den = lcm(*(_fraction(x).denominator for x in lam))
    return _integral_system(system, tuple(int(x * den) for x in lam), 2 * den)


# ---------------------------------------------------------------------------
# Matrices (dense, exact), for reflections and words
# ---------------------------------------------------------------------------

def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(_fraction(int(i == j)) for j in range(dim)) for i in range(dim))


def mat_apply(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, tuple(col)) for col in bt) for row in a)


@lru_cache(maxsize=None)
def reflection_matrix(alpha: Vector) -> Matrix:
    dim = len(alpha)
    cols = [reflect(alpha, basis_vector(j + 1, dim)) for j in range(dim)]
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def word_matrix(word: WeylWord, system: RootSystem) -> Matrix:
    """Matrix of the word read left to right (rightmost letter acts first)."""
    m = identity_matrix(system.dim)
    for letter in word:
        m = mat_mul(m, reflection_matrix(system.simple_roots[letter]))
    return m


def root_type(theta: Matrix, alpha: Vector) -> str:
    """The type of alpha against the involution theta, given as a matrix."""
    image = mat_apply(theta, alpha)
    if image == alpha:
        return IMAGINARY
    if image == neg(alpha):
        return REAL
    return COMPLEX


def root_permutation(m: Matrix, system: RootSystem) -> SignedPerm:
    """The signed permutation of the positive roots induced by the matrix m.

    Raises ValueError if m does not map every root to a root.
    """
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    out = []
    for d in system.doubled_positive:
        try:
            out.append(system.index[tuple(sum(x * d[j] for j, x in row) for row in rows)])
        except KeyError:
            raise ValueError("matrix does not permute the roots") from None
    return tuple(out)
