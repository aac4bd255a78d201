"""The Fraction edge: rational vectors and dense exact matrices.

The package computes in doubled integer coordinates (root_system); this
module holds what works on fractions.Fraction instead.  It builds the vector
views of RootSystem, CenterData, ChainCertificate and Involution, which each
view imports on first use, the integral roots at rho/2 for a Fraction weight,
and the dense-matrix layer: reflections and Weyl words as matrices, the
signed permutation a matrix induces on the roots, and the reduced word of a
matrix.  Only root_system is imported at the top: the two routines that
read the sign test's integer Weyl code (coherent) import it when they are
called, and root_type imports the tag rule (chains) the same way, so a view
loads no sign test, Cartan or chain module.  No CLI request runs this
module; the acceptance gate and the benchmark's tracer read it.  fractions
loads on the first call of _fraction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .root_system import Doubled, Matrix, RootSystem, SignedPerm, Vector, WeylWord

if TYPE_CHECKING:
    from fractions import Fraction as Q

    from .coherent import RootSubsystem


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


def integral_system(lam: Vector, system: RootSystem) -> RootSubsystem:
    """The roots with integral pairing against lam, which must be rho/2."""
    if lam != system.rho_half:
        raise ValueError("integral roots are computed at rho/2 only, not at (%s)"
                         % ", ".join(map(str, lam)))
    from .coherent import _integral_system

    return _integral_system(system)


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
    """Id - 2 alpha alpha^T / (alpha, alpha): the reflection in alpha's hyperplane."""
    c = 2 / dot(alpha, alpha)
    return tuple(tuple(int(i == j) - c * a * b for j, b in enumerate(alpha))
                 for i, a in enumerate(alpha))


def word_matrix(word: WeylWord, system: RootSystem) -> Matrix:
    """Matrix of the word read left to right (rightmost letter acts first)."""
    m = identity_matrix(system.dim)
    for letter in word:
        m = mat_mul(m, reflection_matrix(system.simple_roots[letter]))
    return m


def root_type(theta: Matrix, alpha: Vector) -> str:
    """The type of alpha against the involution theta, given as a matrix."""
    from .chains import root_tag

    return root_tag(alpha, mat_apply(theta, alpha))


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


def matrix_to_word(m: Matrix, system: RootSystem) -> WeylWord:
    """Reduced word (printed order) for a Weyl group element given as a matrix."""
    from .coherent import perm_to_word

    try:
        word = perm_to_word(root_permutation(m, system), system)
    except ValueError:
        raise ValueError("matrix is not in the Weyl group") from None
    # W fixes the complement of the root span pointwise; m must as well.
    if word_matrix(word, system) != m:
        raise ValueError("matrix is not in the Weyl group")
    return word
