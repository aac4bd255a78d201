"""The Weyl group as signed permutations of the positive roots, for the sign test.

w[k] = +-(j+1) means w maps positive root k to +-(positive root j), in the
signed indices of RootSystem.index.  W acts faithfully on its roots, so this
one representation serves every family.  The tables of a system (WeylTables)
hold the reflections as such permutations, built once from the doubled
coordinates of root_system; reduced words, the chain roots of a word and the
dense matrix of a word are read from them.  theta on the roots needs only
the system's index, so only coherent, and root_system's
canonical_reflection_word at call time, run this module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from .root_system import (
    Doubled,
    Matrix,
    Record,
    RootSystem,
    SignedPerm,
    WeylWord,
    WordError,
    identity_matrix,
    idot,
    mat_mul,
    reflection_matrix,
)


def perm_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """The product a.b of two signed permutations (b acts first)."""
    return tuple([a[j - 1] if j > 0 else -a[-j - 1] for j in b])


class WeylTables(Record):
    """Integer tables for the action of W on a system's positive roots."""

    system: RootSystem
    simple: Tuple[int, ...]                 # positive-root index of each simple root
    height: Tuple[int, ...]                 # height of positive root k
    reflections: Tuple[SignedPerm, ...]     # s_k for each positive root k
    identity: SignedPerm

    def doubled_root(self, s: int) -> Doubled:
        """Twice the root with signed index s."""
        d = self.system.doubled_positive[abs(s) - 1]
        return d if s > 0 else tuple([-x for x in d])


@lru_cache(maxsize=None)
def weyl_tables(system: RootSystem) -> WeylTables:
    """The system's WeylTables, built once in doubled integer coordinates.

    Only the simple reflections are computed from coordinates; in order of
    height every other one is a conjugate, s_beta = s_i s_gamma s_i for a
    simple s_i with gamma = s_i(beta) of smaller height.
    """
    doubled, index = system.doubled_positive, system.index
    height = tuple(idot(system.doubled_rho, d) // 4 for d in doubled)  # (rho, a)
    simple = tuple(index[a] - 1 for a in system.doubled_simple)
    reflections: List[Optional[SignedPerm]] = [None] * len(doubled)
    for k in simple:
        reflections[k] = _reflection_perm(doubled[k], doubled, index)
    lowering = [reflections[k] for k in simple]
    for k in sorted(range(len(doubled)), key=height.__getitem__):
        if reflections[k] is None:
            s = next(s for s in lowering if height[s[k] - 1] < height[k])
            reflections[k] = perm_mul(perm_mul(s, reflections[s[k] - 1]), s)
    return WeylTables(
        system=system,
        simple=simple,
        height=height,
        reflections=tuple(reflections),
        identity=tuple(range(1, len(doubled) + 1)),
    )


def _reflection_perm(a, doubled, index) -> SignedPerm:
    """s_a on the positive roots, all in doubled integer coordinates."""
    aa = idot(a, a)
    out = []
    for d in doubled:
        c = 2 * idot(d, a) // aa  # <d, a^vee>, an integer
        out.append(index[tuple([x - c * y for x, y in zip(d, a)])])
    return tuple(out)


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


def perm_to_word(w: SignedPerm, system: RootSystem) -> WeylWord:
    """Reduced word (printed order) for w, by descent on the positive roots.

    Repeatedly peels off, on the right, the first simple root that w sends
    negative.  Raises ValueError if w is not in the Weyl group.
    """
    tables = weyl_tables(system)
    rev: List[int] = []
    for _ in range(len(w) + 1):
        if w == tables.identity:
            return tuple(reversed(rev))
        i = next((i for i, k in enumerate(tables.simple) if w[k] < 0), None)
        if i is None:
            break
        w = perm_mul(w, tables.reflections[tables.simple[i]])
        rev.append(i)
    raise ValueError("element is not in the Weyl group")


def word_matrix(word: WeylWord, system: RootSystem) -> Matrix:
    """Matrix of the word read left to right (rightmost letter acts first)."""
    m = identity_matrix(system.dim)
    for letter in word:
        m = mat_mul(m, reflection_matrix(system.simple_roots[letter]))
    return m


# ---------------------------------------------------------------------------
# Beta chains
# ---------------------------------------------------------------------------

def beta_chain_for_word(word: WeylWord, system: RootSystem) -> Tuple[int, ...]:
    """Signed indices of the chain roots beta_1..beta_N of a word, consumed
    rightmost letter first.

    beta_k = s_{beta_{k-1}} ... s_{beta_1}(a_k) where a_k is the positive root
    of the k-th consumed letter; the ordered composition of the chain
    reflections equals the composition of the word's letters.
    """
    for letter in word:
        if not 0 <= letter < system.rank:
            raise WordError("letter %d out of range" % letter)
    tables = weyl_tables(system)
    u = tables.identity
    indices: List[int] = []
    for letter in reversed(word):
        k = tables.simple[letter]
        indices.append(u[k])
        u = perm_mul(u, tables.reflections[k])
    return tuple(indices)
