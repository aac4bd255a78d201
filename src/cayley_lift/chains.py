"""The chain of a Weyl word against a parameter's involution.

For a word in the ambient simple reflections, the letters are consumed from
the right; the k-th consumed letter alpha_c contributes the chain root
beta_k = u(alpha_c), u = s_{alpha_1} ... s_{alpha_{k-1}} the letters
consumed before it (Bourbaki VI 1.6).  u is carried as the doubled images
2 u(alpha_j) of the simple roots, integers in every family.  Since
s_c(alpha_j) = alpha_j - <alpha_j, alpha_c^vee> alpha_c (Bourbaki VI 1.1),
u s_c sends alpha_c to -beta_k, each Dynkin neighbour alpha_j of alpha_c
to u(alpha_j) + beta_k, and every other simple root where u does.  Each
beta_k is held as its signed index (RootSystem.index) and tagged imaginary
/ real / complex as theta fixes it, negates it or neither: root_tag is the
package's one rule for a tag, which dense.root_type reads too.  No Weyl
group element is built, so a witness replay runs this module and not the
sign test; the sign test (coherent) chains only the certificate of a
violating element.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence, Tuple

from .root_system import (Doubled, Record, RootSystem, Vector, WeylWord, WordError,
                          build_root_system, idot, neg)
from .parameters import PairSetParameter, theta

# Root type tags, as printed in chain certificates.
IMAGINARY = "im"
REAL = "real"
COMPLEX = "cx"


def root_tag(root: Tuple, image: Tuple) -> str:
    """The tag of a root against an involution, from the root's image:
    imaginary if theta fixes it, real if theta negates it, else complex."""
    return IMAGINARY if image == root else REAL if image == neg(root) else COMPLEX


class ChainCertificate(Record):
    """The chain of a word against p's involution: the signed positive-root
    index and the tag of each chain root, in consumption order; the
    (beta_k, tag) pairs with root vectors are the steps view."""

    parameter: PairSetParameter
    word: WeylWord
    indices: Tuple[int, ...]
    tags: Tuple[str, ...]
    imaginary_count: int
    sign: int        # epsilon = (-1)^imaginary_count
    word_sign: int   # det of the word, (-1)^len

    @cached_property
    def doubled_steps(self) -> Tuple[Doubled, ...]:
        """Twice each chain root, in consumption order."""
        p = self.parameter
        doubled = build_root_system(p.family, p.rank).doubled_positive
        return tuple([doubled[s - 1] if s > 0 else neg(doubled[-s - 1]) for s in self.indices])

    @cached_property
    def steps(self) -> Tuple[Tuple[Vector, str], ...]:
        from .dense import view
        return tuple(zip(map(view, self.doubled_steps), self.tags))


def chain_roots(word: WeylWord, system: RootSystem) -> Tuple[Doubled, ...]:
    """Twice each chain root beta_1..beta_N of a word, consumed rightmost
    letter first; the ordered composition of the chain reflections equals
    the composition of the word's letters."""
    for letter in word:
        if not 0 <= letter < system.rank:
            raise WordError("letter %d out of range" % letter)
    simple = system.doubled_simple
    joined = [[j for j, a in enumerate(simple) if idot(a, b) == -4] for b in simple]  # Dynkin
    images = list(simple)  # images[j] = 2 u(alpha_j)
    out: List[Doubled] = []
    for c in reversed(word):
        beta = images[c]
        for j in joined[c]:
            images[j] = tuple([x + y for x, y in zip(images[j], beta)])
        images[c] = neg(beta)
        out.append(beta)
    return tuple(out)


def chain_types(p: PairSetParameter, word: Sequence[int]) -> ChainCertificate:
    """Chain roots and their types for the word, against p's involution."""
    word = tuple(word)
    system = build_root_system(p.family, p.rank)
    th = theta(p)
    indices, tags = [], []
    for beta in chain_roots(word, system):
        indices.append(system.index[beta])
        tags.append(root_tag(beta, th.apply(beta)))
    m = tags.count(IMAGINARY)
    return ChainCertificate(
        parameter=p,
        word=word,
        indices=tuple(indices),
        tags=tuple(tags),
        imaginary_count=m,
        sign=-1 if m % 2 else 1,
        word_sign=-1 if len(word) % 2 else 1,
    )
