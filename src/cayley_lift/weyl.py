"""The Weyl group as signed permutations of the positive roots, and its
reflection subgroups, for the sign test.

w[k] = +-(j+1) means w maps positive root k to +-(positive root j), in the
signed indices of RootSystem.index.  W acts faithfully on its roots, so this
one representation serves every family.  A reflection is built from the
doubled coordinates of root_system only when it is asked for (reflection,
cached), so the sign test builds the simple and core-simple ones it reads
and no table of all N.  Reduced words peel simple reflections off a
permutation, and reflection words descend on a doubled root.  The root
subsystems (the integral one at rho/2 and its real, imaginary and core
parts) are held as positive-root indices.  theta on the roots needs only
the system's index, and the chain roots of a word only the simple roots
(chains), so only the sign test (coherent) runs this module: not the
towers, the lift or a witness replay.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, List, Tuple

from .root_system import (Doubled, Record, RootSystem, SignedPerm, Vector, WeylWord, idot,
                          is_integral)


def perm_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """The product a.b of two signed permutations (b acts first)."""
    return tuple([a[j - 1] if j > 0 else -a[-j - 1] for j in b])


@lru_cache(maxsize=None)
def reflection(system: RootSystem, k: int) -> SignedPerm:
    """s_a for the positive root a of 0-based index k, as a signed
    permutation of the positive roots, from the doubled coordinates:
    s_a(d) = d - <d, a^vee> a, and on doubled roots of a simply-laced
    system <d, a^vee> is the integer (d . a) / 4."""
    doubled, index = system.doubled_positive, system.index
    a = doubled[k]
    return tuple([index[tuple([x - idot(d, a) // 4 * y for x, y in zip(d, a)])] for d in doubled])


def perm_to_word(w: SignedPerm, system: RootSystem) -> WeylWord:
    """Reduced word (printed order) for w, by descent on the positive roots.

    Repeatedly peels off, on the right, the first simple root that w sends
    negative.  Raises ValueError if w is not in the Weyl group.
    """
    simple = [system.index[a] - 1 for a in system.doubled_simple]
    identity = tuple(range(1, len(system.doubled_positive) + 1))
    rev: List[int] = []
    for _ in range(len(w) + 1):
        if w == identity:
            return tuple(reversed(rev))
        i = next((i for i, k in enumerate(simple) if w[k] < 0), None)
        if i is None:
            break
        w = perm_mul(w, reflection(system, simple[i]))
        rev.append(i)
    raise ValueError("element is not in the Weyl group")


# ---------------------------------------------------------------------------
# Root subsystems
# ---------------------------------------------------------------------------

class RootSubsystem(Record):
    """A reflection-closed set of roots of a system, held as ascending
    0-based positive-root indices; the root vectors are views."""

    system: RootSystem
    positive_index: Tuple[int, ...]
    simple_index: Tuple[int, ...]

    @cached_property
    def positive(self) -> Tuple[Vector, ...]:
        return tuple(self.system.positive_roots[k] for k in self.positive_index)


def _doubled_sum(sub: RootSubsystem) -> Doubled:
    """Sum of the doubled positive roots of sub: 4 times its rho."""
    doubled = sub.system.doubled_positive
    return tuple(sum(doubled[k][i] for k in sub.positive_index) for i in range(sub.system.dim))


def subsystem(system: RootSystem, positive_index: Iterable[int]) -> RootSubsystem:
    """The subsystem with the given positive roots (closed under reflections);
    its simple roots are the positive roots a with no positive b such that
    a - b is a positive root, found by index lookups of doubled differences."""
    pos = tuple(sorted(set(positive_index)))
    doubled, index = system.doubled_positive, system.index
    members = {k + 1 for k in pos}
    simple = tuple(a for a in pos if not any(
        index.get(tuple([x - y for x, y in zip(doubled[a], doubled[b])])) in members
        for b in pos if b != a
    ))
    return RootSubsystem(system=system, positive_index=pos, simple_index=simple)


@lru_cache(maxsize=None)
def _integral_system(system: RootSystem) -> RootSubsystem:
    """The roots integral at rho/2."""
    return subsystem(system, (k for k, d in enumerate(system.doubled_positive)
                              if is_integral(system, d)))


# ---------------------------------------------------------------------------
# Reflection words
# ---------------------------------------------------------------------------

def canonical_reflection_word(s: int, system: RootSystem) -> WeylWord:
    """Deterministic palindromic word for the reflection in the root with
    signed index s (see RootSystem.index).

    Repeatedly conjugates by the smallest-index simple reflection that strictly
    lowers the height of the conjugated (positive) root: s_i lowers b exactly
    when (b, alpha_i) > 0, and then s_i(b) = b - alpha_i, all on doubled roots.
    """
    if not 0 < abs(s) <= len(system.doubled_positive):
        raise ValueError("not a root: %r" % (s,))
    simple = system.doubled_simple
    b = system.doubled_positive[abs(s) - 1]
    prefix: List[int] = []
    while b not in simple:
        i = next(i for i, a in enumerate(simple) if idot(b, a) > 0)
        b = tuple([x - y for x, y in zip(b, simple[i])])
        prefix.append(i)
    return tuple(prefix) + (simple.index(b),) + tuple(reversed(prefix))
