"""The Weyl group as signed permutations of the positive roots, and its
reflection subgroups, for the sign test.

w[k] = +-(j+1) means w maps positive root k to +-(positive root j), in the
signed indices of RootSystem.index.  W acts faithfully on its roots, so this
one representation serves every family.  The tables of a system (WeylTables)
hold the reflections as such permutations, built once from the doubled
coordinates of root_system; reduced words and reflection words are read
from them.  The root subsystems (the integral one at rho/2 and its real,
imaginary and core parts) are held as positive-root indices.  theta on the
roots needs only the system's index, and the chain roots of a word only
the ambient coordinates (chains), so only the sign test (coherent) runs
this module: not the towers, the lift or a witness replay.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, List, Optional, Tuple

from .root_system import (Doubled, Record, RootSystem, SignedPerm, Vector, WeylWord, idot,
                          is_integral)


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
    lowers the height of the conjugated (positive) root.
    """
    if not 0 < abs(s) <= len(system.doubled_positive):
        raise ValueError("not a root: %r" % (s,))
    tables = weyl_tables(system)
    k = abs(s) - 1
    height, reflections = tables.height, tables.reflections
    prefix: List[int] = []
    while height[k] > 1:
        i = next(i for i, s in enumerate(tables.simple) if height[reflections[s][k] - 1] < height[k])
        prefix.append(i)
        k = reflections[tables.simple[i]][k] - 1
    return tuple(prefix) + (tables.simple.index(k),) + tuple(reversed(prefix))
