"""Slow dense-matrix reference for the Weyl-element code in cayley_lift.

These are the original implementations, on exact Fraction matrices, of the
chain loop, the descent that turns a matrix into a reduced word, and the
breadth-first sweep of the core Weyl group.  The library now does all three
on signed permutations of the positive roots; tests compare the two.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from cayley_lift.cartan import root_type
from cayley_lift.coherent import StabilizerDescription
from cayley_lift.parameters import PairSetParameter, theta
from cayley_lift.root_system import (
    Matrix,
    RootSystem,
    Vector,
    WeylWord,
    identity_matrix,
    mat_apply,
    mat_mul,
    reflection_matrix,
)


def chain_roots(word: Sequence[int], system: RootSystem) -> Tuple[Vector, ...]:
    """beta_k = u(alpha_k), u the product of the letters consumed before."""
    u = identity_matrix(system.dim)
    steps: List[Vector] = []
    for letter in reversed(tuple(word)):
        a = system.simple_roots[letter]
        steps.append(mat_apply(u, a))
        u = mat_mul(u, reflection_matrix(a))
    return tuple(steps)


def chain_steps(p: PairSetParameter, word: Sequence[int], system: RootSystem):
    """(beta_k, tag) pairs, tagged against p's involution matrix."""
    th = theta(p).matrix
    return tuple((beta, root_type(th, beta)) for beta in chain_roots(word, system))


def matrix_descent(m: Matrix, system: RootSystem) -> WeylWord:
    """Reduced word for m: peel off the first simple root m sends negative."""
    ident = identity_matrix(system.dim)
    w = m
    rev: List[int] = []
    guard = len(system.positive_roots) + 1
    while w != ident:
        if guard == 0:
            raise ValueError("matrix is not in the Weyl group")
        guard -= 1
        for i, a in enumerate(system.simple_roots):
            if not system.is_positive(mat_apply(w, a)):
                w = mat_mul(w, reflection_matrix(a))
                rev.append(i)
                break
        else:
            raise ValueError("matrix is not in the Weyl group")
    return tuple(reversed(rev))


def sweep_elements(p: PairSetParameter, st: StabilizerDescription, system: RootSystem):
    """theta-commuting elements of W(core) as matrices, breadth-first order."""
    th = theta(p).matrix
    gens = [reflection_matrix(a) for a in st.complex_core.simple]
    ident = identity_matrix(system.dim)
    seen = {ident}
    frontier = [ident]
    ordered = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = mat_mul(w, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    ordered.append(c)
        frontier = nxt
    return [w for w in ordered if mat_mul(th, w) == mat_mul(w, th)]
