"""Slow exact-Fraction reference for the integer code in cayley_lift.

These are the original implementations, on exact Fraction vectors and
matrices, of the chain loop, the descent that turns a matrix into a reduced
word, the breadth-first sweep of the core Weyl group, the positive roots
and simple-root coefficients (one Gaussian solve per root) and the length
(theta applied as a dense matrix to every positive root).  The library now
does the first three on signed permutations of the positive roots and the
last two with one integer dual basis per system and theta's signed
permutation; tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

from cayley_lift.cartan import root_type, signature_from_involution
from cayley_lift.coherent import StabilizerDescription
from cayley_lift.parameters import PairSetParameter, theta
from cayley_lift.root_system import (
    Matrix,
    RootSystem,
    Vector,
    WeylWord,
    _e8_roots,
    _in_e_subspace,
    _solve_in_basis,
    add,
    basis_vector,
    build_root_system,
    identity_matrix,
    mat_apply,
    mat_mul,
    neg,
    reflection_matrix,
    sub,
)


def all_roots(system: RootSystem) -> List[Vector]:
    """Every root of the system, listed from the classification."""
    n = system.dim
    e = [basis_vector(i, n) for i in range(1, n + 1)]
    if system.family == "A":
        return [sub(e[i], e[j]) for i in range(n) for j in range(n) if i != j]
    if system.family == "D":
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                for v in (add(e[i], e[j]), sub(e[i], e[j])):
                    out += [v, neg(v)]
        return out
    return [v for v in _e8_roots() if _in_e_subspace(system.family, v)]


def positive_roots(system: RootSystem) -> Tuple[Vector, ...]:
    """The roots whose simple coefficients, one exact solve each, are all >= 0."""
    return tuple(sorted(
        v for v in all_roots(system) if min(_solve_in_basis(system.simple_roots, v)) >= 0
    ))


def coefficient_table(system: RootSystem) -> Dict[Vector, Tuple[Q, ...]]:
    """Simple-root coefficients of every root, one exact solve each."""
    return {root: _solve_in_basis(system.simple_roots, root) for root in system.roots}


def length(p: PairSetParameter) -> Q:
    """Half the positive roots that theta's matrix sends negative, plus half
    the real rank of the Cartan subgroup."""
    system = build_root_system(p.family, p.rank if p.family in ("A", "D") else None)
    th = theta(p)
    flips = sum(1 for a in system.positive_roots if not system.is_positive(th.apply(a)))
    r, m, s = signature_from_involution(system, th)
    return Q(flips, 2) + Q(m + s, 2)


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
