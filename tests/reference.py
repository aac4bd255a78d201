"""Slow exact-Fraction reference for the integer code in cayley_lift.

These are the original implementations, on exact Fraction vectors and
matrices, of the root-system build (the E positive roots picked by one
Gaussian solve per root), the simple-root coefficients, the integral and
half-integral roots at rho/2 (by pairing), the subsystems and their simple
roots (by vector differences), the canonical reflection word (descent on
vectors), the chain loop, the descent that turns a matrix into a reduced
word, the breadth-first sweep of the core Weyl group with the sign test read
off the chain of each element's reduced word, the Cartan involution
theta (-Id times a product of dense reflection matrices), its torus
signature (one Gaussian solve per simple root, then the integer
eigenlattices of sigma = -theta and their index), the stabilizer data (theta
applied as a dense matrix to every integral root), the length and the
Cayley moves (the pair roots, half-integral at rho/2, that the dense theta
negates; the library lists them from make_parameter's slot checks), theta as
a signed permutation of the positive roots (the image of each root looked
up among this module's own roots) and the root tags of a chain.  The
reflection, identity and word matrices and their products are this
module's own; dense products here sum only the nonzero entries of each row.
Two answers of the cartan layer are checked only here, on every group the
library accepts: the order of the center quotient, as the number of
v in GF(2)^n with C v = 0 mod 2 found by trying all 2^n (C the Cartan
matrix of this module's simple roots), and the E6/E7/E8 Cayley-transform
edges, as a fixed table of signature pairs.  The library does
all of this in doubled integer coordinates, on signed permutations of the
positive roots and with one integer dual basis per system; it reads the sign
test from the inversions of a permutation and the signature from a trace and
one rank modulo 2.  Tests compare the two.  The core sweep has no library
counterpart: the library tests the sign only on generators of W(core)^theta,
and tests compare its verdicts with the sweep's.  Neither do the membership
tests for the integral Weyl group and for W(core)^theta (descent on dense
matrices); tests use them to check stored witness words.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from cayley_lift.parameters import PairSetParameter
from cayley_lift.root_system import (
    Matrix,
    RootSystem,
    Vector,
    WeylWord,
    add,
    basis_vector,
    beta_root,
    build_root_system,
    dot,
    neg,
    pairing,
    reflect,
    scale,
    sub,
    vec,
    zero,
)

Subsystem = namedtuple("Subsystem", "roots positive simple")
Stabilizer = namedtuple(
    "Stabilizer", "integral real imaginary complex_core rho_real rho_imaginary"
)


def mat_apply(m: Matrix, v: Vector) -> Vector:
    """m v, summing only the nonzero entries of each row of m."""
    return tuple(sum([x * v[j] for j, x in enumerate(row) if x], Q(0)) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing only the nonzero entries of each row of a."""
    width = range(len(b[0]))
    return tuple(
        tuple(sum([x * b[j][k] for j, x in enumerate(row) if x], Q(0)) for k in width)
        for row in a
    )


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(Q(int(i == j)) for j in range(dim)) for i in range(dim))


@lru_cache(maxsize=None)
def reflection_matrix(alpha: Vector) -> Matrix:
    """s_alpha(x) = x - 2 (alpha, x) / (alpha, alpha) alpha, entry by entry."""
    norm = sum(x * x for x in alpha)
    return tuple(
        tuple(Q(int(i == j)) - 2 * a * b / norm for j, b in enumerate(alpha))
        for i, a in enumerate(alpha)
    )


def word_matrix(word: Sequence[int], system: RootSystem) -> Matrix:
    """The product of the simple reflection matrices, left to right."""
    m = identity_matrix(system.dim)
    for letter in word:
        m = mat_mul(m, reflection_matrix(system.simple_roots[letter]))
    return m


def _solve_in_basis(basis: Sequence[Vector], v: Vector) -> Tuple[Q, ...]:
    """Solve sum_j c_j basis[j] = v exactly (consistent, possibly overdetermined)."""
    dim = len(v)
    k = len(basis)
    rows = [[basis[j][i] for j in range(k)] + [v[i]] for i in range(dim)]
    pivot_cols: List[int] = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, dim):
        if rows[i][k] != 0:
            raise ValueError("vector is not in the span of the basis")
    sol = [Q(0)] * k
    for i, c in enumerate(pivot_cols):
        sol[c] = rows[i][k]
    return tuple(sol)


def _e8_roots() -> List[Vector]:
    roots: List[Vector] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Q(0)] * 8
                    v[i] = Q(si)
                    v[j] = Q(sj)
                    roots.append(tuple(v))
    for signs in range(256):
        v = tuple(Q(1, 2) if (signs >> k) & 1 == 0 else Q(-1, 2) for k in range(8))
        if sum(1 for x in v if x < 0) % 2 == 0:
            roots.append(v)
    return roots


def _in_e_subspace(family: str, v: Vector) -> bool:
    if family == "E8":
        return True
    if family == "E7":
        return v[6] + v[7] == 0
    return v[5] == v[6] == -v[7]


def _e_simple_roots(family: str) -> Tuple[Vector, ...]:
    chain = [
        vec(-1, 1, 0, 0, 0, 0, 0, 0),
        vec(0, -1, 1, 0, 0, 0, 0, 0),
        vec(0, 0, -1, 1, 0, 0, 0, 0),
        vec(0, 0, 0, -1, 1, 0, 0, 0),
        vec(0, 0, 0, 0, -1, 1, 0, 0),
        vec(0, 0, 0, 0, 0, -1, 1, 0),
    ]
    head = (beta_root((2, 3, 4, 5, 6, 7)), vec(1, 1, 0, 0, 0, 0, 0, 0))
    return head + tuple(chain[: int(family[1]) - 2])


@lru_cache(maxsize=None)
def build(family: str, rank: Optional[int] = None) -> Tuple[Tuple[Vector, ...], Tuple[Vector, ...], Vector]:
    """(simple roots, sorted positive roots, rho) as Fraction vectors."""
    if family in ("A", "D"):
        n = rank + 1 if family == "A" else rank
        e = [basis_vector(i, n) for i in range(1, n + 1)]
        simples = tuple(sub(e[i], e[i + 1]) for i in range(n - 1))
        pos = [sub(e[i], e[j]) for i in range(n) for j in range(i + 1, n)]
        if family == "D":
            simples += (add(e[n - 2], e[n - 1]),)
            pos += [add(e[i], e[j]) for i in range(n) for j in range(i + 1, n)]
        positives = tuple(sorted(pos))
    else:
        simples = _e_simple_roots(family)
        members = [v for v in _e8_roots() if _in_e_subspace(family, v)]
        positives = tuple(sorted(
            v for v in members if min(_solve_in_basis(simples, v)) >= 0
        ))
    rho = zero(len(simples[0]))
    for a in positives:
        rho = add(rho, a)
    return simples, positives, scale(Q(1, 2), rho)


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


@lru_cache(maxsize=None)
def coefficient_table(system: RootSystem) -> Dict[Vector, Tuple[Q, ...]]:
    """Simple-root coefficients of every root, one exact solve each."""
    return {root: _solve_in_basis(system.simple_roots, root) for root in all_roots(system)}


def make_subsystem(positive: Iterable[Vector]) -> Subsystem:
    """Positive roots sorted; simple roots are those that are not a member
    plus another member."""
    pos = tuple(sorted(set(positive)))
    roots = tuple(sorted(pos + tuple(neg(a) for a in pos)))
    pos_set = set(pos)
    simple = tuple(a for a in pos if not any(sub(a, b) in pos_set for b in pos if b != a))
    return Subsystem(roots=roots, positive=pos, simple=simple)


@lru_cache(maxsize=None)
def integral_system(lam: Vector, system: RootSystem) -> Subsystem:
    """Roots with integral pairing against lam."""
    return make_subsystem(a for a in system.positive_roots if pairing(lam, a).denominator == 1)


def half_integral_roots(system: RootSystem) -> Tuple[Vector, ...]:
    """Positive roots pairing to Z + 1/2 against rho/2."""
    return tuple(a for a in system.positive_roots if pairing(system.rho_half, a).denominator == 2)


def canonical_reflection_word(alpha: Vector, system: RootSystem) -> WeylWord:
    """Conjugate by the smallest-index simple reflection that lowers the
    height of the (positive) root until it is simple."""
    table = coefficient_table(system)
    cur = alpha if min(table[alpha]) >= 0 else neg(alpha)
    prefix: List[int] = []
    while sum(table[cur]) != 1:
        h = sum(table[cur])
        for i, a in enumerate(system.simple_roots):
            cand = reflect(a, cur)
            if sum(table[cand]) < h:
                prefix.append(i)
                cur = cand
                break
        else:
            raise ValueError("height descent failed")
    core = system.simple_roots.index(cur)
    return tuple(prefix) + (core,) + tuple(reversed(prefix))


@lru_cache(maxsize=None)
def signed_index(family: str, rank: Optional[int] = None) -> Dict[Vector, int]:
    """+-(k+1) for plus and minus the k-th of build's sorted positive roots."""
    _, positives, _ = build(family, rank)
    index = {a: k + 1 for k, a in enumerate(positives)}
    index.update({neg(a): -(k + 1) for k, a in enumerate(positives)})
    return index


def theta_perm(p: PairSetParameter) -> Tuple[int, ...]:
    """p's dense theta as a signed permutation of build's positive roots:
    entry k is the signed index of theta applied to the k-th root."""
    rank = p.rank if p.family in ("A", "D") else None
    _, positives, _ = build(p.family, rank)
    index = signed_index(p.family, rank)
    th = theta(p)
    return tuple(index[mat_apply(th, a)] for a in positives)


def gf2_kernel_count(family: str, rank: Optional[int] = None) -> int:
    """The number of v in GF(2)^n with C v = 0 mod 2, by trying all 2^n,
    for C the Cartan matrix of build's simple roots."""
    simples, _, _ = build(family, rank)
    n = len(simples)
    cartan = [[2 * sum(x * y for x, y in zip(a, b)) / sum(x * x for x in a) for b in simples]
              for a in simples]
    vectors = [[(mask >> j) & 1 for j in range(n)] for mask in range(1 << n)]
    return sum(1 for v in vectors
               if all(sum(c * x for c, x in zip(row, v)) % 2 == 0 for row in cartan))


# Cayley-transform edges between E classes (from more split to less split).
E_HASSE: Dict[str, Tuple[Tuple[Tuple[int, int, int], Tuple[int, int, int]], ...]] = {
    "E6": (
        ((0, 0, 6), (0, 1, 4)),
        ((0, 1, 4), (0, 2, 2)),
        ((0, 2, 2), (0, 3, 0)),
        ((0, 3, 0), (2, 2, 0)),
    ),
    "E7": (
        ((0, 0, 7), (0, 1, 5)),
        ((0, 1, 5), (0, 2, 3)),
        ((0, 2, 3), (0, 3, 1)),
        ((0, 2, 3), (1, 2, 2)),
        ((0, 3, 1), (1, 3, 0)),
        ((1, 2, 2), (1, 3, 0)),
        ((0, 3, 1), (2, 2, 1)),
        ((1, 3, 0), (3, 2, 0)),
        ((2, 2, 1), (3, 2, 0)),
        ((3, 2, 0), (5, 1, 0)),
        ((5, 1, 0), (7, 0, 0)),
    ),
    "E8": (
        ((0, 0, 8), (0, 1, 6)),
        ((0, 1, 6), (0, 2, 4)),
        ((0, 2, 4), (0, 3, 2)),
        ((0, 3, 2), (0, 4, 0)),
        ((0, 3, 2), (2, 2, 2)),
        ((0, 4, 0), (2, 3, 0)),
        ((2, 2, 2), (2, 3, 0)),
        ((2, 3, 0), (4, 2, 0)),
        ((4, 2, 0), (6, 1, 0)),
        ((6, 1, 0), (8, 0, 0)),
    ),
}


def _system(p: PairSetParameter) -> RootSystem:
    return build_root_system(p.family, p.rank if p.family in ("A", "D") else None)


def involution_from_pairs(
    system: RootSystem,
    pairs: Sequence[Tuple[int, int]] = (),
    blocks: Sequence[Tuple[int, ...]] = (),
) -> Matrix:
    """theta = (-Id) times the reflection matrices named by the pair data:
    e_i - e_j for a pair (i, j), e_i + e_j for (-i, -j), and both for each
    (odd, even) match of a block."""
    dim = system.dim
    e = [basis_vector(i, dim) for i in range(1, dim + 1)]
    m = tuple(tuple(-x for x in row) for row in identity_matrix(dim))
    for a, b in pairs:
        i, j = abs(a) - 1, abs(b) - 1
        root = sub(e[i], e[j]) if a > 0 else add(e[i], e[j])
        m = mat_mul(m, reflection_matrix(root))
    for block in blocks:
        odds = sorted(x for x in block if x % 2 == 1)
        evens = sorted(x for x in block if x % 2 == 0)
        if len(odds) != len(evens):
            raise ValueError("block must balance odd and even slots: %r" % (block,))
        for i, j in zip(odds, evens):
            m = mat_mul(m, reflection_matrix(sub(e[i - 1], e[j - 1])))
            m = mat_mul(m, reflection_matrix(add(e[i - 1], e[j - 1])))
    return m


@lru_cache(maxsize=None)
def theta(p: PairSetParameter) -> Matrix:
    """p's involution as a dense matrix, built once per parameter."""
    return involution_from_pairs(_system(p), pairs=p.pairs, blocks=p.blocks)


def cayley_moves(p: PairSetParameter) -> List[Tuple[int, int]]:
    """The pairs of p's Cayley transforms: every pair root, e_i - e_j for
    (i, j) or e_i + e_j for (-i, -j), that is a root, half-integral at rho/2
    and negated by p's dense involution."""
    system = _system(p)
    roots = set(all_roots(system))
    th = theta(p)
    e = [basis_vector(i, system.dim) for i in range(1, system.dim + 1)]
    out = []
    for i in range(1, system.dim + 1):
        for j in range(i + 1, system.dim + 1):
            for pair, root in (((i, j), sub(e[i - 1], e[j - 1])),
                               ((-i, -j), add(e[i - 1], e[j - 1]))):
                if (root in roots and pairing(system.rho_half, root).denominator == 2
                        and mat_apply(th, root) == neg(root)):
                    out.append(pair)
    return out


def integer_kernel_basis(mat: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Basis of the saturated integer kernel {x : mat @ x = 0}.

    Column reduction by unimodular operations; the returned basis spans the
    full lattice of integer solutions.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_sub(dst: int, src: int, q: int) -> None:
        for r in range(rows):
            m[r][dst] -= q * m[r][src]
        for r in range(cols):
            u[r][dst] -= q * u[r][src]

    def col_swap(a: int, b: int) -> None:
        for r in range(rows):
            m[r][a], m[r][b] = m[r][b], m[r][a]
        for r in range(cols):
            u[r][a], u[r][b] = u[r][b], u[r][a]

    frontier = 0
    for r in range(rows):
        live = [c for c in range(frontier, cols) if m[r][c] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(m[r][c]))
            small, big = live[0], live[1]
            q = m[r][big] // m[r][small]
            col_sub(big, small, q)
            live = [c for c in live if m[r][c] != 0]
        if live:
            col_swap(frontier, live[0])
            frontier += 1
    return [tuple(u[r][c] for r in range(cols)) for c in range(frontier, cols)]


def gf2_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank modulo 2 of the vectors."""
    basis: List[int] = []
    for v in vectors:
        word = 0
        for i, x in enumerate(v):
            if x % 2:
                word |= 1 << i
        for b in basis:
            word = min(word, word ^ b)
        if word:
            basis.append(word)
    return len(basis)


def signature(system: RootSystem, th: Matrix) -> Tuple[int, int, int]:
    """(compact, complex, split) torus signature of the involution matrix th:
    sigma = -th on the simple roots, one exact solve each, then the
    saturated integer eigenlattices L+ and L- of sigma; the number of complex
    pairs is m = log2 [L : L+ (+) L-], the corank of their bases modulo 2."""
    n = system.rank
    cols = [_solve_in_basis(system.simple_roots, neg(mat_apply(th, a))) for a in system.simple_roots]
    if any(c.denominator != 1 for col in cols for c in col):
        raise ValueError("sigma does not preserve the root lattice")
    t = [[int(cols[j][i]) - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    k_plus = integer_kernel_basis(t)
    for i in range(n):
        t[i][i] += 2
    k_minus = integer_kernel_basis(t)
    m = n - gf2_rank(list(k_plus) + list(k_minus))
    return (len(k_minus) - m, m, len(k_plus) - m)


def stabilizer(p: PairSetParameter) -> Stabilizer:
    """Real and imaginary integral roots by applying theta's matrix."""
    system = _system(p)
    th = theta(p)
    integral = integral_system(system.rho_half, system)
    images = [(a, mat_apply(th, a)) for a in integral.positive]
    real_pos = [a for a, image in images if image == neg(a)]
    imag_pos = [a for a, image in images if image == a]
    rho_r = scale(Q(1, 2), _vector_sum(real_pos, system.dim))
    rho_i = scale(Q(1, 2), _vector_sum(imag_pos, system.dim))
    core_pos = [
        a for a in integral.positive
        if dot(a, rho_r) == 0 and dot(a, rho_i) == 0
    ]
    return Stabilizer(
        integral=integral,
        real=make_subsystem(real_pos),
        imaginary=make_subsystem(imag_pos),
        complex_core=make_subsystem(core_pos),
        rho_real=rho_r,
        rho_imaginary=rho_i,
    )


def _vector_sum(vectors, dim: int) -> Vector:
    out = zero(dim)
    for v in vectors:
        out = add(out, v)
    return out


def length(p: PairSetParameter) -> Q:
    """Half the positive roots that theta's matrix sends negative, plus half
    the real rank of the Cartan subgroup."""
    system = _system(p)
    th = theta(p)
    flips = sum(1 for a in system.positive_roots if not system.is_positive(mat_apply(th, a)))
    r, m, s = signature(system, th)
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


def root_type(th: Matrix, alpha: Vector) -> str:
    """"im" if th fixes alpha, "real" if th negates it, "cx" otherwise."""
    image = mat_apply(th, alpha)
    return "im" if image == alpha else "real" if image == neg(alpha) else "cx"


def chain_steps(p: PairSetParameter, word: Sequence[int], system: RootSystem):
    """(beta_k, tag) pairs, tagged against p's involution matrix."""
    th = theta(p)
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


def in_reflection_subgroup(m: Matrix, sub, system: RootSystem) -> bool:
    """Membership in the reflection subgroup of a root subsystem, by descent."""
    ident = identity_matrix(system.dim)
    negatives = frozenset(neg(a) for a in sub.positive)
    w = m
    for _ in range(len(sub.positive) + 1):
        if w == ident:
            return True
        beta = next((b for b in sub.positive if mat_apply(w, b) in negatives), None)
        if beta is None:
            return False
        w = mat_mul(w, reflection_matrix(beta))
    return w == ident


def in_integral_weyl_group(p: PairSetParameter, word: Sequence[int]) -> bool:
    """Whether the word's element lies in the integral Weyl group at rho/2."""
    system = _system(p)
    return in_reflection_subgroup(word_matrix(tuple(word), system), stabilizer(p).integral, system)


def is_complex_fixed_member(p: PairSetParameter, word: Sequence[int]) -> bool:
    """Whether the word's element lies in W(core)^theta.

    The element must commute with theta, fix rho_real and rho_imaginary
    pointwise, and lie in the integral Weyl group; fixing both dominant
    vectors inside the integral group forces membership in the core.
    """
    system = _system(p)
    st = stabilizer(p)
    w = word_matrix(tuple(word), system)
    th = theta(p)
    if mat_mul(th, w) != mat_mul(w, th):
        return False
    if mat_apply(w, st.rho_real) != st.rho_real:
        return False
    if mat_apply(w, st.rho_imaginary) != st.rho_imaginary:
        return False
    return in_reflection_subgroup(w, st.integral, system)


def sweep_elements(p: PairSetParameter, st: Stabilizer, system: RootSystem):
    """theta-commuting elements of W(core) as matrices, breadth-first order."""
    th = theta(p)
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


def violates(p: PairSetParameter, m: Matrix, system: RootSystem) -> bool:
    """Whether epsilon != det for m: the parity of the imaginary chain roots
    of m's reduced word against the parity of its length."""
    word = matrix_descent(m, system)
    imaginary = sum(1 for _, tag in chain_steps(p, word, system) if tag == "im")
    return imaginary % 2 != len(word) % 2


def rule_out(p: PairSetParameter) -> Tuple[str, str]:
    """(verdict, method) of the sign test by the dense sweep: a real integral
    root rules p out; otherwise each imaginary integral reflection and each
    theta-commuting element of W(core) is tested."""
    system = _system(p)
    st = stabilizer(p)
    if st.real.positive:
        return "ruled_out", "real_reflection"
    elements = [reflection_matrix(a) for a in st.imaginary.positive]
    if any(violates(p, m, system) for m in elements + sweep_elements(p, st, system)):
        return "ruled_out", "complex_search"
    return "survives", "full_sweep"
