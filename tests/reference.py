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
reflection, identity and word matrices and their products, and the Fraction
vector helpers (difference, multiple, dot product, basis vector, pairing,
reflection), are this module's own; dense products here sum only the
nonzero entries of each row.
Two answers of the cartan layer are checked only here, on every group the
library accepts: the order of the center quotient, as the number of
v in GF(2)^n with C v = 0 mod 2 found by trying all 2^n (C the Cartan
matrix of this module's simple roots), and the E6/E7/E8 Cayley-transform
edges, as a fixed table of signature pairs.  The library does
all of this in doubled integer coordinates, on signed permutations of the
positive roots and with one integer closure of the simple roots per system
(positive_coefficients), with no basis solve; it reads the sign
test from the inversions of a permutation and the signature from a trace and
one rank modulo 2.  Tests compare the two.  The core sweep has no library
counterpart: the library tests the sign only on generators of W(core)^theta,
and tests compare its verdicts with the sweep's.  The Schreier generators of
W(core)^theta, which the library streamed and tested one by one before it
labelled theta's orbit with parities, are here, on this module's own
signed-permutation product, inverse and descent and its own table of every
reflection (reflection_table, each from Fraction coordinates); tests
compare the library's verdict, method and certificate word with the first
generator that violates the sign test, the imaginary integral reflections,
which the library does not test, included.  Neither do the membership
tests for the integral Weyl group and for W(core)^theta (descent on dense
matrices); tests use them to check stored witness words.  Nor does the
W-conjugacy class of theta for A and D: theta on the ambient coordinates
as a signed permutation, built from the pair data, and its W-orbit by
breadth-first search over the simple reflections' action on the
coordinates, whose least element is the orbit's canonical form; tests
compare the library's class map with these orbits and the class count
with Carter's count of involution classes.
The command-line parser the CLI had before its flag table, built with
argparse, is here too: tests run both parsers on the same command lines.
So are the helpers that only the tests call: Fraction vectors from numbers
or strings, the half-integer E8 roots, the word and chain of a reflection
(checked on dense matrices), random rewrites of a word by identity moves,
the full A/D block poset with its gamma* row check, one tower's Zuckerman
sum, tower scope as membership of the chi = 0 tower poset (the library
reads it off the R_D pairs; tests compare the two), the pseudospherical
parameters, the split length, a parameter read
back from JSON, and the library's rule_out report for every class.
"""

from __future__ import annotations

import argparse
from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from cayley_lift import coherent
from cayley_lift.center import genuine_central_character_count
from cayley_lift.cli_help import EPILOG
from cayley_lift.klv_poset import (
    M_entry,
    ParameterPoset,
    m_entry,
    parameter_sort_key,
    rd_subsets,
    tower_poset,
    tower_terms,
)
from cayley_lift.cayley_graph import enumerate_block
from cayley_lift.lifting import FormalIntegerCombination
from cayley_lift.parameters import (
    PairSetParameter,
    make_parameter,
    orbit_representatives,
)
from cayley_lift.root_system import (
    Matrix,
    RootSystem,
    SignedPerm,
    Vector,
    WeylWord,
    WordError,
    build_root_system,
    neg,
)

Subsystem = namedtuple("Subsystem", "roots positive simple")
Chain = namedtuple("Chain", "word steps")
ReflectionTable = namedtuple("ReflectionTable", "simple reflections identity")
Stabilizer = namedtuple(
    "Stabilizer", "integral real imaginary complex_core rho_real rho_imaginary"
)


def vec(*entries) -> Vector:
    return tuple(Q(x) for x in entries)


def vector_from_strings(parts: Sequence[str]) -> Vector:
    return tuple(Q(p) for p in parts)


def add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def scale(c: Q, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def dot(x: Vector, y: Vector) -> Q:
    return sum([a * b for a, b in zip(x, y)], Q(0))


def basis_vector(i: int, dim: int) -> Vector:
    """The standard basis vector e_i (1-based index)."""
    return tuple(Q(int(k == i - 1)) for k in range(dim))


def pairing(lam: Vector, alpha: Vector) -> Q:
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha)."""
    return 2 * dot(lam, alpha) / dot(alpha, alpha)


def reflect(alpha: Vector, v: Vector) -> Vector:
    """v reflected in the hyperplane orthogonal to alpha."""
    return sub(v, scale(pairing(v, alpha), alpha))


def zero(dim: int) -> Vector:
    return (Q(0),) * dim


def beta_root(minus_positions: Iterable[int]) -> Vector:
    """Half-integer root with entries -1/2 exactly at the listed positions."""
    minus = set(minus_positions)
    if len(minus) % 2 != 0:
        raise ValueError("a half-integer root needs an even number of minus signs")
    return tuple(Q(-1 if k + 1 in minus else 1, 2) for k in range(8))


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


@lru_cache(maxsize=None)
def word_matrix(word: Tuple[int, ...], system: RootSystem) -> Matrix:
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


@lru_cache(maxsize=None)
def _positive_set(system: RootSystem) -> frozenset:
    """This module's own positive roots of the system, from build."""
    return frozenset(build(system.family, system.rank)[1])


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


def decompose_to_chain(alpha: Vector, system: RootSystem,
                       word: Optional[Sequence[int]] = None) -> Chain:
    """The word and chain roots for s_alpha, from this module's canonical
    word or a supplied one, which must be palindromic, use only simple
    roots of the system and compose to s_alpha (dense matrices)."""
    word = canonical_reflection_word(alpha, system) if word is None else tuple(word)
    if word != word[::-1]:
        raise WordError("word is not palindromic")
    for letter in word:
        if not 0 <= letter < system.rank:
            raise WordError("letter %d out of range" % letter)
    if word_matrix(word, system) != reflection_matrix(alpha):
        raise WordError("word does not compose to the requested reflection")
    return Chain(word, chain_roots(word, system))


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


# ---------------------------------------------------------------------------
# W-conjugacy of theta (A and D), on the ambient coordinates
# ---------------------------------------------------------------------------
# theta and the Weyl group act on the n ambient coordinates by signed
# permutations, held as the images of e_1..e_n: entry k - 1 is c when
# e_k goes to sign(c) e_|c|.  W(A_{n-1}) permutes the coordinates; W(D_n)
# also changes an even number of signs.

def _signed_image(g: Tuple[int, ...], x: int) -> int:
    return g[x - 1] if x > 0 else -g[-x - 1]


def coordinate_theta(p: PairSetParameter) -> Tuple[int, ...]:
    """p's theta on the coordinates: -Id times the reflection in e_i - e_j
    (swap e_i and e_j) for a pair (i, j), in e_i + e_j (e_i to -e_j, e_j to
    -e_i) for (-i, -j), and both for each (odd, even) match of a block."""
    dim = p.rank + 1 if p.family == "A" else p.rank
    planes = [(abs(a), abs(b), a < 0) for a, b in p.pairs]
    for block in p.blocks:
        odds = sorted(x for x in block if x % 2 == 1)
        evens = sorted(x for x in block if x % 2 == 0)
        planes += [(i, j, plus) for i, j in zip(odds, evens) for plus in (False, True)]
    images = tuple(range(1, dim + 1))
    for i, j, plus in planes:
        r = list(range(1, dim + 1))
        r[i - 1], r[j - 1] = (-j, -i) if plus else (j, i)
        images = tuple(_signed_image(r, x) for x in images)
    return tuple(-x for x in images)


def _coordinate_simple_reflections(family: str, dim: int) -> List[Tuple[int, ...]]:
    """The simple reflections of W(A_{dim-1}) or W(D_dim) on the coordinates:
    e_k <-> e_{k+1}, and for D also e_{n-1} -> -e_n, e_n -> -e_{n-1}."""
    gens = []
    for k in range(1, dim):
        g = list(range(1, dim + 1))
        g[k - 1], g[k] = k + 1, k
        gens.append(tuple(g))
    if family == "D":
        g = list(range(1, dim + 1))
        g[dim - 2], g[dim - 1] = -dim, -(dim - 1)
        gens.append(tuple(g))
    return gens


def conjugacy_forms(family: str,
                    thetas: Sequence[Tuple[int, ...]]) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """Every signed permutation W-conjugate to one of thetas, mapped to the
    canonical form of its orbit, the orbit's least element; each orbit is
    found by breadth-first search, conjugating by the simple reflections
    (each its own inverse)."""
    forms: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for t in thetas:
        if t in forms:
            continue
        dim = len(t)
        gens = _coordinate_simple_reflections(family, dim)
        orbit, frontier = {t}, [t]
        while frontier:
            grown = []
            for x in frontier:
                for g in gens:
                    y = tuple(_signed_image(g, _signed_image(x, _signed_image(g, k)))
                              for k in range(1, dim + 1))
                    if y not in orbit:
                        orbit.add(y)
                        grown.append(y)
            frontier = grown
        least = min(orbit)
        forms.update(dict.fromkeys(orbit, least))
    return forms


def involution_class_count(family: str, rank: int) -> int:
    """The number of conjugacy classes of involutions (the identity
    included) in W(A_rank) = S_{rank+1}, by the number of transpositions, or
    in W(D_rank) (Carter 1972): signed cycle types of a positive and b
    negative fixed points and c positive 2-cycles, a + b + 2c = n, b even,
    the type with n = 2c counted twice."""
    if family == "A":
        return (rank + 1) // 2 + 1
    n = rank
    return sum((n - b) // 2 + 1 for b in range(0, n + 1, 2)) + (1 if n % 2 == 0 else 0)


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
    positives = _positive_set(system)
    flips = sum(1 for a in positives if mat_apply(th, a) not in positives)
    r, m, s = signature(system, th)
    return Q(flips, 2) + Q(m + s, 2)


@lru_cache(maxsize=None)
def chain_roots(word: Tuple[int, ...], system: RootSystem) -> Tuple[Vector, ...]:
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
    positives = _positive_set(system)
    w = m
    rev: List[int] = []
    guard = len(positives) + 1
    while w != ident:
        if guard == 0:
            raise ValueError("matrix is not in the Weyl group")
        guard -= 1
        for i, a in enumerate(system.simple_roots):
            if mat_apply(w, a) not in positives:
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


def perm_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """a.b on signed indices, b acting first: k -> a(b(k)), a(-j) = -a(j)."""
    return tuple((1 if j > 0 else -1) * a[abs(j) - 1] for j in b)


def perm_inv(a: SignedPerm) -> SignedPerm:
    """The signed permutation that sends a(k) back to k."""
    back = {abs(j): (k if j > 0 else -k) for k, j in enumerate(a, 1)}
    return tuple(back[k] for k in range(1, len(a) + 1))


@lru_cache(maxsize=None)
def reflection_table(system: RootSystem) -> ReflectionTable:
    """Every reflection s_a of the system as a signed permutation of build's
    positive roots: s_a(b) = b - (b, a) a on Fraction vectors (every root
    has (a, a) = 2), looked up in this module's own signed index; with the
    0-based position of each simple root among the positive roots, and the
    identity."""
    rank = system.rank if system.family in ("A", "D") else None
    simples, positives, _ = build(system.family, rank)
    index = signed_index(system.family, rank)

    def image(a: Vector, b: Vector) -> int:
        c = dot(b, a)
        return index[sub(b, scale(c, a)) if c else b]

    return ReflectionTable(
        simple=tuple(index[a] - 1 for a in simples),
        reflections=tuple(tuple(image(a, b) for b in positives) for a in positives),
        identity=tuple(range(1, len(positives) + 1)),
    )


def perm_descent(w: SignedPerm, table: ReflectionTable) -> WeylWord:
    """Reduced word of w: peel off, on the right, the first simple root
    that w sends negative."""
    rev: List[int] = []
    while w != table.identity:
        i = next(i for i, k in enumerate(table.simple) if w[k] < 0)
        w = perm_mul(w, table.reflections[table.simple[i]])
        rev.append(i)
    return tuple(reversed(rev))


def perm_violates(w: SignedPerm, th: SignedPerm) -> bool:
    """Whether an odd number of the positive roots that w sends negative are
    not fixed by th."""
    return sum(1 for k, j in enumerate(w) if j < 0 and th[k] != k + 1) % 2 == 1


def schreier_generators(st: coherent.StabilizerDescription, th: SignedPerm,
                        table: ReflectionTable) -> Iterator[SignedPerm]:
    """Generators of W(core)^theta, lazily, by Schreier's lemma.

    A breadth-first search over the W(core)-conjugates x = u theta u^-1,
    with steps x -> g x g for the core simple reflections g, keeps one u_x
    per conjugate; each edge from x to an already known y gives the
    generator u_y^-1 g u_x of theta's stabilizer.  The same edge read from
    y gives its inverse, so an edge is read only from the endpoint found
    first, and an edge whose generator is the identity (u_y = g u_x, as on
    every tree edge) yields nothing.
    """
    gens = [table.reflections[k] for k in st.complex_core.simple_index]
    transversal = {th: (0, table.identity)}  # conjugate -> (discovery index, u)
    frontier = [th]
    while frontier:
        nxt = []
        for x in frontier:
            found, u = transversal[x]
            for g in gens:
                y = perm_mul(perm_mul(g, x), g)
                gu = perm_mul(g, u)
                known = transversal.get(y)
                if known is None:
                    transversal[y] = (len(transversal), gu)
                    nxt.append(y)
                elif known[0] >= found and known[1] != gu:
                    yield perm_mul(perm_inv(known[1]), gu)
        frontier = nxt


def _act(w: SignedPerm, j: int) -> int:
    """The image under w of the root with signed index j."""
    return w[j - 1] if j > 0 else -w[-j - 1]


def schreier_sims_order(gens: Sequence[SignedPerm], identity: SignedPerm) -> int:
    """|<gens>|, by a deterministic Schreier-Sims on the 2N signed roots
    (Sims 1970; Seress, Permutation Group Algorithms, ch. 4).

    Each level of the stabilizer chain holds a base root b, the strong
    generators that fix the base roots above it, and a transversal
    {c: u with u(b) = c} of b's orbit.  A residue that does not sift to the
    identity joins the strong generators of the levels between the one
    whose Schreier generator gave it and the one where it dropped out, and
    the check restarts there; the first moved root of a residue that
    sifts through every level becomes a new base root.  When every
    Schreier generator u_{s(c)}^-1 s u_c of every level sifts through the
    levels below it, the orbit lengths multiply to the order.
    """
    levels: List[Tuple[int, List[SignedPerm], Dict[int, SignedPerm], set]] = []

    def strip(g: SignedPerm, start: int) -> Tuple[SignedPerm, int]:
        for i in range(start, len(levels)):
            u = levels[i][2].get(_act(g, levels[i][0]))
            if u is None:
                return g, i
            g = perm_mul(perm_inv(u), g)
        return g, len(levels)

    def add(g: SignedPerm, first: int, last: int) -> None:
        if last == len(levels):
            b = next(k for k, j in enumerate(g, 1) if j != k)
            levels.append((b, [], {b: identity}, set()))
        for level in levels[first:last + 1]:
            level[1].append(g)

    for g in gens:
        residue, j = strip(g, 0)
        if residue != identity:
            add(residue, 0, j)
    i = len(levels) - 1
    while i >= 0:
        _, strong, transversal, checked = levels[i]
        orbit = list(transversal)
        for c in orbit:  # close the orbit under the strong generators
            for s in strong:
                d = _act(s, c)
                if d not in transversal:
                    transversal[d] = perm_mul(s, transversal[c])
                    orbit.append(d)
        found = None
        for c in orbit:
            for n, s in enumerate(strong):
                if (c, n) in checked:
                    continue
                checked.add((c, n))
                h = perm_mul(perm_inv(transversal[_act(s, c)]), perm_mul(s, transversal[c]))
                residue, j = strip(h, i + 1)
                if residue != identity:
                    found = residue, j
                    break
            if found:
                break
        if found:
            add(found[0], i + 1, found[1])
            i = found[1]
        else:
            i -= 1
    order = 1
    for _, _, transversal, _ in levels:
        order *= len(transversal)
    return order


def generator_rule_out(p: PairSetParameter) -> Tuple[str, str, Optional[WeylWord]]:
    """(verdict, method, certificate word) of the sign test on generators of
    the stabilizer, each tested by its inversions against this module's
    theta_perm: a real integral reflection, the imaginary integral
    reflections, then the Schreier generators.  The first that violates
    gives the word: its reflection's canonical word, or its descent."""
    system = _system(p)
    st = coherent.stabilizer(p)
    table = reflection_table(system)
    th = theta_perm(p)
    if st.real.positive_index:
        alpha = system.positive_roots[st.real.positive_index[0]]
        return "ruled_out", "real_reflection", canonical_reflection_word(alpha, system)
    for k in st.imaginary.positive_index:
        if perm_violates(table.reflections[k], th):
            alpha = system.positive_roots[k]
            return "ruled_out", "complex_search", canonical_reflection_word(alpha, system)
    for w in schreier_generators(st, th, table):
        if perm_violates(w, th):
            return "ruled_out", "complex_search", perm_descent(w, table)
    return "survives", "full_sweep", None


# ---------------------------------------------------------------------------
# Helpers that only the tests call, kept out of the library
# ---------------------------------------------------------------------------

def _braid_order(system: RootSystem, i: int, j: int) -> int:
    return 2 if dot(system.simple_roots[i], system.simple_roots[j]) == 0 else 3  # simply laced


def random_equivalent_word(
    system: RootSystem, word: Sequence[int], rng, moves: int = 20
) -> WeylWord:
    """Rewrite a word by random identity moves; the element is unchanged."""
    w = list(word)
    for _ in range(moves):
        choice = rng.randrange(3)
        if choice == 0:  # insert s_i s_i
            i = rng.randrange(system.rank)
            pos = rng.randrange(len(w) + 1)
            w[pos:pos] = [i, i]
        elif choice == 1:  # delete an adjacent equal pair
            spots = [k for k in range(len(w) - 1) if w[k] == w[k + 1]]
            if spots:
                k = rng.choice(spots)
                del w[k : k + 2]
        else:  # braid move
            spots2 = [
                k for k in range(len(w) - 1)
                if w[k] != w[k + 1] and _braid_order(system, w[k], w[k + 1]) == 2
            ]
            spots3 = [
                k for k in range(len(w) - 2)
                if w[k] == w[k + 2] and w[k] != w[k + 1]
                and _braid_order(system, w[k], w[k + 1]) == 3
            ]
            pool = [("2", k) for k in spots2] + [("3", k) for k in spots3]
            if pool:
                kind, k = rng.choice(pool)
                if kind == "2":
                    w[k], w[k + 1] = w[k + 1], w[k]
                else:
                    i, j = w[k], w[k + 1]
                    w[k : k + 3] = [j, i, j]
    return tuple(w)


def survey(family: str, rank: Optional[int] = None):
    """The library's rule_out report for each orbit representative."""
    return tuple(coherent.rule_out(rep) for _, rep in orbit_representatives(family, rank))


def block_poset(family: str, rank: int, chi: int = 0) -> ParameterPoset:
    """The full Cayley-transform block through gamma(empty) (families A, D)."""
    params = enumerate_block(family, rank, chi)
    return ParameterPoset(family, params[0].rank, chi, tuple(sorted(params, key=parameter_sort_key)))


def gamma_star_row_check(poset: ParameterPoset, gamma_star: PairSetParameter) -> bool:
    """The M-row of a maximal parameter inverts m on an arbitrary block."""
    for g in poset.elements:
        expect = 1 if g == gamma_star else 0
        total = sum(
            M_entry(gamma_star, d) * m_entry(d, g) for d in poset.elements
        )
        if total != expect:
            return False
    return True


def zuckerman_restricted(
    family: str, rank: Optional[int], chi: int, subset_index: int = -1
) -> FormalIntegerCombination:
    """The alternating sum over one tower: coefficient (-1)^(number of pairs).

    subset_index selects among rd_subsets(family, rank); the default takes
    the last (the full tower for groups with a single nonempty S).
    """
    subset = rd_subsets(family, rank)[subset_index]
    return FormalIntegerCombination.from_pairs(
        (p, sign) for sign, p in tower_terms(family, rank, chi, subset))


@lru_cache(maxsize=None)
def _tower_shapes(family: str, rank: int) -> frozenset:
    return frozenset((p.blocks, p.pairs) for p in tower_poset(family, rank, 0).elements)


def in_tower_scope(p: PairSetParameter) -> bool:
    """Whether p's blocks and pairs are those of an element of the chi = 0
    tower poset: the library's definition before it read the R_D pairs."""
    return (p.blocks, p.pairs) in _tower_shapes(p.family, p.rank)


def pseudospherical_params(family: str, rank: Optional[int] = None) -> Tuple[PairSetParameter, ...]:
    """The pseudospherical parameters gamma(empty), one per central character."""
    family_rank = rank if family in ("A", "D") else None
    lie_rank = len(build(family, family_rank)[0])
    return tuple(make_parameter(family, lie_rank, chi=c)
                 for c in range(genuine_central_character_count(family, family_rank)))


def split_length(family: str, rank: Optional[int] = None) -> int:
    """The length of the split Cartan's parameters, doubled: the number of
    positive roots plus the rank."""
    simples, positives, _ = build(family, rank if family in ("A", "D") else None)
    return len(positives) + len(simples)


def parameter_from_json(data: dict) -> PairSetParameter:
    return make_parameter(
        data["family"],
        data["rank"] if data["family"] in ("A", "D") else int(data["family"][1]),
        chi=data.get("central_char", 0),
        blocks=[tuple(b) for b in data.get("blocks", ())],
        pairs=[tuple(q) for q in data.get("pairs", ())],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-lift",
        description="Genuine small representations of nonlinear double covers "
        "at infinitesimal character rho/2: exact combinatorial data.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, family: bool = True, chi: bool = False,
            wid: bool = False):
        cmd = sub.add_parser(name, help=help_text, epilog=EPILOG,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        if family:
            cmd.add_argument("--family", choices=("A", "D", "E6", "E7", "E8"),
                             required=True)
            cmd.add_argument("--rank", type=int, default=None,
                             help="SL(N) for family A, Spin(N,N) for family D; "
                             "not accepted for E families")
        if chi:
            cmd.add_argument("--chi", type=int, default=None,
                             help="restrict to one genuine central character")
        if wid:
            cmd.add_argument("--id", required=True, dest="witness_id",
                             help="stored witness identifier, e.g. E7-320")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument("--no-header", action="store_true")
        return cmd

    add("roots", "root system, rho/2, and its integral subsystem")
    add("cartans", "Cartan classes, torus shapes, and the Cayley diagram")
    add("centers", "center of the cover and its genuine quotient")
    add("params", "orbit representatives with class, shape, and length", chi=True)
    add("count-small", "number of genuine small representations")
    add("replay-witness", "recompute a stored sign-test witness chain",
        family=False, wid=True)
    add("klv-check", "verify the closed-form change-of-basis inversion", chi=True)
    add("lift", "lift of the trivial representation", chi=True)
    add("verify", "whole-family check: lift support, coefficients, count")
    return parser
