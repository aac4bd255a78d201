"""Simply-laced root systems in exact rational coordinates.

Families: A (ambient n coordinates, roots e_i - e_j), D (roots +-e_i +- e_j),
and E6/E7/E8 realized inside an 8-dimensional ambient space.  Vectors hold
fractions.Fraction entries; the Weyl group tables and simple-root
coefficients are computed in doubled integer coordinates.  There is no
floating point anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]
WeylWord = Tuple[int, ...]  # 0-based indices into a system's simple roots

FAMILIES = ("A", "D", "E6", "E7", "E8")

# Desk-scale caps: ambient coordinates for A (SL(n)), rank n for D.
MAX_A_AMBIENT = 10
MAX_D_RANK = 8


class ScopeError(ValueError):
    """Requested computation is outside the supported desk-scale range."""


class WordError(ValueError):
    """A Weyl word failed validation."""


class InvariantError(AssertionError):
    """An internal consistency check failed: a defect, not a bad request."""


class CertificateError(ValueError):
    """A replayed certificate diverged from its stored golden data."""


def vec(*entries) -> Vector:
    return tuple(Q(x) for x in entries)


def dot(x: Vector, y: Vector) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch: %d vs %d" % (len(x), len(y)))
    return sum((a * b for a, b in zip(x, y)), Q(0))


def add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def scale(c: Q, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def zero(dim: int) -> Vector:
    return (Q(0),) * dim


def basis_vector(i: int, dim: int) -> Vector:
    """Standard basis vector e_i (1-based index)."""
    return tuple(Q(1) if k == i - 1 else Q(0) for k in range(dim))


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
# Matrices (dense, exact), for reflections and words.  Involutions are
# signed permutations of the coordinates (cartan.Involution).
# ---------------------------------------------------------------------------

def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(dim)) for i in range(dim))


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


# ---------------------------------------------------------------------------
# Root system construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSystem:
    """A root system with the fixed simple system used throughout."""

    family: str
    rank: int            # Lie rank
    dim: int             # ambient coordinates
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    rho: Vector

    @property
    def roots(self) -> Tuple[Vector, ...]:
        return _all_roots(self)

    @property
    def rho_half(self) -> Vector:
        return scale(Q(1, 2), self.rho)

    def is_root(self, v: Vector) -> bool:
        return v in _root_set(self)

    def is_positive(self, v: Vector) -> bool:
        return v in _positive_set(self)

    def simple_coefficients(self, v: Vector) -> Tuple[Q, ...]:
        """Coordinates of v in the simple-root basis (exact solve)."""
        coeffs = _coefficient_table(self).get(v)
        if coeffs is not None:
            return coeffs
        return _solve_in_basis(self.simple_roots, v)

    def height(self, root: Vector) -> Q:
        return sum(self.simple_coefficients(root), Q(0))

    def __hash__(self) -> int:  # computed once: the lru_caches below are keyed on the system
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.family, self.rank, self.simple_roots, self.positive_roots, self.rho))


@lru_cache(maxsize=None)
def _root_set(system: RootSystem) -> frozenset:
    return frozenset(_all_roots(system))


@lru_cache(maxsize=None)
def _positive_set(system: RootSystem) -> frozenset:
    return frozenset(system.positive_roots)


@lru_cache(maxsize=None)
def _all_roots(system: RootSystem) -> Tuple[Vector, ...]:
    return tuple(sorted(system.positive_roots + tuple(neg(a) for a in system.positive_roots)))


@lru_cache(maxsize=None)
def _coefficient_table(system: RootSystem) -> Dict[Vector, Tuple[Q, ...]]:
    rows, div = _dual_basis(system.simple_roots)
    return {v: tuple(Q(c, div) for c in _scaled_coefficients(rows, v)) for v in _all_roots(system)}


@lru_cache(maxsize=None)
def _dual_basis(simples: Tuple[Vector, ...]) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Rows d*omega_i, integer for the least d, and the divisor 2d, where
    omega_i = sum_k (C^-1)_ik alpha_k (C: the Gram = Cartan matrix) pairs to
    delta_ij with alpha_j: v in the span has coefficients (2v . d*omega_i) / 2d.
    """
    r = len(simples)
    gram = [tuple(dot(a, b) for b in simples) for a in simples]  # symmetric
    columns = tuple(zip(*simples))
    omegas = [mat_apply(columns, _solve_in_basis(gram, basis_vector(i + 1, r))) for i in range(r)]
    d = lcm(*(x.denominator for omega in omegas for x in omega))
    return tuple(tuple(int(d * x) for x in omega) for omega in omegas), 2 * d


def _scaled_coefficients(rows: Sequence[Tuple[int, ...]], v: Vector) -> Tuple[int, ...]:
    """2d times the simple-root coefficients of v, for (rows, 2d) = _dual_basis."""
    doubled = tuple(int(2 * x) for x in v)  # integers for v in (1/2)Z^n
    return tuple(sum(x * y for x, y in zip(row, doubled)) for row in rows)


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


def beta_root(minus_positions: Iterable[int]) -> Vector:
    """Half-integer root with entries -1/2 exactly at the listed positions."""
    minus = set(minus_positions)
    v = tuple(Q(-1, 2) if k + 1 in minus else Q(1, 2) for k in range(8))
    if len(minus) % 2 != 0:
        raise ValueError("a half-integer root needs an even number of minus signs")
    return v


_E_SIMPLES: Dict[str, Tuple[Vector, ...]] = {}


def _e_simple_roots(family: str) -> Tuple[Vector, ...]:
    if not _E_SIMPLES:
        a1 = beta_root((2, 3, 4, 5, 6, 7))
        a2 = vec(1, 1, 0, 0, 0, 0, 0, 0)
        chain = [
            vec(-1, 1, 0, 0, 0, 0, 0, 0),
            vec(0, -1, 1, 0, 0, 0, 0, 0),
            vec(0, 0, -1, 1, 0, 0, 0, 0),
            vec(0, 0, 0, -1, 1, 0, 0, 0),
            vec(0, 0, 0, 0, -1, 1, 0, 0),
            vec(0, 0, 0, 0, 0, -1, 1, 0),
        ]
        _E_SIMPLES["E6"] = (a1, a2) + tuple(chain[:4])
        _E_SIMPLES["E7"] = (a1, a2) + tuple(chain[:5])
        _E_SIMPLES["E8"] = (a1, a2) + tuple(chain[:6])
    return _E_SIMPLES[family]


def _in_e_subspace(family: str, v: Vector) -> bool:
    if family == "E8":
        return True
    if family == "E7":
        return v[6] + v[7] == 0
    return v[5] == v[6] == -v[7]


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: Optional[int] = None) -> RootSystem:
    """Construct the root system with the fixed simple system.

    For family "A", rank is the Lie rank (ambient n = rank + 1 coordinates,
    i.e. SL(n)); for "D", rank n; E6/E7/E8 take no rank argument.
    """
    if family == "A":
        if rank is None or rank < 1:
            raise ScopeError("family A needs a rank >= 1")
        n = rank + 1
        if n > MAX_A_AMBIENT:
            raise ScopeError("family A supported up to SL(%d)" % MAX_A_AMBIENT)
        simples = tuple(
            sub(basis_vector(i, n), basis_vector(i + 1, n)) for i in range(1, n)
        )
        positives = tuple(
            sorted(
                sub(basis_vector(i, n), basis_vector(j, n))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
        )
    elif family == "D":
        if rank is None or rank < 3:
            raise ScopeError("family D needs a rank >= 3")
        n = rank
        if n > MAX_D_RANK:
            raise ScopeError("family D supported up to rank %d" % MAX_D_RANK)
        simples = tuple(
            sub(basis_vector(i, n), basis_vector(i + 1, n)) for i in range(1, n)
        ) + (add(basis_vector(n - 1, n), basis_vector(n, n)),)
        pos: List[Vector] = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                pos.append(sub(basis_vector(i, n), basis_vector(j, n)))
                pos.append(add(basis_vector(i, n), basis_vector(j, n)))
        positives = tuple(sorted(pos))
    elif family in ("E6", "E7", "E8"):
        if rank is not None and rank != int(family[1]):
            raise ScopeError("rank of %s is fixed" % family)
        simples = _e_simple_roots(family)
        rows, _ = _dual_basis(simples)
        members = [v for v in _e8_roots() if _in_e_subspace(family, v)]
        positives = tuple(sorted(v for v in members if min(_scaled_coefficients(rows, v)) >= 0))
        expected = {"E6": 36, "E7": 63, "E8": 120}[family]
        if len(positives) != expected or 2 * len(positives) != len(members):
            raise InvariantError("positive system extraction failed for %s" % family)
    else:
        raise ScopeError("unknown family %r" % (family,))

    rho = zero(len(simples[0]))
    for a in positives:
        rho = add(rho, a)
    rho = scale(Q(1, 2), rho)
    return RootSystem(
        family=family,
        rank=len(simples),
        dim=len(simples[0]),
        simple_roots=simples,
        positive_roots=positives,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# Integral and half-integral subsystems at a weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSubsystem:
    """A reflection-closed set of roots with its positive and simple parts."""

    roots: Tuple[Vector, ...]
    positive: Tuple[Vector, ...]
    simple: Tuple[Vector, ...]


def make_subsystem(positive: Iterable[Vector]) -> RootSubsystem:
    pos = tuple(sorted(set(positive)))
    roots = tuple(sorted(pos + tuple(neg(a) for a in pos)))
    pos_set = set(pos)
    simple = []
    for a in pos:
        decomposable = any(
            sub(a, b) in pos_set for b in pos if b != a
        )
        if not decomposable:
            simple.append(a)
    return RootSubsystem(roots=roots, positive=pos, simple=tuple(simple))


@lru_cache(maxsize=None)
def integral_system(lam: Vector, system: RootSystem) -> RootSubsystem:
    """Roots with integral pairing against lam, with positives and simples."""
    pos = [a for a in system.positive_roots if pairing(lam, a).denominator == 1]
    return make_subsystem(pos)


def half_integral_roots(system: RootSystem) -> Tuple[Vector, ...]:
    """Positive roots pairing to Z + 1/2 against rho/2."""
    lam = system.rho_half
    out = []
    for a in system.positive_roots:
        t = pairing(lam, a)
        if t.denominator == 2:
            out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# Weyl group elements as signed permutations of the positive roots
# ---------------------------------------------------------------------------
# w[k] = +-(j+1) means w maps positive root k to +-(positive root j).  W acts
# faithfully on its roots, and every involution theta here permutes them, so
# this one representation serves every family.

SignedPerm = Tuple[int, ...]


def perm_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """The product a.b of two signed permutations (b acts first)."""
    return tuple([a[j - 1] if j > 0 else -a[-j - 1] for j in b])


@dataclass(frozen=True)
class WeylTables:
    """Integer tables for the action of W on a system's positive roots."""

    positive: Tuple[Vector, ...]            # positive root k
    doubled: Tuple[Tuple[int, ...], ...]    # 2 * positive root k, in integers
    negative: Tuple[Vector, ...]            # its negative
    index: Dict[Tuple[int, ...], int]       # doubled root 2v -> +-(k+1)
    simple: Tuple[int, ...]                 # positive-root index of each simple root
    reflections: Tuple[SignedPerm, ...]     # s_k for each positive root k
    identity: SignedPerm

    def root(self, s: int) -> Vector:
        """The root with signed index s."""
        return self.positive[s - 1] if s > 0 else self.negative[-s - 1]

    def root_index(self, v: Vector) -> int:
        """Signed index of the root v; KeyError if v is not a root."""
        return self.index[tuple(2 * x for x in v)]


@lru_cache(maxsize=None)
def weyl_tables(system: RootSystem) -> WeylTables:
    """The system's WeylTables, built once in doubled integer coordinates."""
    doubled = [tuple(int(2 * x) for x in a) for a in system.positive_roots]
    index: Dict[Tuple[int, ...], int] = {}
    for k, d in enumerate(doubled):
        index[d] = k + 1
        index[tuple(-x for x in d)] = -(k + 1)
    return WeylTables(
        positive=system.positive_roots,
        doubled=tuple(doubled),
        negative=tuple(neg(a) for a in system.positive_roots),
        index=index,
        simple=tuple(index[tuple(int(2 * x) for x in a)] - 1 for a in system.simple_roots),
        reflections=tuple(_reflection_perm(a, doubled, index) for a in doubled),
        identity=tuple(range(1, len(doubled) + 1)),
    )


def _reflection_perm(a, doubled, index) -> SignedPerm:
    """s_a on the positive roots, all in doubled integer coordinates."""
    aa = sum(x * x for x in a)
    out = []
    for d in doubled:
        c = 2 * sum(x * y for x, y in zip(d, a)) // aa  # <d, a^vee>, an integer
        out.append(index[tuple(x - c * y for x, y in zip(d, a))])
    return tuple(out)


def root_permutation(m: Matrix, system: RootSystem) -> SignedPerm:
    """The signed permutation of the positive roots induced by the matrix m.

    Raises ValueError if m does not map every root to a root.
    """
    tables = weyl_tables(system)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    out = []
    for a in tables.positive:
        try:
            out.append(tables.root_index([sum((x * a[j] for j, x in row), Q(0)) for row in rows]))
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


# ---------------------------------------------------------------------------
# Reflection words and beta chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaChain:
    """Chain roots beta_1..beta_N for a word, consumed rightmost letter first.

    beta_k = s_{beta_{k-1}} ... s_{beta_1}(a_k) where a_k is the positive root
    of the k-th consumed letter; the ordered composition of the chain
    reflections equals the composition of the word's letters.  indices holds
    the signed positive-root index of each step (see WeylTables).
    """

    word: WeylWord
    steps: Tuple[Vector, ...]
    indices: Tuple[int, ...]


def word_matrix(word: WeylWord, system: RootSystem) -> Matrix:
    """Matrix of the word read left to right (rightmost letter acts first)."""
    m = identity_matrix(system.dim)
    for letter in word:
        m = mat_mul(m, reflection_matrix(system.simple_roots[letter]))
    return m


def beta_chain_for_word(word: WeylWord, system: RootSystem) -> BetaChain:
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
    return BetaChain(
        word=tuple(word),
        steps=tuple(tables.root(s) for s in indices),
        indices=tuple(indices),
    )


def canonical_reflection_word(alpha: Vector, system: RootSystem) -> WeylWord:
    """Deterministic palindromic word for the reflection s_alpha.

    Repeatedly conjugates by the smallest-index simple reflection that strictly
    lowers the height of the conjugated (positive) root.
    """
    if not system.is_root(alpha):
        raise ValueError("not a root: %r" % (alpha,))
    cur = alpha if system.is_positive(alpha) else neg(alpha)
    prefix: List[int] = []
    while True:
        coeffs = system.simple_coefficients(cur)
        if sum(1 for c in coeffs if c != 0) == 1 and sum(coeffs, Q(0)) == 1:
            core = next(i for i, c in enumerate(coeffs) if c != 0)
            break
        h = system.height(cur)
        for i, a in enumerate(system.simple_roots):
            cand = reflect(a, cur)
            if system.height(cand) < h:
                prefix.append(i)
                cur = cand
                break
        else:
            raise InvariantError("height descent failed; not a positive root?")
    return tuple(prefix) + (core,) + tuple(reversed(prefix))


def decompose_to_chain(
    alpha: Vector, system: RootSystem, word: Optional[WeylWord] = None
) -> BetaChain:
    """Beta chain for s_alpha, from the canonical word or a supplied one.

    A supplied word must be palindromic and compose to s_alpha.
    """
    if word is None:
        word = canonical_reflection_word(alpha, system)
    else:
        word = tuple(word)
        if word != tuple(reversed(word)):
            raise WordError("word is not palindromic")
        if word_matrix(word, system) != reflection_matrix(alpha):
            raise WordError("word does not compose to the requested reflection")
    return beta_chain_for_word(word, system)


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def vector_to_strings(v: Vector) -> List[str]:
    return [str(x) for x in v]


def vector_from_strings(parts: Sequence[str]) -> Vector:
    return tuple(Q(p) for p in parts)


def root_system_to_json(system: RootSystem) -> dict:
    return {
        "schema": "cayley-lift/1",
        "family": system.family,
        "rank": system.rank,
        "simple_roots": [vector_to_strings(a) for a in system.simple_roots],
        "positive_roots": [vector_to_strings(a) for a in system.positive_roots],
    }
