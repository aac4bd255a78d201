"""Simply-laced root systems in doubled integer coordinates.

Families: A (ambient n coordinates, roots e_i - e_j), D (roots +-e_i +- e_j),
and E6/E7/E8 realized inside an 8-dimensional ambient space.  The core holds
every vector doubled, 2v as a tuple of ints, so that the half-integer E8
roots are integral: construction, the integral subsystems at rho/2, the Weyl
group tables and the reflection words are integer arithmetic.  Doubling
keeps the lexicographic order, so the positive roots and every signed index
are those of the rational vectors.  fractions.Fraction appears only at the
edge: the vector views (simple_roots, positive_roots, rho, rho_half and the
roots of subsystems and chains) are built on first use for input, output
and the public API.  There is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]
Doubled = Tuple[int, ...]  # 2v for a vector v of (1/2)Z^n
WeylWord = Tuple[int, ...]  # 0-based indices into a system's simple roots

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


class Record:
    """Base of the package's immutable value types.

    The fields are those of the base record, then the keys of the class's
    own annotations, in order; the annotations are never evaluated (every
    module postpones them).  A record is built from positional or keyword
    field values, compares and hashes by the tuple of its fields, prints as
    Name(field=value, ...) and refuses assignment and deletion.  Instances
    keep a __dict__, so cached_property works on them.
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d field values but %d were given"
                            % (type(self).__qualname__, len(fields), len(args)))
        values = self.__dict__
        values.update(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError("%s() got an unexpected field %r" % (type(self).__qualname__, key))
            if key in values:
                raise TypeError("%s() got two values for field %r" % (type(self).__qualname__, key))
        values.update(kwargs)
        if len(values) < len(fields):
            raise TypeError("%s() is missing fields %s" % (type(self).__qualname__, ", ".join(
                repr(f) for f in fields if f not in values)))

    def _values(self) -> Tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, self.__dict__[f]) for f in self._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__qualname__))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__qualname__))


def vec(*entries) -> Vector:
    return tuple(Q(x) for x in entries)


def dot(x: Vector, y: Vector) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch: %d vs %d" % (len(x), len(y)))
    return sum((a * b for a, b in zip(x, y)), Q(0))


def idot(x: Sequence[int], y: Sequence[int]) -> int:
    """Integer dot product; on doubled vectors it is 4 times the inner product."""
    return sum(map(mul, x, y))


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


def pair_root(dim: int, pair: Tuple[int, int]) -> Doubled:
    """Doubled Cayley-transform root of a pair of 1-based slots:
    2(e_i - e_j) for (i, j), 2(e_i + e_j) for (-i, -j)."""
    out = [0] * dim
    out[abs(pair[0]) - 1] = 2
    out[abs(pair[1]) - 1] = -2 if pair[0] > 0 else 2
    return tuple(out)


_fraction = lru_cache(maxsize=None)(Q)  # views share one Fraction per value


def _view(d: Doubled, den: int = 2) -> Vector:
    """The rational vector d / den."""
    return tuple([_fraction(x, den) for x in d])


def _doubled(v: Vector) -> Tuple:
    """2v; the entries equal (and hash like) ints for v in (1/2)Z^n."""
    return tuple([2 * x for x in v])


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

class RootSystem(Record):
    """A root system with the fixed simple system used throughout, stored
    in doubled integer coordinates; the Fraction vectors are views."""

    family: str
    rank: int                               # Lie rank
    dim: int                                # ambient coordinates
    doubled_simple: Tuple[Doubled, ...]     # 2 * simple root i
    doubled_positive: Tuple[Doubled, ...]   # 2 * positive root k, ascending
    doubled_rho: Doubled                    # 2 * rho, the sum of the positive roots

    @cached_property
    def index(self) -> Dict[Doubled, int]:
        """Signed index of each root, doubled: 2v -> +-(k+1) for +-(positive root k)."""
        out: Dict[Doubled, int] = {}
        for k, d in enumerate(self.doubled_positive):
            out[d] = k + 1
            out[tuple([-x for x in d])] = -(k + 1)
        return out

    @cached_property
    def simple_roots(self) -> Tuple[Vector, ...]:
        return tuple(_view(d) for d in self.doubled_simple)

    @cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        return tuple(_view(d) for d in self.doubled_positive)

    @cached_property
    def rho(self) -> Vector:
        return _view(self.doubled_rho)

    @cached_property
    def rho_half(self) -> Vector:
        return _view(self.doubled_rho, 4)

    @cached_property
    def roots(self) -> Tuple[Vector, ...]:
        return tuple(_view(d) for d in sorted(self.index))

    def is_root(self, v: Vector) -> bool:
        return _doubled(v) in self.index

    def is_positive(self, v: Vector) -> bool:
        return self.index.get(_doubled(v), 0) > 0

    def simple_coefficients(self, v: Vector) -> Tuple[Q, ...]:
        """Coordinates of v in the simple-root basis; ValueError off the span."""
        rows, div = _dual_basis(self.doubled_simple)
        den = lcm(*(Q(x).denominator for x in v))
        scaled = tuple(int(x * den) for x in v)  # v = scaled / den
        coeffs = _scaled_coefficients(rows, scaled)  # den * div/2 times the coefficients
        span = [idot(coeffs, column) for column in zip(*self.doubled_simple)]
        if span != [div * x for x in scaled]:
            raise ValueError("vector is not in the span of the basis")
        return tuple(Q(2 * c, den * div) for c in coeffs)

    def height(self, root: Vector) -> Q:
        return sum(self.simple_coefficients(root), Q(0))

    def __hash__(self) -> int:  # computed once: the lru_caches below are keyed on the system
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.family, self.rank, self.doubled_simple, self.doubled_positive))


@lru_cache(maxsize=None)
def _dual_basis(simples: Tuple[Doubled, ...]) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Rows d*omega_i, integer for the least d, and the divisor 2d, where
    omega_i = sum_k (C^-1)_ik alpha_k (C: the Gram = Cartan matrix) pairs to
    delta_ij with alpha_j: v in the span has coefficients (2v . d*omega_i) / 2d.
    C^-1 comes from fraction-free Gauss-Jordan elimination on [C | I].
    """
    r = len(simples)
    aug = [[idot(a, b) // 4 for b in simples] + [int(i == j) for j in range(r)]
           for i, a in enumerate(simples)]
    for c in range(r):
        piv = next(i for i in range(c, r) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(r):
            if i != c and aug[i][c]:
                f, p = aug[i][c], aug[c][c]
                aug[i] = [p * x - f * y for x, y in zip(aug[i], aug[c])]
    # Row i reads aug[i][i] * (C^-1)_i, so omega_i = w_i / (2 aug[i][i]).
    ws = [[idot(aug[i][r:], column) for column in zip(*simples)] for i in range(r)]
    dens = [2 * aug[i][i] for i in range(r)]
    d = lcm(*(abs(den) // gcd(den, *w) for w, den in zip(ws, dens)))
    return tuple(tuple(d * x // den for x in w) for w, den in zip(ws, dens)), 2 * d


def _scaled_coefficients(rows: Sequence[Tuple[int, ...]], doubled: Sequence[int]) -> Tuple[int, ...]:
    """2d times the simple-root coefficients of v = doubled/2, for (rows, 2d) = _dual_basis."""
    return tuple(idot(row, doubled) for row in rows)


def _e8_roots() -> List[Doubled]:
    roots: List[Doubled] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i] = si
                    v[j] = sj
                    roots.append(tuple(v))
    for signs in range(256):
        v = tuple(-1 if (signs >> k) & 1 else 1 for k in range(8))
        if v.count(-1) % 2 == 0:
            roots.append(v)
    return roots


def beta_root(minus_positions: Iterable[int]) -> Vector:
    """Half-integer root with entries -1/2 exactly at the listed positions."""
    minus = set(minus_positions)
    v = tuple(Q(-1, 2) if k + 1 in minus else Q(1, 2) for k in range(8))
    if len(minus) % 2 != 0:
        raise ValueError("a half-integer root needs an even number of minus signs")
    return v


def _e_simple_roots(family: str) -> Tuple[Doubled, ...]:
    """Doubled: 2 * beta_root((2, ..., 7)), 2(e_1 + e_2), then 2(e_{i+1} - e_i)."""
    chain = tuple(pair_root(8, (i + 1, i)) for i in range(1, int(family[1]) - 1))
    return ((1, -1, -1, -1, -1, -1, -1, 1), pair_root(8, (-1, -2))) + chain


def _in_e_subspace(family: str, v: Doubled) -> bool:
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
        simples = tuple(pair_root(n, (i, i + 1)) for i in range(1, n))
        positives = tuple(sorted(
            pair_root(n, (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        ))
    elif family == "D":
        if rank is None or rank < 3:
            raise ScopeError("family D needs a rank >= 3")
        n = rank
        if n > MAX_D_RANK:
            raise ScopeError("family D supported up to rank %d" % MAX_D_RANK)
        simples = tuple(pair_root(n, (i, i + 1)) for i in range(1, n)) + (pair_root(n, (1 - n, -n)),)
        positives = tuple(sorted(
            pair_root(n, (s * i, s * j))
            for i in range(1, n + 1) for j in range(i + 1, n + 1) for s in (1, -1)
        ))
    elif family in ("E6", "E7", "E8"):
        if rank is not None and rank != int(family[1]):
            raise ScopeError("rank of %s is fixed" % family)
        simples = _e_simple_roots(family)
        height = [sum(column) for column in zip(*_dual_basis(simples)[0])]  # d * rho, as rows
        members = [v for v in _e8_roots() if _in_e_subspace(family, v)]
        positives = tuple(sorted(v for v in members if idot(height, v) > 0))
        expected = {"E6": 36, "E7": 63, "E8": 120}[family]
        if len(positives) != expected or 2 * len(positives) != len(members):
            raise InvariantError("positive system extraction failed for %s" % family)
    else:
        raise ScopeError("unknown family %r" % (family,))

    return RootSystem(
        family=family,
        rank=len(simples),
        dim=len(simples[0]),
        doubled_simple=simples,
        doubled_positive=positives,
        doubled_rho=tuple(sum(column) // 2 for column in zip(*positives)),  # sum of 2a, halved
    )


# ---------------------------------------------------------------------------
# Integral and half-integral subsystems at a weight
# ---------------------------------------------------------------------------
# <rho/2, a^vee> = (2rho . 2a) / 8: a root is integral at rho/2 when that
# integer dot product is 0 mod 8, half-integral when it is 4 mod 8.

class RootSubsystem(Record):
    """A reflection-closed set of roots of a system, held as ascending
    0-based positive-root indices; the root vectors are views."""

    system: RootSystem
    positive_index: Tuple[int, ...]
    simple_index: Tuple[int, ...]

    @cached_property
    def positive(self) -> Tuple[Vector, ...]:
        return tuple(self.system.positive_roots[k] for k in self.positive_index)

    @cached_property
    def simple(self) -> Tuple[Vector, ...]:
        return tuple(self.system.positive_roots[k] for k in self.simple_index)

    @cached_property
    def roots(self) -> Tuple[Vector, ...]:
        return tuple(sorted(self.positive + tuple(neg(a) for a in self.positive)))

    @cached_property
    def rho(self) -> Vector:
        """Half the sum of the positive roots."""
        return _view(_doubled_sum(self), 4)


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
def _integral_system(system: RootSystem, weight: Tuple[int, ...], modulus: int) -> RootSubsystem:
    """Roots a with (weight . 2a) = 0 mod modulus."""
    return subsystem(system, (k for k, d in enumerate(system.doubled_positive)
                              if idot(weight, d) % modulus == 0))


def integral_system(lam: Vector, system: RootSystem) -> RootSubsystem:
    """Roots with integral pairing against lam, with positives and simples.

    At lam = rho/2 this reads the doubled rho; another lam is scaled to
    integers, den * lam, with <lam, a^vee> = (den * lam . 2a) / 2den.
    """
    if len(lam) != system.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (len(lam), system.dim))
    if lam == system.rho_half:
        return _integral_system(system, system.doubled_rho, 8)
    den = lcm(*(Q(x).denominator for x in lam))
    return _integral_system(system, tuple(int(x * den) for x in lam), 2 * den)


def is_half_integral(system: RootSystem, doubled: Doubled) -> bool:
    """Whether the root doubled/2 pairs to Z + 1/2 against rho/2."""
    return idot(system.doubled_rho, doubled) % 8 == 4


def half_integral_roots(system: RootSystem) -> Tuple[Vector, ...]:
    """Positive roots pairing to Z + 1/2 against rho/2."""
    return tuple(a for a, d in zip(system.positive_roots, system.doubled_positive)
                 if is_half_integral(system, d))


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


def perm_inv(a: SignedPerm) -> SignedPerm:
    """The inverse of a signed permutation."""
    out = [0] * len(a)
    for k, j in enumerate(a, 1):
        out[abs(j) - 1] = k if j > 0 else -k
    return tuple(out)


class WeylTables(Record):
    """Integer tables for the action of W on a system's positive roots."""

    system: RootSystem
    doubled: Tuple[Doubled, ...]            # 2 * positive root k
    index: Dict[Doubled, int]               # doubled root 2v -> +-(k+1)
    simple: Tuple[int, ...]                 # positive-root index of each simple root
    height: Tuple[int, ...]                 # height of positive root k
    reflections: Tuple[SignedPerm, ...]     # s_k for each positive root k
    identity: SignedPerm

    @cached_property
    def negative(self) -> Tuple[Vector, ...]:
        return tuple(_view(tuple([-x for x in d])) for d in self.doubled)

    def root(self, s: int) -> Vector:
        """The root with signed index s."""
        return self.system.positive_roots[s - 1] if s > 0 else self.negative[-s - 1]


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
        doubled=doubled,
        index=index,
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
    tables = weyl_tables(system)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    out = []
    for d in tables.doubled:
        try:
            out.append(tables.index[tuple(sum(x * d[j] for j, x in row) for row in rows)])
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

class BetaChain(Record):
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


def canonical_reflection_word(alpha: Union[Vector, int], system: RootSystem) -> WeylWord:
    """Deterministic palindromic word for the reflection s_alpha; alpha is a
    root or its signed index (see WeylTables).

    Repeatedly conjugates by the smallest-index simple reflection that strictly
    lowers the height of the conjugated (positive) root.
    """
    tables = weyl_tables(system)
    s = alpha if isinstance(alpha, int) else tables.index.get(_doubled(alpha), 0)
    if not 0 < abs(s) <= len(tables.doubled):
        raise ValueError("not a root: %r" % (alpha,))
    k = abs(s) - 1
    height, reflections = tables.height, tables.reflections
    prefix: List[int] = []
    while height[k] > 1:
        i = next(i for i, s in enumerate(tables.simple) if height[reflections[s][k] - 1] < height[k])
        prefix.append(i)
        k = reflections[tables.simple[i]][k] - 1
    return tuple(prefix) + (tables.simple.index(k),) + tuple(reversed(prefix))


def decompose_to_chain(
    alpha: Vector, system: RootSystem, word: Optional[WeylWord] = None
) -> BetaChain:
    """Beta chain for s_alpha, from the canonical word or a supplied one.

    A supplied word must be palindromic and compose to s_alpha: the product
    of its letters' signed permutations is compared with alpha's.
    """
    if word is None:
        return beta_chain_for_word(canonical_reflection_word(alpha, system), system)
    word = tuple(word)
    if word != tuple(reversed(word)):
        raise WordError("word is not palindromic")
    chain = beta_chain_for_word(word, system)  # rejects out-of-range letters
    tables = weyl_tables(system)
    w = tables.identity
    for letter in word:
        w = perm_mul(w, tables.reflections[tables.simple[letter]])
    s = tables.index.get(_doubled(alpha), 0)
    if not s or w != tables.reflections[abs(s) - 1]:
        raise WordError("word does not compose to the requested reflection")
    return chain


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
