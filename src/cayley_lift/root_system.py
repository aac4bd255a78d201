"""Simply-laced root systems in doubled integer coordinates.

Families: A (ambient n coordinates, roots e_i - e_j), D (roots +-e_i +- e_j),
and E6/E7/E8 realized inside an 8-dimensional ambient space.  The core holds
every vector doubled, 2v as a tuple of ints, so that the half-integer E8
roots are integral: construction and the integral roots at rho/2 are
integer arithmetic, as are the reflections, the integral subsystems and
the reflection words of the sign test (coherent), which builds on this one.
Every family's positive roots, with their simple-root coefficients, come
from one integer closure of its simple roots by height (Bourbaki, Ch. VI,
1.6), with no basis solve.  Doubling keeps the lexicographic order, so the
positive roots and every signed index are those of the rational vectors.
fractions.Fraction appears only at the edge, in the dense module, which no
CLI request runs: the vector views (simple_roots, positive_roots, rho_half,
roots and the positive roots of a subsystem) import it on first use; output
is printed from the doubled integers.  There is no floating point anywhere
in this package.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction as Q

Vector = Tuple["Q", ...]
Matrix = Tuple[Vector, ...]
Doubled = Tuple[int, ...]  # 2v for a vector v of (1/2)Z^n
WeylWord = Tuple[int, ...]  # 0-based indices into a system's simple roots
SignedPerm = Tuple[int, ...]  # w[k] = +-(j+1): positive root k -> +-(positive root j)

# Desk-scale caps: ambient coordinates for A (SL(n)), rank n for D.
MAX_A_AMBIENT = 10
MAX_D_RANK = 8

SCHEMA = "cayley-lift/1"  # the schema of every JSON payload


class ScopeError(ValueError):
    """Requested computation is outside the supported desk-scale range."""


class WordError(ValueError):
    """A Weyl word failed validation."""


class InvariantError(AssertionError):
    """An internal consistency check failed: a defect, not a bad request."""


class CertificateError(ValueError):
    """A replayed certificate diverged from its stored golden data."""


class TransformError(ValueError):
    """An illegal Cayley transform was requested."""


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


def idot(x: Sequence[int], y: Sequence[int]) -> int:
    """Integer dot product; on doubled vectors it is 4 times the inner product."""
    return sum(map(mul, x, y))


def neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def pair_root(dim: int, pair: Tuple[int, int]) -> Doubled:
    """Doubled Cayley-transform root of a pair of 1-based slots:
    2(e_i - e_j) for (i, j), 2(e_i + e_j) for (-i, -j)."""
    out = [0] * dim
    out[abs(pair[0]) - 1] = 2
    out[abs(pair[1]) - 1] = -2 if pair[0] > 0 else 2
    return tuple(out)


def _doubled(v: Vector) -> Tuple:
    """2v; the entries equal (and hash like) ints for v in (1/2)Z^n."""
    return tuple([2 * x for x in v])


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
        from .dense import view
        return tuple(map(view, self.doubled_simple))

    @cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        from .dense import view
        return tuple(map(view, self.doubled_positive))

    @cached_property
    def rho_half(self) -> Vector:
        from .dense import view
        return view(self.doubled_rho, 4)

    @cached_property
    def roots(self) -> Tuple[Vector, ...]:
        from .dense import view
        return tuple(map(view, sorted(self.index)))

    def is_root(self, v: Vector) -> bool:
        return _doubled(v) in self.index

    def __hash__(self) -> int:  # computed once: the lru_caches below are keyed on the system
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.family, self.rank, self.doubled_simple, self.doubled_positive))


def _e_simple_roots(family: str) -> Tuple[Doubled, ...]:
    """Doubled: (1/2)(1, -1, ..., -1, 1), e_1 + e_2, then e_{i+1} - e_i."""
    chain = tuple(pair_root(8, (i + 1, i)) for i in range(1, int(family[1]) - 1))
    return ((1, -1, -1, -1, -1, -1, -1, 1), pair_root(8, (-1, -2))) + chain


@lru_cache(maxsize=None)
def positive_coefficients(simples: Tuple[Doubled, ...]) -> Dict[Doubled, Tuple[int, ...]]:
    """Each positive root of the simply-laced system with these doubled
    simple roots, doubled, mapped to its simple-root coefficients.

    The positive roots of height h + 1 are exactly the b + alpha_i with b of
    height h and (b, alpha_i) = -1 (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, 1.6), so the closure runs level by level from the simple roots;
    on doubled vectors that pairing reads -4.
    """
    level = {a: tuple([int(i == j) for j in range(len(simples))]) for i, a in enumerate(simples)}
    out: Dict[Doubled, Tuple[int, ...]] = {}
    while level:
        out.update(level)
        higher: Dict[Doubled, Tuple[int, ...]] = {}
        for b, c in level.items():
            for i, a in enumerate(simples):
                if idot(b, a) == -4:
                    higher[tuple([x + y for x, y in zip(b, a)])] = c[:i] + (c[i] + 1,) + c[i + 1:]
        level = higher
    return out


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: Optional[int] = None) -> RootSystem:
    """Construct the root system with the fixed simple system.

    For family "A", rank is the Lie rank (ambient n = rank + 1 coordinates,
    i.e. SL(n)); for "D", rank n.  E6/E7/E8 take None or their own rank and
    return one cached object either way; any other rank is a ScopeError.
    This is the only place that knows an E group's rank.
    """
    if family == "A":
        if rank is None or rank < 1:
            raise ScopeError("family A needs a rank >= 1")
        n = rank + 1
        if n > MAX_A_AMBIENT:
            raise ScopeError("family A supported up to SL(%d)" % MAX_A_AMBIENT)
        simples = tuple(pair_root(n, (i, i + 1)) for i in range(1, n))
    elif family == "D":
        if rank is None or rank < 3:
            raise ScopeError("family D needs a rank >= 3")
        n = rank
        if n > MAX_D_RANK:
            raise ScopeError("family D supported up to rank %d" % MAX_D_RANK)
        simples = tuple(pair_root(n, (i, i + 1)) for i in range(1, n)) + (pair_root(n, (1 - n, -n)),)
    elif family in ("E6", "E7", "E8"):
        if rank != int(family[1]):
            if rank is None:
                return build_root_system(family, int(family[1]))
            raise ScopeError("rank of %s is fixed" % family)
        simples = _e_simple_roots(family)
    else:
        raise ScopeError("unknown family %r" % (family,))

    positives = tuple(sorted(positive_coefficients(simples)))
    if family[0] == "E" and len(positives) != {"E6": 36, "E7": 63, "E8": 120}[family]:
        raise InvariantError("positive system extraction failed for %s" % family)
    return RootSystem(
        family=family,
        rank=len(simples),
        dim=len(simples[0]),
        doubled_simple=simples,
        doubled_positive=positives,
        doubled_rho=tuple(sum(column) // 2 for column in zip(*positives)),  # sum of 2a, halved
    )


# ---------------------------------------------------------------------------
# Integral and half-integral roots at rho/2
# ---------------------------------------------------------------------------
# <rho/2, a^vee> = (2rho . 2a) / 8: a root is integral at rho/2 when that
# integer dot product is 0 mod 8, half-integral when it is 4 mod 8.

def is_integral(system: RootSystem, doubled: Doubled) -> bool:
    """Whether the root doubled/2 pairs to an integer against rho/2."""
    return idot(system.doubled_rho, doubled) % 8 == 0


def is_half_integral(system: RootSystem, doubled: Doubled) -> bool:
    """Whether the root doubled/2 pairs to Z + 1/2 against rho/2."""
    return idot(system.doubled_rho, doubled) % 8 == 4


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def rational(n: int, d: int = 1) -> str:
    """str(Fraction(n, d)) for d > 0, from the integers alone."""
    g = gcd(n, d)
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


def _vec(d: Doubled, den: int = 2) -> str:
    """The rational vector d / den, as (x, y, ...)."""
    return "(" + ", ".join(rational(x, den) for x in d) + ")"


def root_system_to_json(system: RootSystem) -> dict:
    return {
        "schema": SCHEMA,
        "family": system.family,
        "rank": system.rank,
        "simple_roots": [[rational(x, 2) for x in d] for d in system.doubled_simple],
        "positive_roots": [[rational(x, 2) for x in d] for d in system.doubled_positive],
    }


# ---------------------------------------------------------------------------
# Forwarded names
# ---------------------------------------------------------------------------

def forwarding(module: str, table: Dict[str, str]):
    """The __getattr__ of the package module named module: each name in
    table is read, on first use, from the package module table names."""
    def __getattr__(name: str):
        if name in table:
            from importlib import import_module
            return getattr(import_module("." + table[name], __package__), name)
        raise AttributeError("module %r has no attribute %r" % (module, name))
    return __getattr__


# Names that perfbench/trace_child.py wraps in this module, and the modules
# that now hold them; nothing in the package reads them here.
_FORWARDED = {"mat_mul": "dense", "mat_apply": "dense", "reflection_matrix": "dense",
              "integral_system": "dense", "canonical_reflection_word": "coherent"}
__getattr__ = forwarding(__name__, _FORWARDED)
