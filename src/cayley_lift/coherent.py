"""Coherent-continuation sign counts and the stabilizer sign test.

For a parameter gamma and a Weyl group element w given as a word in the
ambient simple reflections, the letters are consumed from the right; the
k-th consumed letter alpha_k contributes the chain root
beta_k = s_{alpha_1} ... s_{alpha_{k-1}}(alpha_k), and each beta_k is
tagged real / imaginary / complex against gamma's fixed involution.  The
parity of the imaginary count defines the sign epsilon_gamma(w); comparing
it with det(w) on the stabilizer of gamma's orbit decides whether gamma
supports a sign-consistent family (it "survives") or is ruled out.

Every Weyl group element here, and the involution theta, is a signed
permutation of the ambient positive roots (root_system.WeylTables).  Chain
roots are table lookups, theta-types compare a root's index with its image,
the stabilizer sweep is one lazy breadth-first search over the core Weyl
group that stops at the first violation, and words come from descent on
the permutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .root_system import (
    CertificateError,
    InvariantError,
    Matrix,
    RootSubsystem,
    RootSystem,
    ScopeError,
    SignedPerm,
    Vector,
    WeylWord,
    beta_chain_for_word,
    build_root_system,
    canonical_reflection_word,
    dot,
    identity_matrix,
    integral_system,
    make_subsystem,
    mat_apply,
    mat_mul,
    neg,
    perm_mul,
    perm_to_word,
    reflection_matrix,
    root_permutation,
    scale,
    weyl_tables,
    word_matrix,
    zero,
)
from .cartan import COMPLEX, IMAGINARY, REAL
from .parameters import PairSetParameter, theta as parameter_theta, theta_perm
from . import witness_data


@dataclass(frozen=True)
class ChainCertificate:
    parameter: PairSetParameter
    word: WeylWord
    steps: Tuple[Tuple[Vector, str], ...]  # (beta_k, tag), consumption order
    imaginary_count: int
    sign: int        # epsilon = (-1)^imaginary_count
    word_sign: int   # det of the word, (-1)^len


def _ambient(p: PairSetParameter) -> RootSystem:
    if p.family in ("E6", "E7", "E8"):
        return build_root_system(p.family)
    return build_root_system(p.family, p.rank)


def chain_types(p: PairSetParameter, word: Sequence[int]) -> ChainCertificate:
    """Chain roots and their types for the word, against p's involution."""
    chain = beta_chain_for_word(tuple(word), _ambient(p))
    th = theta_perm(p)
    steps: List[Tuple[Vector, str]] = []
    m = 0
    for s, beta in zip(chain.indices, chain.steps):
        k = abs(s)  # a root and its negative have the same type
        if th[k - 1] == k:
            tag = IMAGINARY
            m += 1
        elif th[k - 1] == -k:
            tag = REAL
        else:
            tag = COMPLEX
        steps.append((beta, tag))
    return ChainCertificate(
        parameter=p,
        word=chain.word,
        steps=tuple(steps),
        imaginary_count=m,
        sign=-1 if m % 2 else 1,
        word_sign=-1 if len(chain.word) % 2 else 1,
    )


# ---------------------------------------------------------------------------
# Stabilizer data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerDescription:
    parameter: PairSetParameter
    integral: RootSubsystem            # Delta(rho/2)
    real: RootSubsystem                # real integral roots
    imaginary: RootSubsystem           # imaginary integral roots
    complex_core: RootSubsystem        # integral roots orthogonal to both rho_r, rho_i
    rho_real: Vector
    rho_imaginary: Vector


@lru_cache(maxsize=None)
def stabilizer(p: PairSetParameter) -> StabilizerDescription:
    system = _ambient(p)
    th = theta_perm(p)
    integral = integral_system(system.rho_half, system)
    root_index = weyl_tables(system).root_index
    indexed = [(a, root_index(a)) for a in integral.positive]
    real_pos = [a for a, k in indexed if th[k - 1] == -k]
    imag_pos = [a for a, k in indexed if th[k - 1] == k]
    rho_r = scale(Q(1, 2), _vector_sum(real_pos, system.dim))
    rho_i = scale(Q(1, 2), _vector_sum(imag_pos, system.dim))
    core_pos = [
        a for a in integral.positive
        if dot(a, rho_r) == 0 and dot(a, rho_i) == 0
    ]
    return StabilizerDescription(
        parameter=p,
        integral=integral,
        real=make_subsystem(real_pos),
        imaginary=make_subsystem(imag_pos),
        complex_core=make_subsystem(core_pos),
        rho_real=rho_r,
        rho_imaginary=rho_i,
    )


def _vector_sum(vectors: Iterable[Vector], dim: int) -> Vector:
    out = zero(dim)
    for v in vectors:
        out = tuple(a + b for a, b in zip(out, v))
    return out


# ---------------------------------------------------------------------------
# Subgroup membership and word extraction
# ---------------------------------------------------------------------------

def matrix_to_word(m: Matrix, system: RootSystem) -> WeylWord:
    """Reduced word (printed order) for a Weyl group element given as a matrix."""
    try:
        word = perm_to_word(root_permutation(m, system), system)
    except ValueError:
        raise ValueError("matrix is not in the Weyl group") from None
    # W fixes the complement of the root span pointwise; m must as well.
    if word_matrix(word, system) != m:
        raise ValueError("matrix is not in the Weyl group")
    return word


def in_reflection_subgroup(m: Matrix, sub: RootSubsystem, system: RootSystem) -> bool:
    """Membership in the reflection subgroup of a root subsystem, by descent."""
    ident = identity_matrix(system.dim)
    w = m
    for _ in range(len(sub.positive) + 1):
        if w == ident:
            return True
        beta = next(
            (b for b in sub.positive if mat_apply(w, b) in _negatives(sub)), None
        )
        if beta is None:
            return False
        w = mat_mul(w, reflection_matrix(beta))
    return w == ident


def _negatives(sub: RootSubsystem) -> frozenset:
    return frozenset(neg(a) for a in sub.positive)


def in_integral_weyl_group(p: PairSetParameter, word: Sequence[int]) -> bool:
    """Whether the word's element lies in the integral Weyl group at rho/2."""
    system = _ambient(p)
    st = stabilizer(p)
    return in_reflection_subgroup(word_matrix(tuple(word), system), st.integral, system)


def is_complex_fixed_member(p: PairSetParameter, word: Sequence[int]) -> bool:
    """Whether the word's element lies in W(core)^theta.

    The element must commute with theta, fix rho_real and rho_imaginary
    pointwise, and lie in the integral Weyl group; fixing both dominant
    vectors inside the integral group forces membership in the core.
    """
    system = _ambient(p)
    st = stabilizer(p)
    w = word_matrix(tuple(word), system)
    th = parameter_theta(p).matrix
    if mat_mul(th, w) != mat_mul(w, th):
        return False
    if mat_apply(w, st.rho_real) != st.rho_real:
        return False
    if mat_apply(w, st.rho_imaginary) != st.rho_imaginary:
        return False
    return in_reflection_subgroup(w, st.integral, system)


# ---------------------------------------------------------------------------
# The sign test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleOutReport:
    parameter: PairSetParameter
    verdict: str                 # "ruled_out" | "survives"
    method: str                  # "catalog" | "real_reflection" | "complex_search" | "full_sweep"
    certificate: Optional[ChainCertificate]
    witness_id: Optional[str]
    checked: int                 # stabilizer elements examined


_E_SWEEP_CAP = 4000  # largest W(core) swept live for an E family


def _core_sweep(p: PairSetParameter, st: StabilizerDescription) -> Iterator[SignedPerm]:
    """theta-commuting elements of the core Weyl group, lazily, in
    breadth-first order from the identity (which comes first)."""
    tables = weyl_tables(_ambient(p))
    th = theta_perm(p)
    gens = [tables.reflections[tables.root_index(a) - 1] for a in st.complex_core.simple]
    seen = {tables.identity}
    frontier = [tables.identity]
    yield tables.identity
    while frontier:
        if p.family in ("E6", "E7", "E8") and len(seen) > _E_SWEEP_CAP:
            raise ScopeError(
                "core Weyl group too large for a live sweep (%d+ elements)" % len(seen)
            )
        nxt = []
        for w in frontier:
            for g in gens:
                c = perm_mul(w, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    if perm_mul(th, c) == perm_mul(c, th):
                        yield c
        frontier = nxt


def _star_sweep(p: PairSetParameter) -> Tuple[Optional[ChainCertificate], int]:
    """First sign violation on the stabilizer, or None after a full sweep.

    Checks one chain per imaginary and real integral root, then walks the
    theta-commuting elements of the core Weyl group, comparing epsilon with
    det, and stops at the first violation.
    """
    system = _ambient(p)
    st = stabilizer(p)
    checked = 0
    for root in st.real.positive + st.imaginary.positive:
        word = canonical_reflection_word(root, system)
        cert = chain_types(p, word)
        checked += 1
        if cert.sign != cert.word_sign:
            return cert, checked
    for w in _core_sweep(p, st):
        word = perm_to_word(w, system)
        if not word:
            continue
        cert = chain_types(p, word)
        checked += 1
        if cert.sign != cert.word_sign:
            return cert, checked
    return None, checked


def rule_out(p: PairSetParameter) -> RuleOutReport:
    """Decide the sign test for p's orbit: a stored or found witness with
    epsilon != det rules it out; a clean full sweep certifies survival."""
    from .parameters import class_of

    entry_id = witness_data.witness_for_class(p.family, class_of(p).signature)
    if entry_id is not None:
        entry = witness_data.CATALOG[entry_id]
        cert = chain_types(p, entry.word)
        if cert.sign == cert.word_sign:
            raise CertificateError(
                "stored witness %s no longer violates the sign test" % entry_id
            )
        return RuleOutReport(
            parameter=p,
            verdict="ruled_out",
            method="catalog",
            certificate=cert,
            witness_id=entry_id,
            checked=1,
        )
    st = stabilizer(p)
    if st.real.positive:
        system = _ambient(p)
        word = canonical_reflection_word(st.real.positive[0], system)
        cert = chain_types(p, word)
        if cert.sign == cert.word_sign:
            raise InvariantError("real-reflection chain did not violate the sign test")
        return RuleOutReport(
            parameter=p,
            verdict="ruled_out",
            method="real_reflection",
            certificate=cert,
            witness_id=None,
            checked=1,
        )
    violation, checked = _star_sweep(p)
    if violation is not None:
        return RuleOutReport(
            parameter=p,
            verdict="ruled_out",
            method="complex_search",
            certificate=violation,
            witness_id=None,
            checked=checked,
        )
    return RuleOutReport(
        parameter=p,
        verdict="survives",
        method="full_sweep",
        certificate=None,
        witness_id=None,
        checked=checked,
    )


@lru_cache(maxsize=None)
def count_small(family: str, rank: Optional[int] = None) -> int:
    """Number of genuine small representations at infinitesimal character
    rho/2: surviving orbits times genuine central characters."""
    from .cartan import genuine_central_character_count
    from .parameters import orbit_representatives

    survivors = 0
    for _, rep in orbit_representatives(family, rank):
        if rule_out(rep).verdict == "survives":
            survivors += 1
    return survivors * genuine_central_character_count(family, rank)


def survey(family: str, rank: Optional[int] = None) -> Tuple[RuleOutReport, ...]:
    from .parameters import orbit_representatives

    return tuple(rule_out(rep) for _, rep in orbit_representatives(family, rank))


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayReport:
    witness_id: str
    certificate: ChainCertificate
    golden_checked: bool


def replay_witness(witness_id: str) -> ReplayReport:
    """Recompute a stored witness chain and compare with its golden data.

    Chain roots must match up to sign, tags and the imaginary count exactly.
    """
    from .parameters import make_parameter

    if witness_id not in witness_data.CATALOG:
        raise ScopeError("unknown witness id %r" % witness_id)
    entry = witness_data.CATALOG[witness_id]
    from .cartan import E_CLASS_REPS

    blocks, pairs = E_CLASS_REPS[(entry.family, entry.signature)]
    p = make_parameter(entry.family, int(entry.family[1]), chi=0, blocks=blocks, pairs=pairs)
    cert = chain_types(p, entry.word)
    if cert.imaginary_count != entry.imaginary_count:
        raise CertificateError(
            "witness %s: imaginary count %d, stored %d"
            % (witness_id, cert.imaginary_count, entry.imaginary_count)
        )
    golden_checked = False
    if entry.golden is not None:
        if len(entry.golden) != len(cert.steps):
            raise CertificateError(
                "witness %s: %d steps, stored %d"
                % (witness_id, len(cert.steps), len(entry.golden))
            )
        for k, ((root, tag), (groot, gtag)) in enumerate(zip(cert.steps, entry.golden)):
            if root != groot and root != neg(groot):
                raise CertificateError(
                    "witness %s: step %d root %r differs from stored %r"
                    % (witness_id, k + 1, root, groot)
                )
            if tag != gtag:
                raise CertificateError(
                    "witness %s: step %d tag %s differs from stored %s"
                    % (witness_id, k + 1, tag, gtag)
                )
        golden_checked = True
    return ReplayReport(witness_id=witness_id, certificate=cert, golden_checked=golden_checked)


# ---------------------------------------------------------------------------
# Word rewriting (identity moves), used by the invariance experiments
# ---------------------------------------------------------------------------

def _braid_order(system: RootSystem, i: int, j: int) -> int:
    p = dot(system.simple_roots[i], system.simple_roots[j])
    return 2 if p == 0 else 3  # simply laced


def random_equivalent_word(
    system: RootSystem, word: Sequence[int], rng: random.Random, moves: int = 20
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
