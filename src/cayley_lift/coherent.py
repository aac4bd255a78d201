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
permutation of the ambient positive roots (root_system.WeylTables).  For a
reduced word the chain roots are, up to sign, the positive roots that w
sends negative (Bourbaki VI 1.6), so epsilon * det is the parity of w's
non-imaginary inversions and the sign test reads the permutation directly.
That parity is a character of the centralizer of theta (N(xy) is N(y)
plus y^-1 N(x) mod 2), so it is tested on generators of the stabilizer
only: a real integral reflection, the imaginary ones, then the Schreier
generators of W(core)^theta from a breadth-first search over the
W(core)-conjugates of theta, stopping at the first violation.  Only that generator is turned into a word (by
descent on the permutation) and chained, as its certificate.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from .root_system import (
    CertificateError,
    InvariantError,
    Matrix,
    Record,
    RootSubsystem,
    RootSystem,
    ScopeError,
    SignedPerm,
    Vector,
    WeylTables,
    WeylWord,
    _doubled_sum,
    _integral_system,
    beta_chain_for_word,
    canonical_reflection_word,
    idot,
    neg,
    perm_inv,
    perm_mul,
    perm_to_word,
    root_permutation,
    subsystem,
    weyl_tables,
    word_matrix,
)
from .cartan import COMPLEX, E_CLASS_REPS, IMAGINARY, REAL, genuine_central_character_count
from .parameters import (
    PairSetParameter,
    _ambient_system,
    make_parameter,
    orbit_representatives,
    theta_perm,
)
from . import witness_data


class ChainCertificate(Record):
    parameter: PairSetParameter
    word: WeylWord
    steps: Tuple[Tuple[Vector, str], ...]  # (beta_k, tag), consumption order
    imaginary_count: int
    sign: int        # epsilon = (-1)^imaginary_count
    word_sign: int   # det of the word, (-1)^len


def _ambient(p: PairSetParameter) -> RootSystem:
    return _ambient_system(p.family, p.rank)


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

class StabilizerDescription(Record):
    parameter: PairSetParameter
    integral: RootSubsystem            # Delta(rho/2)
    real: RootSubsystem                # real integral roots
    imaginary: RootSubsystem           # imaginary integral roots
    complex_core: RootSubsystem        # integral roots orthogonal to both rho_r, rho_i

    @property
    def rho_real(self) -> Vector:
        return self.real.rho

    @property
    def rho_imaginary(self) -> Vector:
        return self.imaginary.rho


@lru_cache(maxsize=None)
def stabilizer(p: PairSetParameter) -> StabilizerDescription:
    """The split of Delta(rho/2) by theta, on positive-root indices: theta
    fixes the imaginary roots and negates the real ones; the core is
    orthogonal to both of their half sums (integer dot products)."""
    system = _ambient(p)
    th = theta_perm(p)
    integral = _integral_system(system, system.doubled_rho, 8)
    real = subsystem(system, (k for k in integral.positive_index if th[k] == -(k + 1)))
    imaginary = subsystem(system, (k for k in integral.positive_index if th[k] == k + 1))
    sums = (_doubled_sum(real), _doubled_sum(imaginary))
    core = (k for k in integral.positive_index
            if not any(idot(system.doubled_positive[k], s) for s in sums))
    return StabilizerDescription(
        parameter=p,
        integral=integral,
        real=real,
        imaginary=imaginary,
        complex_core=subsystem(system, core),
    )


# ---------------------------------------------------------------------------
# Word extraction
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


# ---------------------------------------------------------------------------
# The sign test
# ---------------------------------------------------------------------------

class RuleOutReport(Record):
    parameter: PairSetParameter
    verdict: str                 # "ruled_out" | "survives"
    method: str                  # "real_reflection" | "complex_search" | "full_sweep"
    certificate: Optional[ChainCertificate]
    checked: int                 # stabilizer generators tested


def _schreier_generators(st: StabilizerDescription, th: SignedPerm,
                         tables: WeylTables) -> Iterator[SignedPerm]:
    """Generators of W(core)^theta, lazily, by Schreier's lemma.

    A breadth-first search over the W(core)-conjugates x = u theta u^-1,
    with steps x -> g x g for the core simple reflections g, keeps one u_x
    per conjugate; each edge from x to an already known y gives the
    generator u_y^-1 g u_x of theta's stabilizer.
    """
    gens = [tables.reflections[k] for k in st.complex_core.simple_index]
    transversal = {th: tables.identity}
    frontier = [th]
    while frontier:
        nxt = []
        for x in frontier:
            u = transversal[x]
            for g in gens:
                y = perm_mul(perm_mul(g, x), g)
                gu = perm_mul(g, u)
                if y in transversal:
                    yield perm_mul(perm_inv(transversal[y]), gu)
                else:
                    transversal[y] = gu
                    nxt.append(y)
        frontier = nxt


def violates(w: SignedPerm, th: SignedPerm) -> bool:
    """Whether epsilon(w) != det(w) against theta: an odd number of positive
    roots that w sends negative and theta does not fix."""
    return sum(1 for k, x in enumerate(w) if x < 0 and th[k] != k + 1) % 2 == 1


def _ruled_out(p: PairSetParameter, method: str, word: Sequence[int], checked: int) -> RuleOutReport:
    """The report for a word whose chain must violate the sign test."""
    cert = chain_types(p, word)
    if cert.sign == cert.word_sign:
        raise InvariantError("chain of %r did not violate the sign test" % (tuple(word),))
    return RuleOutReport(parameter=p, verdict="ruled_out", method=method,
                         certificate=cert, checked=checked)


def rule_out(p: PairSetParameter) -> RuleOutReport:
    """Decide the sign test for p's orbit, live.

    epsilon * det is a character of the theta-centralizer, so it is tested
    on generators of the stabilizer alone: a real integral reflection, then
    the imaginary integral reflections, then the Schreier generators of
    W(core)^theta.  The first violation rules the class out; if none
    violates, it survives.
    """
    system = _ambient(p)
    st = stabilizer(p)
    if st.real.positive_index:
        word = canonical_reflection_word(st.real.positive_index[0] + 1, system)
        return _ruled_out(p, "real_reflection", word, 1)
    tables = weyl_tables(system)
    th = theta_perm(p)
    checked = 0
    for k in st.imaginary.positive_index:
        checked += 1
        if violates(tables.reflections[k], th):
            return _ruled_out(p, "complex_search", canonical_reflection_word(k + 1, system), checked)
    for w in _schreier_generators(st, th, tables):
        checked += 1
        if violates(w, th):
            return _ruled_out(p, "complex_search", perm_to_word(w, system), checked)
    return RuleOutReport(parameter=p, verdict="survives", method="full_sweep",
                         certificate=None, checked=checked)


@lru_cache(maxsize=None)
def count_small(family: str, rank: Optional[int] = None) -> int:
    """Number of genuine small representations at infinitesimal character
    rho/2: surviving orbits times genuine central characters."""
    survivors = 0
    for _, rep in orbit_representatives(family, rank):
        if rule_out(rep).verdict == "survives":
            survivors += 1
    return survivors * genuine_central_character_count(family, rank)


def survey(family: str, rank: Optional[int] = None) -> Tuple[RuleOutReport, ...]:
    return tuple(rule_out(rep) for _, rep in orbit_representatives(family, rank))


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

class ReplayReport(Record):
    witness_id: str
    certificate: ChainCertificate
    golden_checked: bool


def replay_witness(witness_id: str) -> ReplayReport:
    """Recompute a stored witness chain and compare with its golden data.

    The chain must violate the sign test (epsilon != det); chain roots must
    match up to sign, tags and the imaginary count exactly.
    """
    if witness_id not in witness_data.CATALOG:
        raise ScopeError("unknown witness id %r" % witness_id)
    entry = witness_data.CATALOG[witness_id]
    blocks, pairs = E_CLASS_REPS[(entry.family, entry.signature)]
    p = make_parameter(entry.family, int(entry.family[1]), chi=0, blocks=blocks, pairs=pairs)
    cert = chain_types(p, entry.word)
    if cert.sign == cert.word_sign:
        raise CertificateError(
            "stored witness %s no longer violates the sign test" % witness_id
        )
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
    p = idot(system.doubled_simple[i], system.doubled_simple[j])
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
