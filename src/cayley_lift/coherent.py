"""Coherent-continuation sign counts and the stabilizer sign test.

For a parameter gamma and a Weyl group element w given as a word in the
ambient simple reflections, the letters are consumed from the right; the
k-th consumed letter alpha_k contributes the chain root
beta_k = s_{alpha_1} ... s_{alpha_{k-1}}(alpha_k), and each beta_k is
tagged real / imaginary / complex against gamma's fixed involution.  The
parity of the imaginary count defines the sign epsilon_gamma(w); comparing
it with det(w) on the stabilizer of gamma's orbit decides whether gamma
supports a sign-consistent family (it "survives") or is ruled out.

Every Weyl group element here (weyl.WeylTables), and the involution theta,
is a signed permutation of the ambient positive roots (RootSystem.index),
and a certificate holds each chain root as its signed index; the root
vectors are a view.  For a reduced word the chain roots are, up to sign, the
positive roots that w sends negative (Bourbaki VI 1.6), so epsilon * det
is the parity of w's non-imaginary inversions and the sign test reads the
permutation.  That parity is a character of the centralizer of theta
(N(xy) is N(y) plus y^-1 N(x) mod 2), so it is tested on generators of
the stabilizer only: a real integral reflection, the imaginary ones, then
one of each inverse pair of Schreier generators of W(core)^theta, stopping
at the first violation, which alone becomes a word and a certificate.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence, Tuple

from .root_system import (
    CertificateError,
    Doubled,
    InvariantError,
    Matrix,
    Record,
    RootSubsystem,
    RootSystem,
    ScopeError,
    SignedPerm,
    Vector,
    WeylWord,
    _doubled_sum,
    _integral_system,
    _view,
    build_root_system,
    canonical_reflection_word,
    idot,
    neg,
    subsystem,
)
from .weyl import (
    WeylTables,
    beta_chain_for_word,
    perm_inv,
    perm_mul,
    perm_to_word,
    root_permutation,
    weyl_tables,
    word_matrix,
)
from .cartan import (COMPLEX, IMAGINARY, REAL, CartanClass, class_rep_data,
                     genuine_central_character_count)
from .parameters import (
    PairSetParameter,
    make_parameter,
    orbit_representatives,
    theta_perm,
)
from . import witness_data


class ChainCertificate(Record):
    """The chain of a word against p's involution: the signed positive-root
    index and the tag of each chain root, in consumption order; the
    (beta_k, tag) pairs with root vectors are the steps view."""

    parameter: PairSetParameter
    word: WeylWord
    indices: Tuple[int, ...]
    tags: Tuple[str, ...]
    imaginary_count: int
    sign: int        # epsilon = (-1)^imaginary_count
    word_sign: int   # det of the word, (-1)^len

    @cached_property
    def doubled_steps(self) -> Tuple[Doubled, ...]:
        """Twice each chain root, in consumption order."""
        return tuple(map(weyl_tables(_ambient(self.parameter)).doubled_root, self.indices))

    @cached_property
    def steps(self) -> Tuple[Tuple[Vector, str], ...]:
        return tuple(zip(map(_view, self.doubled_steps), self.tags))


def _ambient(p: PairSetParameter) -> RootSystem:
    return build_root_system(p.family, p.rank)


def chain_types(p: PairSetParameter, word: Sequence[int]) -> ChainCertificate:
    """Chain roots and their types for the word, against p's involution."""
    word = tuple(word)
    indices = beta_chain_for_word(word, _ambient(p))
    th = theta_perm(p)  # a root and its negative have the same type
    tags = tuple({k: IMAGINARY, -k: REAL}.get(th[k - 1], COMPLEX) for k in map(abs, indices))
    m = tags.count(IMAGINARY)
    return ChainCertificate(
        parameter=p,
        word=word,
        indices=indices,
        tags=tags,
        imaginary_count=m,
        sign=-1 if m % 2 else 1,
        word_sign=-1 if len(word) % 2 else 1,
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
    generator u_y^-1 g u_x of theta's stabilizer.  The same edge read from
    y gives its inverse, so an edge is read only from the endpoint found
    first, and an edge whose generator is the identity (u_y = g u_x, as on
    every tree edge) yields nothing.
    """
    gens = [tables.reflections[k] for k in st.complex_core.simple_index]
    transversal = {th: (0, tables.identity)}  # conjugate -> (discovery index, u)
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
    c = CartanClass(entry.family, build_root_system(entry.family, None).rank, entry.signature)
    p = make_parameter(entry.family, None, 0, *class_rep_data(c))
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
        if len(entry.golden) != len(cert.tags):
            raise CertificateError(
                "witness %s: %d steps, stored %d"
                % (witness_id, len(cert.tags), len(entry.golden))
            )
        steps = zip(cert.doubled_steps, cert.tags)
        for k, ((root, tag), (groot, gtag)) in enumerate(zip(steps, entry.golden)):
            if root != groot and root != neg(groot):
                raise CertificateError(
                    "witness %s: step %d root %r differs from stored %r (doubled)"
                    % (witness_id, k + 1, root, groot)
                )
            if tag != gtag:
                raise CertificateError(
                    "witness %s: step %d tag %s differs from stored %s"
                    % (witness_id, k + 1, tag, gtag)
                )
        golden_checked = True
    return ReplayReport(witness_id=witness_id, certificate=cert, golden_checked=golden_checked)
