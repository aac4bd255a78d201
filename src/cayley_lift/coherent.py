"""The stabilizer sign test and the count of genuine small representations.

For a parameter gamma and a Weyl group element w, the sign epsilon_gamma(w)
is the parity of the imaginary chain roots of a word for w (the chains
module); comparing it with det(w) on the stabilizer of gamma's orbit
decides whether gamma supports a sign-consistent family (it "survives") or
is ruled out.

Every Weyl group element here, and the involution theta, is a signed
permutation of the ambient positive roots: w[k] = +-(j+1) means w maps
positive root k to +-(positive root j), in the signed indices of
RootSystem.index.  W acts faithfully on its roots, so this one
representation serves every family.  A reflection is built from the
doubled coordinates of root_system only when it is asked for (reflection,
cached), so the only elements built are theta's and the core simple
reflections, and no table of all N.  Reduced words peel simple reflections
off a permutation, and reflection words descend on a doubled root.  The
root subsystems (the integral one at rho/2 and its real, imaginary and core
parts) are held as positive-root indices.  theta on the roots needs only
the system's index (parameters), and the chain roots of a word only the
simple roots (chains), so the towers, the lift and a witness replay
(witness_data) run none of this module.

For a reduced word the chain roots are, up to sign, the positive roots
that w sends negative (Bourbaki VI 1.6), so epsilon * det is the parity of
w's non-imaginary inversions and the sign test reads the permutation.
That parity is a character of the centralizer of theta (N(xy) is N(y)
plus y^-1 N(x) mod 2), so it is tested on generators of the stabilizer
only: a real integral reflection, then the Schreier generators of
W(core)^theta, each read off the parity labels of two conjugates of
theta, stopping at the first violation, which alone becomes a word and a
certificate.  The imaginary integral reflections, the other generators,
are never tested: the inversions of s_alpha other than alpha pair off as
beta and alpha - beta (Bjorner-Brenti, GTM 231), and when theta fixes
alpha it fixes both or neither, so an imaginary reflection never
violates; when theta negates alpha it fixes none (theta(beta) = beta
would send alpha - beta to -alpha - beta, no root), so a real one always
does.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Iterable, List, Optional, Sequence, Tuple

from .root_system import (Doubled, InvariantError, Record, RootSystem, SignedPerm, Vector,
                          WeylWord, build_root_system, forwarding, idot, is_integral)
from .center import genuine_central_character_count
from .parameters import PairSetParameter, orbit_representatives, theta_perm
from .chains import ChainCertificate, chain_types


# ---------------------------------------------------------------------------
# Weyl group elements
# ---------------------------------------------------------------------------

def perm_mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """The product a.b of two signed permutations (b acts first)."""
    return tuple([a[j - 1] if j > 0 else -a[-j - 1] for j in b])


@lru_cache(maxsize=None)
def reflection(system: RootSystem, k: int) -> SignedPerm:
    """s_a for the positive root a of 0-based index k, as a signed
    permutation of the positive roots, from the doubled coordinates:
    s_a(d) = d - <d, a^vee> a, and on doubled roots of a simply-laced
    system <d, a^vee> is the integer (d . a) / 4."""
    doubled, index = system.doubled_positive, system.index
    a = doubled[k]
    return tuple([index[tuple([x - idot(d, a) // 4 * y for x, y in zip(d, a)])] for d in doubled])


def perm_to_word(w: SignedPerm, system: RootSystem) -> WeylWord:
    """Reduced word (printed order) for w, by descent on the positive roots.

    Repeatedly peels off, on the right, the first simple root that w sends
    negative.  Raises ValueError if w is not in the Weyl group.
    """
    simple = [system.index[a] - 1 for a in system.doubled_simple]
    identity = tuple(range(1, len(system.doubled_positive) + 1))
    rev: List[int] = []
    for _ in range(len(w) + 1):
        if w == identity:
            return tuple(reversed(rev))
        i = next((i for i, k in enumerate(simple) if w[k] < 0), None)
        if i is None:
            break
        w = perm_mul(w, reflection(system, simple[i]))
        rev.append(i)
    raise ValueError("element is not in the Weyl group")


# ---------------------------------------------------------------------------
# Root subsystems
# ---------------------------------------------------------------------------

class RootSubsystem(Record):
    """A reflection-closed set of roots of a system, held as ascending
    0-based positive-root indices; the root vectors are views."""

    system: RootSystem
    positive_index: Tuple[int, ...]
    simple_index: Tuple[int, ...]

    @cached_property
    def positive(self) -> Tuple[Vector, ...]:
        return tuple(self.system.positive_roots[k] for k in self.positive_index)


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
def _integral_system(system: RootSystem) -> RootSubsystem:
    """The roots integral at rho/2."""
    return subsystem(system, (k for k, d in enumerate(system.doubled_positive)
                              if is_integral(system, d)))


# ---------------------------------------------------------------------------
# Reflection words
# ---------------------------------------------------------------------------

def canonical_reflection_word(s: int, system: RootSystem) -> WeylWord:
    """Deterministic palindromic word for the reflection in the root with
    signed index s (see RootSystem.index).

    Repeatedly conjugates by the smallest-index simple reflection that strictly
    lowers the height of the conjugated (positive) root: s_i lowers b exactly
    when (b, alpha_i) > 0, and then s_i(b) = b - alpha_i, all on doubled roots.
    """
    if not 0 < abs(s) <= len(system.doubled_positive):
        raise ValueError("not a root: %r" % (s,))
    simple = system.doubled_simple
    b = system.doubled_positive[abs(s) - 1]
    prefix: List[int] = []
    while b not in simple:
        i = next(i for i, a in enumerate(simple) if idot(b, a) > 0)
        b = tuple([x - y for x, y in zip(b, simple[i])])
        prefix.append(i)
    return tuple(prefix) + (simple.index(b),) + tuple(reversed(prefix))


# ---------------------------------------------------------------------------
# Stabilizer data
# ---------------------------------------------------------------------------

class StabilizerDescription(Record):
    parameter: PairSetParameter
    integral: RootSubsystem            # Delta(rho/2)
    real: RootSubsystem                # real integral roots
    imaginary: RootSubsystem           # imaginary integral roots
    complex_core: RootSubsystem        # integral roots orthogonal to both rho_r, rho_i


@lru_cache(maxsize=None)
def stabilizer(p: PairSetParameter) -> StabilizerDescription:
    """The split of Delta(rho/2) by theta, on positive-root indices: theta
    fixes the imaginary roots and negates the real ones; the core is
    orthogonal to both of their half sums (integer dot products)."""
    system = build_root_system(p.family, p.rank)
    th = theta_perm(p)
    integral = _integral_system(system)
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
# The sign test
# ---------------------------------------------------------------------------

class RuleOutReport(Record):
    parameter: PairSetParameter
    verdict: str                 # "ruled_out" | "survives"
    method: str                  # "real_reflection" | "complex_search" | "full_sweep"
    certificate: Optional[ChainCertificate]
    checked: int                 # 1 for a real reflection, else conjugates of theta labelled


def violates(w: SignedPerm, th: SignedPerm) -> bool:
    """Whether epsilon(w) != det(w) against theta: an odd number of positive
    roots that w sends negative and theta does not fix."""
    return sum(1 for k, x in enumerate(w) if x < 0 and th[k] != k + 1) % 2 == 1


def _core_violation(st: StabilizerDescription, th: SignedPerm) -> Tuple[Optional[SignedPerm], int]:
    """A violating element of W(core)^theta, or None, and the number of
    W(core)-conjugates of theta labelled.

    A breadth-first search over the conjugates x = u_x theta u_x^-1, with
    steps x -> y = g x g for the core simple reflections g, labels each x
    with pi(x) = violates(u_x, theta), by pi(y) = pi(x) XOR violates(g, x)
    on a tree edge.  Any edge to a labelled y gives the Schreier generator
    u_y^-1 g u_x of theta's stabilizer, which violates exactly when pi(y)
    differs from that sum; only the first such one is built, from the steps.
    """
    core = st.complex_core
    gens = [reflection(core.system, k) for k in core.simple_index]
    labels = {th: (False, ())}  # conjugate -> (pi, steps from theta, last first)
    frontier = [th]
    while frontier:
        nxt = []
        for x in frontier:
            pi, steps = labels[x]
            for g in gens:
                y = perm_mul(perm_mul(g, x), g)
                pi_y = pi != violates(g, x)
                known = labels.get(y)
                if known is None:
                    labels[y] = (pi_y, (g,) + steps)
                    nxt.append(y)
                elif known[0] != pi_y:
                    return reduce(perm_mul, known[1][::-1] + (g,) + steps), len(labels)
        frontier = nxt
    return None, len(labels)


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
    on generators of the stabilizer alone: a real integral reflection, which
    always violates, then the Schreier generators of W(core)^theta, read off
    the labels of theta's W(core)-orbit (an imaginary reflection never
    violates; see the module docstring).  The first violation rules the
    class out; if none violates, it survives.  checked is 1 for a real
    reflection, else the conjugates labelled, which for a survivor are the
    whole orbit.
    """
    system = build_root_system(p.family, p.rank)
    st = stabilizer(p)
    if st.real.positive_index:
        word = canonical_reflection_word(st.real.positive_index[0] + 1, system)
        return _ruled_out(p, "real_reflection", word, 1)
    w, labelled = _core_violation(st, theta_perm(p))
    if w is not None:
        return _ruled_out(p, "complex_search", perm_to_word(w, system), labelled)
    return RuleOutReport(parameter=p, verdict="survives", method="full_sweep",
                         certificate=None, checked=labelled)


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
# Forwarded names
# ---------------------------------------------------------------------------
# Names that perfbench/trace_child.py wraps in this module (the acceptance gate
# also imports replay_witness from it), and the modules that now hold them;
# nothing in the package reads them here.
_FORWARDED = {"replay_witness": "witness_data", "matrix_to_word": "dense"}
__getattr__ = forwarding(__name__, _FORWARDED)
