"""The Cayley graph: one Cayley transform at a time, the block it reaches,
and the diagram of Cartan classes it induces.

The move generator offers every pair through free slots, and make_parameter
alone decides which of them is a legal transform.  Only the cartans verb
runs this module: the count, the towers and the lift build their
parameters with make_parameter directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .root_system import InvariantError, Record, ScopeError, TransformError, build_root_system
from .classes import CartanClass
from .parameters import Pair, PairSetParameter, class_of, make_parameter, orbit_representatives


def cayley(p: PairSetParameter, pair: Sequence[int]) -> PairSetParameter:
    """Apply one Cayley transform: p with the pair added, by make_parameter's
    rules and with its errors.  The transform root must be a half-integral
    root through slots that no block and no pair of another plane uses, so
    that it is real for p's involution.  The pair takes fresh slots, or
    outside family A completes a single-sign pair to both signs.
    """
    return make_parameter(p.family, p.rank, p.chi, p.blocks, p.pairs + (pair,))


def cayley_moves(p: PairSetParameter) -> Tuple[PairSetParameter, ...]:
    """Every parameter one Cayley transform from p.

    The candidates are the pairs (i, j) through two slots that p leaves
    free, and outside family A also (-i, -j) and the other sign of each
    pair of p; cayley keeps the legal ones.
    """
    signed = p.family != "A"
    used = {abs(x) for q in p.pairs for x in q} | {x for b in p.blocks for x in b}
    free = [i for i in range(1, build_root_system(p.family, p.rank).dim + 1) if i not in used]
    candidates: List[Pair] = []
    for k, i in enumerate(free):
        for j in free[k + 1:]:
            candidates += [(i, j), (-i, -j)] if signed else [(i, j)]
    if signed:
        candidates += [(-a, -b) for a, b in p.pairs]
    moves: List[PairSetParameter] = []
    for pair in candidates:
        try:
            moves.append(cayley(p, pair))
        except TransformError:
            continue
    return tuple(moves)


def enumerate_block(family: str, rank: int, chi: int = 0) -> Tuple[PairSetParameter, ...]:
    """All parameters reachable from gamma(empty) by Cayley transforms (A/D)."""
    if family not in ("A", "D"):
        raise ScopeError("block enumeration is desk-scale only (families A and D)")
    start = make_parameter(family, rank, chi=chi)
    seen: Dict[Tuple[Pair, ...], PairSetParameter] = {start.pairs: start}
    frontier = [start]
    while frontier:
        level = {q.pairs: q for p in frontier for q in cayley_moves(p) if q.pairs not in seen}
        seen.update(level)
        frontier = list(level.values())
    return tuple(sorted(seen.values(), key=lambda p: (len(p.pairs), p.pairs)))


class HasseDiagram(Record):
    classes: Tuple[CartanClass, ...]
    edges: Tuple[Tuple[int, int], ...]  # (from, to) indices; one Cayley step


def hasse_diagram(family: str, rank: Optional[int] = None) -> HasseDiagram:
    """An edge from each class to the class of each parameter one Cayley
    transform from its representative, by the same rule for every family.
    The tests compare the E6, E7 and E8 edges with the fixed table in
    tests/reference.py."""
    reps = orbit_representatives(family, rank)
    classes = tuple(c for c, _ in reps)
    index = {c.signature: k for k, c in enumerate(classes)}
    edges = set()
    for k, (_, rep) in enumerate(reps):
        for q in cayley_moves(rep):
            target = class_of(q)
            if target.signature not in index:
                raise InvariantError("Cayley move left the class list: %r" % (target,))
            edges.add((k, index[target.signature]))
    return HasseDiagram(classes=classes, edges=tuple(sorted(edges)))
