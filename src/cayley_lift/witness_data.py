"""Stored sign-test witnesses for the exceptional families.

Each entry fixes a Weyl word (printed order, 0-based simple indices) whose
chain violates the sign test for one Cartan class, together with golden
chain data where the full step list is pinned.  rule_out decides every
class live and never reads this catalog: it is replay data for
replay_witness and an independent cross-check in the tests.  The four
searched words were found offline by a breadth-first sweep of the
theta-commuting core Weyl group (a copy of the sweep in coherent), the
script search_stabilizer_witnesses.py, last present at commit 1a782c6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .root_system import Vector, WeylWord, basis_vector, beta_root, sub

IM = "im"
RE = "real"
CX = "cx"

_DIM = 8


def _e(i: int) -> Vector:
    return basis_vector(i, _DIM)


def _pe(i: int, j: int) -> Vector:
    return tuple(a + b for a, b in zip(_e(i), _e(j)))


def _me(i: int, j: int) -> Vector:
    """-e_i + e_j."""
    return sub(_e(j), _e(i))


def _b(*positions: int) -> Vector:
    return beta_root(positions)


@dataclass(frozen=True)
class WitnessEntry:
    witness_id: str
    family: str
    signature: Tuple[int, int, int]
    word: WeylWord                      # printed order, 0-based simple indices
    imaginary_count: int
    golden: Optional[Tuple[Tuple[Vector, str], ...]]
    source: str                         # "printed" | "searched"


def _w(*letters_1based: int) -> WeylWord:
    return tuple(x - 1 for x in letters_1based)


# --- three-letter real-reflection witnesses --------------------------------
# s_{35} = s_{45} s_{34} s_{45}; chain (-e4+e5, -e3+e5, -e3+e4), all real.
_S35_WORD = _w(6, 5, 6)
_S35_GOLDEN = ((_me(4, 5), RE), (_me(3, 5), RE), (_me(3, 4), RE))
# s_{57} = s_{67} s_{56} s_{67}; chain (-e6+e7, -e5+e7, -e5+e6), all real.
_S57_WORD = _w(8, 7, 8)
_S57_GOLDEN = ((_me(6, 7), RE), (_me(5, 7), RE), (_me(5, 6), RE))

# --- the twelve-letter witness ---------------------------------------------
# s13 s_{1bar3} s24 s_{2bar4} = -Id on slots 1..4, written as
# s23 s12 s_{1bar2} s23 s34 s23 s12 s23 s_{1bar2} s23 s12 s34.
_TWELVE_WORD = _w(4, 3, 2, 4, 5, 4, 3, 4, 2, 4, 3, 5)
_TWELVE_GOLDEN = (
    (_me(3, 4), IM),
    (_me(1, 2), IM),
    (_me(1, 4), CX),
    (_pe(2, 4), CX),
    (_pe(1, 2), IM),
    (_pe(1, 4), CX),
    (sub(_e(2), _e(4)), CX),
    (_pe(3, 4), RE),
    (_pe(2, 3), CX),
    (_pe(1, 3), CX),
    (_me(1, 3), CX),
    (_me(2, 3), CX),
)

# --- searched witnesses ----------------------------------------------------
# Found by the offline sweep: the shortest theta-fixed element of the core
# Weyl group whose chain violates the sign test.  In all four classes it is
# a product of four commuting core reflections, written out through the
# canonical palindromic word of each reflection.
_E7_510_WORD = (
    2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 6, 5, 4, 3, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2,
    1, 1, 3, 4, 5, 4, 3, 1,
)
_E8_610_WORD = (
    4, 3, 2, 0, 5, 4, 3, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 3, 4, 5, 0,
    2, 3, 4, 3, 2, 0, 6, 5, 4, 3, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 3,
    4, 5, 6, 0, 2, 3, 1, 4, 3, 2, 0, 6, 5, 4, 3, 1, 2, 3, 4, 5, 6, 7, 6, 5,
    4, 3, 2, 1, 3, 4, 5, 6, 0, 2, 3, 4, 1, 1, 3, 2, 0, 5, 4, 3, 1, 2, 3, 4,
    5, 6, 7, 6, 5, 4, 3, 2, 1, 3, 4, 5, 0, 2, 3, 1,
)
_E8_420_WORD = _E7_510_WORD
_E8_230_WORD = _E7_510_WORD

# --- the 72-letter witness for the E7 class (3,2,0) ------------------------
# Product of the four commuting reflections r_{4567} r_{123567} r_{1247} r_{37},
# each conjugated into position from r_{234567} = alpha_1; the two copies of
# the s_{5bar6} conjugator meeting at the middle junction cancel.
_W56 = (6, 5, 4, 3, 7, 6, 5, 4, 2, 4, 5, 6, 7, 3, 4, 5, 6)   # s_{5bar6}
_W24 = (3, 5, 4, 2, 4, 5, 3)                                 # s_{2bar4}
_R4567 = (3, 4, 2, 4, 3, 1, 3, 4, 2, 4, 3)
_R123567 = (5, 4, 3, 1, 3, 4, 5)
_E7_320_WORD = _w(
    *(_R4567 + _R123567 + _W56 + (4, 3, 1, 3, 4) + _W24 + (1,) + _W24 + _W56)
)
_E7_320_GOLDEN = (
    (_me(4, 5), CX),
    (_me(3, 5), CX),
    (_me(2, 5), CX),
    (_me(1, 5), CX),
    (_me(4, 6), CX),
    (_me(3, 6), CX),
    (_me(2, 6), CX),
    (_me(1, 6), CX),
    (_pe(5, 6), RE),
    (_pe(1, 5), CX),
    (_pe(2, 5), CX),
    (_pe(3, 5), CX),
    (_pe(4, 5), CX),
    (_pe(1, 6), CX),
    (_pe(2, 6), CX),
    (_pe(3, 6), CX),
    (_pe(4, 6), CX),
    (_me(1, 2), IM),
    (_me(3, 4), IM),
    (_me(1, 4), IM),
    (_pe(2, 4), IM),
    (_pe(1, 2), IM),
    (_pe(2, 3), IM),
    (_pe(1, 4), IM),
    (_b(3, 7), CX),
    (_b(1, 3, 4, 7), CX),
    (_pe(2, 3), IM),
    (_b(1, 2, 3, 7), CX),
    (_b(2, 3, 4, 7), CX),
    (_me(1, 4), IM),
    (_b(4, 7), CX),
    (_me(1, 2), IM),
    (_b(2, 7), CX),
    (_b(1, 7), CX),
    (_b(1, 2, 4, 7), CX),
    (_pe(2, 4), IM),
    (_pe(1, 4), IM),
    (_b(3, 4, 6, 7), CX),
    (_b(1, 2, 3, 4, 6, 7), CX),
    (_b(2, 3, 6, 7), CX),
    (_b(1, 3, 6, 7), CX),
    (_b(3, 4, 5, 7), CX),
    (_b(1, 2, 3, 4, 5, 7), CX),
    (_b(2, 3, 5, 7), CX),
    (_b(1, 3, 5, 7), CX),
    (_me(7, 8), IM),
    (_b(2, 4, 6, 7), CX),
    (_b(1, 4, 6, 7), CX),
    (_b(6, 7), CX),
    (_b(1, 2, 6, 7), CX),
    (_b(2, 4, 5, 7), CX),
    (_b(1, 4, 5, 7), CX),
    (_b(5, 7), CX),
    (_b(1, 2, 5, 7), CX),
    (_pe(1, 2), IM),
    (_me(2, 4), IM),
    (_me(1, 4), IM),
    (_b(1, 2, 3, 5, 6, 7), CX),
    (_b(2, 3, 4, 5, 6, 7), CX),
    (_b(1, 3, 4, 5, 6, 7), CX),
    (_b(3, 5, 6, 7), CX),
    (_me(1, 2), IM),
    (_pe(2, 4), IM),
    (_b(1, 5, 6, 7), CX),
    (_b(1, 2, 4, 5, 6, 7), CX),
    (_b(2, 5, 6, 7), CX),
    (_b(4, 5, 6, 7), CX),
    (_me(2, 4), IM),
    (_pe(1, 2), IM),
    (_me(1, 4), IM),
    (_pe(2, 4), IM),
    (sub(_e(1), _e(2)), IM),
)


CATALOG: Dict[str, WitnessEntry] = {
    e.witness_id: e
    for e in (
        # real-reflection witnesses (epsilon = +1, det = -1)
        WitnessEntry("E6-022-s35", "E6", (0, 2, 2), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E6-014-s35", "E6", (0, 1, 4), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E6-006-s35", "E6", (0, 0, 6), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E7-007-s35", "E7", (0, 0, 7), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E7-015-s35", "E7", (0, 1, 5), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E7-023-s35", "E7", (0, 2, 3), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E7-122-s35", "E7", (1, 2, 2), _S35_WORD, 0, _S35_GOLDEN, "printed"),
        WitnessEntry("E8-008-s57", "E8", (0, 0, 8), _S57_WORD, 0, _S57_GOLDEN, "printed"),
        WitnessEntry("E8-016-s57", "E8", (0, 1, 6), _S57_WORD, 0, _S57_GOLDEN, "printed"),
        WitnessEntry("E8-024-s57", "E8", (0, 2, 4), _S57_WORD, 0, _S57_GOLDEN, "printed"),
        WitnessEntry("E8-032-s57", "E8", (0, 3, 2), _S57_WORD, 0, _S57_GOLDEN, "printed"),
        WitnessEntry("E8-222-s57", "E8", (2, 2, 2), _S57_WORD, 0, _S57_GOLDEN, "printed"),
        # complex witnesses (epsilon = -1, det = +1)
        WitnessEntry("E6-030", "E6", (0, 3, 0), _TWELVE_WORD, 3, _TWELVE_GOLDEN, "printed"),
        WitnessEntry("E7-130", "E7", (1, 3, 0), _TWELVE_WORD, 3, _TWELVE_GOLDEN, "printed"),
        WitnessEntry("E7-031", "E7", (0, 3, 1), _TWELVE_WORD, 3, _TWELVE_GOLDEN, "printed"),
        WitnessEntry("E8-040", "E8", (0, 4, 0), _TWELVE_WORD, 3, _TWELVE_GOLDEN, "printed"),
        WitnessEntry("E7-320", "E7", (3, 2, 0), _E7_320_WORD, 23, _E7_320_GOLDEN, "printed"),
        WitnessEntry("E7-510", "E7", (5, 1, 0), _E7_510_WORD, 13, None, "searched"),
        WitnessEntry("E8-610", "E8", (6, 1, 0), _E8_610_WORD, 53, None, "searched"),
        WitnessEntry("E8-420", "E8", (4, 2, 0), _E8_420_WORD, 13, None, "searched"),
        WitnessEntry("E8-230", "E8", (2, 3, 0), _E8_230_WORD, 13, None, "searched"),
    )
}
