"""The representative pair data of the E6, E7 and E8 Cartan classes.

A and D representatives follow from a rule (classes._class_reps); the E ones
are this table, which only requests on an E group load: the class map and a
witness replay.  Each row is a classes.RepData, (blocks, pairs); the table
imports nothing from the package, so a replay runs no class map.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Tuple

# Representative pair data for the E classes, keyed by (family, signature).
# Read-only: the literal's order is the printed E class order.
E_CLASS_REPS: Mapping[Tuple[str, Tuple[int, int, int]], RepData] = MappingProxyType({
    ("E6", (2, 2, 0)): (((1, 2, 3, 4),), ()),
    ("E6", (0, 3, 0)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E6", (0, 2, 2)): ((), ((1, 2), (-1, -2))),
    ("E6", (0, 1, 4)): ((), ((1, 2),)),
    ("E6", (0, 0, 6)): ((), ()),
    ("E7", (7, 0, 0)): (((1, 2, 3, 4, 5, 6),), ((7, 8),)),
    ("E7", (5, 1, 0)): (((1, 2, 3, 4),), ((5, 6), (7, 8))),
    ("E7", (3, 2, 0)): (((1, 2, 3, 4),), ((7, 8),)),
    ("E7", (1, 3, 0)): ((), ((1, 2), (-1, -2), (3, 4), (7, 8))),
    ("E7", (2, 2, 1)): (((1, 2, 3, 4),), ()),
    ("E7", (1, 2, 2)): ((), ((1, 2), (-1, -2), (7, 8))),
    ("E7", (0, 3, 1)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E7", (0, 2, 3)): ((), ((1, 2), (-1, -2))),
    ("E7", (0, 1, 5)): ((), ((1, 2),)),
    ("E7", (0, 0, 7)): ((), ()),
    ("E8", (8, 0, 0)): (((1, 2, 3, 4, 5, 6, 7, 8),), ()),
    ("E8", (6, 1, 0)): (((1, 2, 3, 4, 5, 6),), ((7, 8),)),
    ("E8", (4, 2, 0)): (((1, 2, 3, 4),), ((5, 6), (7, 8))),
    ("E8", (2, 3, 0)): (((1, 2, 3, 4),), ((5, 6),)),
    ("E8", (0, 4, 0)): ((), ((1, 2), (-1, -2), (3, 4), (5, 6))),
    ("E8", (2, 2, 2)): ((), ((1, 2), (-1, -2), (3, 4), (-3, -4))),
    ("E8", (0, 3, 2)): ((), ((1, 2), (-1, -2), (3, 4))),
    ("E8", (0, 2, 4)): ((), ((1, 2), (-1, -2))),
    ("E8", (0, 1, 6)): ((), ((1, 2),)),
    ("E8", (0, 0, 8)): ((), ()),
})
