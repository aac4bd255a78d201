"""Dense Fraction matrices stay off the count, lift and tower paths.

Every Cartan involution is a signed permutation of the coordinates, so
count_small, lift_trivial and the tower check must never multiply a matrix
or build a reflection matrix.  Calls are counted through monkeypatch on
cold caches, not by timing.
"""

from __future__ import annotations

import sys

import pytest

from cayley_lift import root_system
from cayley_lift.coherent import count_small
from cayley_lift.klv_poset import tower_poset, verify_inversion
from cayley_lift.lifting import lift_trivial

WATCHED = ("mat_mul", "reflection_matrix")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cayley_lift" or name.startswith("cayley_lift."))]


@pytest.fixture
def matrix_calls(monkeypatch):
    """Clear every package lru_cache, then count calls to WATCHED in every
    package namespace that binds them."""
    modules = _package_modules()
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = {name: 0 for name in WATCHED}
    for name in WATCHED:
        original = getattr(root_system, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


HOT_PATHS = {
    "count_small A 6": lambda: count_small("A", 6),
    "count_small D 5": lambda: count_small("D", 5),
    "count_small E6": lambda: count_small("E6"),
    "lift_trivial D 6": lambda: lift_trivial("D", 6),
    "lift_trivial E7": lambda: lift_trivial("E7"),
    "verify_inversion D 5": lambda: verify_inversion(tower_poset("D", 5)),
}


@pytest.mark.parametrize("label", sorted(HOT_PATHS))
def test_no_dense_matrices_on_hot_paths(matrix_calls, label):
    HOT_PATHS[label]()
    assert matrix_calls == {"mat_mul": 0, "reflection_matrix": 0}
