"""Dense Fraction matrices stay off the count, lift and tower paths, and
Fraction arithmetic stays out of the integer root-system core.

Every Cartan involution is a signed permutation of the coordinates, so
count_small, lift_trivial and the tower check must never multiply a matrix
or build a reflection matrix.  The Weyl tables, the integral system at
rho/2, the stabilizer and the canonical reflection words work in doubled
integer coordinates, so they must make no call into the fractions module.
The stabilizer sign test reads each swept element's permutation, so
rule_out builds a word and a chain only for the certificate of a violating
element.  Calls are counted (through monkeypatch and sys.setprofile) on cold
caches, not by timing.
"""

from __future__ import annotations

import fractions
import sys

import pytest

from cayley_lift import coherent, root_system
from cayley_lift.coherent import count_small, rule_out, stabilizer
from cayley_lift.klv_poset import tower_poset, verify_inversion
from cayley_lift.lifting import lift_trivial
from cayley_lift.parameters import orbit_representatives
from cayley_lift.root_system import (
    build_root_system,
    canonical_reflection_word,
    integral_system,
    weyl_tables,
)

WATCHED = ("mat_mul", "reflection_matrix")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cayley_lift" or name.startswith("cayley_lift."))]


def _clear_caches():
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def matrix_calls(monkeypatch):
    """Clear every package lru_cache, then count calls to WATCHED in every
    package namespace that binds them."""
    modules = _package_modules()
    _clear_caches()
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
    "count_small E7": lambda: count_small("E7"),
    "count_small E8": lambda: count_small("E8"),
    "lift_trivial D 6": lambda: lift_trivial("D", 6),
    "lift_trivial E7": lambda: lift_trivial("E7"),
    "verify_inversion D 5": lambda: verify_inversion(tower_poset("D", 5)),
}


@pytest.mark.parametrize("label", sorted(HOT_PATHS))
def test_no_dense_matrices_on_hot_paths(matrix_calls, label):
    HOT_PATHS[label]()
    assert matrix_calls == {"mat_mul": 0, "reflection_matrix": 0}


@pytest.mark.parametrize("family, rank", [("A", 6), ("D", 5), ("E6", None), ("E7", None), ("E8", None)])
def test_rule_out_chains_only_its_certificate(monkeypatch, family, rank):
    calls = {"chain_types": 0, "perm_to_word": 0}
    for name in calls:
        original = getattr(coherent, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(coherent, name, counted)
    verdicts = set()
    for _, p in orbit_representatives(family, rank):
        calls.update(dict.fromkeys(calls, 0))
        report = rule_out(p)
        verdicts.add(report.verdict)
        if report.verdict == "survives":
            assert calls == {"chain_types": 0, "perm_to_word": 0}
        else:
            assert calls["chain_types"] == 1
    assert verdicts == {"survives", "ruled_out"}


def _fraction_calls(function, *args):
    """Number of calls into the fractions module made by function(*args)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("family, rank", [("A", 6), ("D", 5), ("E6", None), ("E8", None)])
def test_integer_core_makes_no_fraction_calls(family, rank):
    reps = [p for _, p in orbit_representatives(family, rank)]
    _clear_caches()
    system = build_root_system(family, rank)
    lam = system.rho_half
    calls = {
        "weyl_tables": _fraction_calls(weyl_tables, system),
        "integral_system": _fraction_calls(integral_system, lam, system),
        "stabilizer": sum(_fraction_calls(stabilizer, p) for p in reps),
    }
    assert calls == dict.fromkeys(calls, 0)
    signed_indices = range(1, len(weyl_tables(system).doubled) + 1)
    assert sum(_fraction_calls(canonical_reflection_word, s, system) for s in signed_indices) == 0
