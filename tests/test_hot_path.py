"""Dense Fraction matrices and Fraction arithmetic stay off the count,
lift and tower paths, and out of the integer root-system core.

Every Cartan involution is a signed permutation of the coordinates, so
count_small, lift_trivial and the tower check must never multiply a matrix
or build a reflection matrix.  The reflections (signed permutations of the
positive roots), the integral system at rho/2, the stabilizer and the
canonical reflection words work in doubled integer coordinates, and
chains, certificates, center representatives and lengths hold integers, so
the core and the whole count, lift, tower and verification paths make no
call into the fractions module (and no cold CLI request even loads it:
tests/test_package.py).
The stabilizer sign test reads each swept element's permutation, so
rule_out builds a word and a chain only for the certificate of a violating
element.  Per central character, the tower check builds each distinct
tower parameter once, and the lift each term of each K_S once (the
full-level parameter is the last term of its tower), and both build each
involution once for all central characters.  Calls are counted (through
monkeypatch and sys.setprofile) on cold caches, not by timing.
"""

from __future__ import annotations

import fractions
import sys

import pytest

from cayley_lift import cartan, coherent, dense, parameters
from cayley_lift.center import genuine_central_character_count
from cayley_lift.coherent import (canonical_reflection_word, count_small, reflection, rule_out,
                                   stabilizer)
from cayley_lift.klv_poset import rd_subsets, tower_poset, verify_inversion
from cayley_lift.lifting import lift_trivial
from cayley_lift.parameters import orbit_representatives
from cayley_lift.dense import integral_system
from cayley_lift.root_system import build_root_system
from cayley_lift.theorem import verify_main_theorem

WATCHED = ("mat_mul", "reflection_matrix")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "cayley_lift" or name.startswith("cayley_lift."))]


def _clear_caches():
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _count_calls(monkeypatch, module, names):
    """Clear every package lru_cache, then count calls to each of names (of
    module) in every package namespace that binds it."""
    modules = _package_modules()
    _clear_caches()
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)
    return calls


@pytest.fixture
def matrix_calls(monkeypatch):
    return _count_calls(monkeypatch, dense, WATCHED)


HOT_PATHS = {
    "count_small A 6": lambda: count_small("A", 6),
    "count_small D 5": lambda: count_small("D", 5),
    "count_small E6": lambda: count_small("E6"),
    "count_small E7": lambda: count_small("E7"),
    "count_small E8": lambda: count_small("E8"),
    "lift_trivial D 6": lambda: lift_trivial("D", 6),
    "lift_trivial E7": lambda: lift_trivial("E7"),
    "verify_inversion D 5": lambda: verify_inversion(tower_poset("D", 5)),
    "verify_main_theorem E7": lambda: verify_main_theorem("E7"),
}


@pytest.mark.parametrize("label", sorted(HOT_PATHS))
def test_no_dense_matrices_on_hot_paths(matrix_calls, label):
    HOT_PATHS[label]()
    assert matrix_calls == {"mat_mul": 0, "reflection_matrix": 0}


# make_parameter calls, over every central character, of tower_poset with
# verify_inversion and of lift_trivial.
TOWER_BUILDS = {"D 4": ("D", 4, 28, 52), "D 6": ("D", 6, 52, 84),
                "SL(6)": ("A", 5, 16, 18), "E7": ("E7", None, 16, 18)}


@pytest.mark.parametrize("label", sorted(TOWER_BUILDS))
def test_tower_work_builds_each_tower_parameter_once(monkeypatch, label):
    """On cold caches, tower_poset and verify_inversion build each distinct
    tower parameter once per chi, though towers share terms (gamma(empty)
    is in every one): the scope of M_entry is read off the R_D pairs, not
    off a second chi = 0 poset.  lift_trivial builds, per chi, each term of
    each K_S once, and reads c_S(gamma(empty)) off the last one."""
    family, rank, poset_builds, lift_builds = TOWER_BUILDS[label]
    chis = range(genuine_central_character_count(family, rank))
    subsets = rd_subsets(family, rank)
    terms = sum(2 ** len(s.simple_indices) for s in subsets)
    calls = _count_calls(monkeypatch, parameters, ["make_parameter"])
    distinct = 0
    for chi in chis:
        poset = tower_poset(family, rank, chi)
        assert verify_inversion(poset)
        distinct += len(poset.elements)
    assert calls["make_parameter"] == poset_builds == distinct < len(chis) * terms
    _clear_caches()
    calls["make_parameter"] = 0
    for chi in chis:
        lift_trivial(family, rank, chi)
    assert calls["make_parameter"] == lift_builds == len(chis) * terms


# Distinct pair sets among the tower parameters of every central character.
TOWER_PAIR_SETS = {"D 4": 7, "D 6": 13, "SL(6)": 8, "E7": 8}


@pytest.mark.parametrize("label", sorted(TOWER_BUILDS))
def test_tower_work_builds_each_involution_once_for_every_chi(monkeypatch, label):
    """theta, theta_perm and length are cached on the pair set, which is all
    that the involution depends on, not on the parameter and its chi: on cold
    caches, the tower check and the lift over every central character each
    build one involution per distinct pair set (the parameters differ only
    in chi across characters)."""
    family, rank, _, _ = TOWER_BUILDS[label]
    chis = range(genuine_central_character_count(family, rank))
    pair_sets = {(p.blocks, p.pairs) for chi in chis for p in tower_poset(family, rank, chi).elements}
    assert len(chis) > 1 and len(pair_sets) == TOWER_PAIR_SETS[label]
    calls = _count_calls(monkeypatch, cartan, ["involution_from_pairs"])
    for chi in chis:
        assert verify_inversion(tower_poset(family, rank, chi))
    assert calls["involution_from_pairs"] == len(pair_sets)
    _clear_caches()
    calls["involution_from_pairs"] = 0
    for chi in chis:
        lift_trivial(family, rank, chi)
    assert calls["involution_from_pairs"] == len(pair_sets)


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
        "reflection": sum(_fraction_calls(reflection, system, k)
                          for k in range(len(system.doubled_positive))),
        "integral_system": _fraction_calls(integral_system, lam, system),
        "stabilizer": sum(_fraction_calls(stabilizer, p) for p in reps),
    }
    assert calls == dict.fromkeys(calls, 0)
    signed_indices = range(1, len(system.doubled_positive) + 1)
    assert sum(_fraction_calls(canonical_reflection_word, s, system) for s in signed_indices) == 0


@pytest.mark.parametrize("label", sorted(HOT_PATHS))
def test_hot_paths_make_no_fraction_calls(label):
    _clear_caches()
    assert _fraction_calls(HOT_PATHS[label]) == 0
