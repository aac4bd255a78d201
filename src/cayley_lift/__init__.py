"""Exact combinatorics of genuine small representations of nonlinear
double covers of split simply-laced groups at infinitesimal character rho/2."""

from __future__ import annotations

import importlib.util
import sys

# Public names by home module.  A submodule runs on first use of one of its
# names, or of the module itself, so each CLI verb executes only what it calls.
_EXPORTS = {
    "root_system": ("CertificateError", "InvariantError", "RootSystem", "ScopeError",
                    "TransformError", "WordError", "build_root_system"),
    "cartan": ("Involution",),
    "classes": ("CartanClass", "TorusShape", "cartan_classes", "cartan_shape",
                "involution_for_class"),
    "center": ("CenterData", "FiniteAbelianGroup", "cover_center_data",
               "genuine_central_character_count"),
    "parameters": ("PairSetParameter", "class_of", "length", "make_parameter",
                   "orbit_representatives", "theta", "tower_parameter"),
    "cayley_graph": ("HasseDiagram", "cayley", "enumerate_block", "hasse_diagram"),
    "chains": ("ChainCertificate", "chain_types"),
    "coherent": ("RootSubsystem", "RuleOutReport", "StabilizerDescription",
                 "canonical_reflection_word", "count_small", "rule_out", "stabilizer"),
    "witness_data": ("replay_witness",),
    "klv_poset": ("M_entry", "ParameterPoset", "contains", "m_entry", "pi_RD", "rd_subsets",
                  "tower_poset", "verify_inversion"),
    "lifting": ("FormalIntegerCombination", "K_coefficient", "cartan_constant", "lift_trivial"),
    "theorem": ("TheoremReport", "verify_main_theorem"),
    "dense": ("integral_system", "root_type"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """Register submodule `name` in sys.modules without running it."""
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# cli is left out: python -m warns about a module already in sys.modules.
globals().update((name, _lazy(name)) for name in (*_EXPORTS, "e_classes"))


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = sorted(_HOME)
