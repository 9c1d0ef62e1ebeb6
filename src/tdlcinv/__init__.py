"""Exact finite-scale invariants of totally disconnected locally compact groups.

Modules cover sparse rational linear algebra, simplicial (co)homology,
graphs with edge inversion and coset-graph balls, finite graphs of finite
groups with their universal trees, Coxeter groups read off their
classified degrees, Davis chamber duality verdicts, and Haar-measure-valued
Euler characteristics.  Every mathematical value produced is an exact
integer or rational.

The names below are imported from their modules on first use (PEP 562), so
``import tdlcinv`` loads no module until one of its names is read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coxeter": (
        "AffineCartanPair", "CartanMatrix", "affine_preset", "alternating_sum_identity",
        "bott_check", "enumerate_by_length", "exponents", "finite_preset", "poincare_poly",
    ),
    "davis": ("DualityVerdict", "build_chamber", "duality_verdict", "kac_moody_verdict"),
    "diagrams": ("CoxeterSystem",),
    "errors": ("ValidationError",),
    "euler": (
        "ResolutionDescription", "chevalley_chi", "chi_from_resolution", "chi_via_parahoric_sum",
        "hs_rank_permutation",
    ),
    "graphs_of_groups": (
        "GraphOfFiniteGroups", "PiRepresentation", "PiWord", "aut_tree_chi", "build_gog", "load_gog",
        "load_representation",
    ),
    "groups": ("FiniteGroup", "Hom", "group_from_spec"),
    "haar": ("HaarValue",),
    "polynomial": ("IntPolynomial",),
    "ratlin": ("Rational", "RationalMatrix", "homology_dims"),
    "serre_graphs": (
        "FiniteGroupOracle", "IntegerLineOracle", "SerreGraph", "connectivity_equals_generation",
        "load_graph", "rough_cayley_ball",
    ),
    "simplicial": (
        "OrientedSimplex", "SignedSet", "SimplicialComplex", "ball_sphere_growth", "line_window",
        "load_complex", "load_pair", "regular_tree_window", "relative_cohomology",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached in globals(): sys.modules holds the module, and the package
    # never holds a second binding of a library name
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
