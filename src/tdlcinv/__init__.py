"""Exact finite-scale invariants of totally disconnected locally compact groups.

Subpackages cover sparse rational linear algebra, simplicial (co)homology,
graphs with edge inversion and coset-graph balls, finite graphs of finite
groups with their universal trees, Coxeter groups read off their
classified degrees, Davis chamber duality verdicts, and Haar-measure-valued
Euler characteristics.  Every mathematical value produced is an exact
integer or rational.
"""

from .coxeter import (
    AffineCartanPair,
    CartanMatrix,
    CoxeterSystem,
    IntPolynomial,
    affine_preset,
    alternating_sum_identity,
    bott_check,
    enumerate_by_length,
    exponents,
    finite_preset,
    poincare_poly,
)
from .davis import DualityVerdict, build_chamber, duality_verdict, kac_moody_verdict
from .errors import ValidationError
from .euler import (
    HaarValue,
    ResolutionDescription,
    chevalley_chi,
    chi_from_resolution,
    chi_via_parahoric_sum,
    hs_rank_permutation,
)
from .graphs_of_groups import (
    GraphOfFiniteGroups,
    PiRepresentation,
    PiWord,
    aut_tree_chi,
    build_gog,
    load_gog,
)
from .groups import FiniteGroup, Hom, group_from_spec
from .ratlin import Rational, RationalMatrix, homology_dims
from .serre_graphs import (
    FiniteGroupOracle,
    IntegerLineOracle,
    SerreGraph,
    connectivity_equals_generation,
    load_graph,
    rough_cayley_ball,
)
from .simplicial import (
    OrientedSimplex,
    SignedSet,
    SimplicialComplex,
    ball_sphere_growth,
    line_window,
    load_complex,
    regular_tree_window,
    relative_cohomology,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCartanPair",
    "CartanMatrix",
    "CoxeterSystem",
    "DualityVerdict",
    "FiniteGroup",
    "FiniteGroupOracle",
    "GraphOfFiniteGroups",
    "HaarValue",
    "Hom",
    "IntPolynomial",
    "IntegerLineOracle",
    "OrientedSimplex",
    "PiRepresentation",
    "PiWord",
    "Rational",
    "RationalMatrix",
    "ResolutionDescription",
    "SerreGraph",
    "SignedSet",
    "SimplicialComplex",
    "ValidationError",
    "affine_preset",
    "alternating_sum_identity",
    "aut_tree_chi",
    "ball_sphere_growth",
    "bott_check",
    "build_chamber",
    "build_gog",
    "chevalley_chi",
    "chi_from_resolution",
    "chi_via_parahoric_sum",
    "connectivity_equals_generation",
    "duality_verdict",
    "enumerate_by_length",
    "exponents",
    "finite_preset",
    "group_from_spec",
    "homology_dims",
    "hs_rank_permutation",
    "kac_moody_verdict",
    "line_window",
    "load_complex",
    "load_gog",
    "load_graph",
    "poincare_poly",
    "regular_tree_window",
    "relative_cohomology",
    "rough_cayley_ball",
]
