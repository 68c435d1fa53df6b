"""Exact-arithmetic toolkit for majorization relative to a positive weight vector."""

from .exact import (
    DimensionMismatch,
    NonPositiveWeight,
    Permutation,
    RMatrix,
    RVec,
    all_permutations,
    parse_rational,
)
from .halfspace import (
    DimensionCapExceeded,
    EmptyIntersection,
    HalfspaceSystem,
    VPolytope,
    enumerate_vertices,
)
from .classical import MajorizationVerdict, classical_hrep, classical_majorizes, permutohedron_vertices
from .curve import ThermoCurve, curve_build, curve_leq
from .dmaj import (
    StochMatrix,
    dmaj_by_curve,
    dmaj_by_onenorm,
    dmaj_by_positive_parts,
    find_witness,
    find_witness_lp,
    maximal_element,
    minimal_element,
    similarly_d_ordered,
)
from .lp import InfeasibleProgram, LinearProgram, UnboundedProgram, feasible, minimize
from .polytope import (
    HausdorffResult,
    NegativeEntries,
    build_dmaj_hrep,
    classical_max_corner,
    dmaj_vertices,
    hausdorff,
    lipschitz_constant,
    nonexpansive_check,
)
from .sd3 import Sd3Case, classify, sd3_extremes, verify_extremality

__version__ = "0.1.0"

__all__ = [
    "DimensionCapExceeded",
    "DimensionMismatch",
    "EmptyIntersection",
    "HalfspaceSystem",
    "HausdorffResult",
    "InfeasibleProgram",
    "LinearProgram",
    "MajorizationVerdict",
    "NegativeEntries",
    "NonPositiveWeight",
    "Permutation",
    "RMatrix",
    "RVec",
    "Sd3Case",
    "StochMatrix",
    "ThermoCurve",
    "UnboundedProgram",
    "VPolytope",
    "all_permutations",
    "build_dmaj_hrep",
    "classical_hrep",
    "classical_majorizes",
    "classical_max_corner",
    "classify",
    "curve_build",
    "curve_leq",
    "dmaj_by_curve",
    "dmaj_by_onenorm",
    "dmaj_by_positive_parts",
    "dmaj_vertices",
    "enumerate_vertices",
    "feasible",
    "find_witness",
    "find_witness_lp",
    "hausdorff",
    "lipschitz_constant",
    "maximal_element",
    "minimal_element",
    "minimize",
    "nonexpansive_check",
    "parse_rational",
    "permutohedron_vertices",
    "sd3_extremes",
    "similarly_d_ordered",
    "verify_extremality",
]
