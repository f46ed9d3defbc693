"""Exact equivariant localization on Hilbert schemes of points on toric
surfaces: fixed-point enumeration, Euler characteristics of determinant
line bundles, quotient counts, virtual integrals over the ambient pair
space, and universal-polynomial extraction, all in exact rational
arithmetic.
"""

from .cache import ENGINE_VERSION, ResultCache, default_cache
from .errors import (
    ComputationError,
    EngineError,
    ParseError,
    PoleError,
    UsageError,
)
from .hilb import (
    HilbFixedPoint,
    Partition,
    count_fixed_points,
    enumerate_fixed_points,
)
from .integrals import (
    ChernExpr,
    ConjectureRow,
    ConstructionReport,
    c2_for_expected_dim_zero,
    chi_theta,
    expected_dim_pairs,
    integrate,
    parse_chern_expr,
    quot_count,
    validate_construction,
    verify_conjecture,
)
from .symbolic import DEFAULT_SEED, Weight
from .tautological import UniversalPolynomial, universal_poly, virtual_integral
from .toric import (
    ChernData,
    EquivariantLineBundle,
    SplitBundle,
    ToricSurfaceModel,
    chi_from_chern,
    chi_pair,
    chi_surface,
    e_from_v,
    line_bundle,
    make_surface,
    realize_split_model,
    split_bundle,
    surface_to_json,
)

__version__ = ENGINE_VERSION

__all__ = [
    "ENGINE_VERSION",
    "__version__",
    "DEFAULT_SEED",
    "Weight",
    "ResultCache",
    "default_cache",
    "EngineError",
    "UsageError",
    "ComputationError",
    "PoleError",
    "ParseError",
    "ToricSurfaceModel",
    "make_surface",
    "EquivariantLineBundle",
    "line_bundle",
    "SplitBundle",
    "split_bundle",
    "ChernData",
    "chi_surface",
    "chi_from_chern",
    "chi_pair",
    "e_from_v",
    "realize_split_model",
    "surface_to_json",
    "Partition",
    "HilbFixedPoint",
    "enumerate_fixed_points",
    "count_fixed_points",
    "ChernExpr",
    "integrate",
    "quot_count",
    "chi_theta",
    "expected_dim_pairs",
    "c2_for_expected_dim_zero",
    "validate_construction",
    "ConstructionReport",
    "verify_conjecture",
    "ConjectureRow",
    "virtual_integral",
    "UniversalPolynomial",
    "universal_poly",
    "parse_chern_expr",
]
