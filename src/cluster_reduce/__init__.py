"""Exact reduction and dynamics of cluster maps.

The package studies birational maps built from mutation-periodic
exchange matrices: it certifies mutation periodicity, checks and
discovers invariant log-canonical presymplectic and Poisson structures,
reduces the maps along monomial submersions (null foliations and
Casimir foliations, organised into flags), and analyses the dynamics of
the reduced systems both exactly over the rationals and numerically at
arbitrary precision.

All linear algebra over the integers is exact (Hermite and Smith normal
forms, kernel and image lattices); all symbolic computation uses an
exact Laurent-polynomial arithmetic over the rationals; numerics use
``mpmath`` at a configurable working precision.
"""

from .dynamics import (
    DEFAULT_PRECISION,
    ClosedFormReport,
    DynamicsError,
    LeafItinerary,
    Orbit,
    PeriodicPoint,
    PeriodReport,
    ScanReport,
    detect_global_periodicity,
    find_periodic_points,
    find_periodic_points_over,
    first_integral_check,
    golden_ratio,
    iterate_orbit,
    leaf_itinerary,
    no_periodic_points_scan,
    orbit_sequence,
    plastic_root,
    somos5_constrained_start,
    verify_closed_form,
)
from .fixtures import Fixture, all_fixtures, fordy_marsh, get_fixture
from .geometry import (
    Flag,
    GeometryError,
    InvarianceResult,
    NotAChainError,
    NotFiberConstantError,
    NotReducibleError,
    PoissonStructure,
    PresymplecticForm,
    ReducedSystem,
    Submersion,
    build_flag,
    casimir_submersion,
    chained_reduction,
    check_isotropy,
    check_poisson_map,
    check_presymplectic_invariance,
    check_subfoliation,
    derive_reduced_map,
    find_invariant_poisson,
    null_submersion,
    poisson_bracket,
    rewrite_in_fiber_coordinates,
    submersion_from_rows,
)
from .intlinalg import (
    DarbouxBasis,
    IntMatrix,
    LatticeBasis,
    darboux_basis,
    hermite_normal_form,
    image_lattice,
    kernel_lattice,
    saturation_index,
    smith_normal_form,
    solve_in_lattice,
    sublattice_subset,
)
from .laurent import LaurentPoly, RationalFunction, format_rational, parse_rational
from .maps import (
    BirationalMap,
    MonomialMap,
    positive_point,
    random_positive_point,
    rng_substream,
)
from .quiver import (
    CertificateError,
    PeriodicityCertificate,
    Quiver,
    Seed,
    cluster_map,
    degree_growth,
    detect_period,
    growth_class,
    mutate_matrix,
    mutate_seed,
    shifted_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact linear algebra
    "IntMatrix",
    "LatticeBasis",
    "DarbouxBasis",
    "hermite_normal_form",
    "smith_normal_form",
    "kernel_lattice",
    "image_lattice",
    "solve_in_lattice",
    "sublattice_subset",
    "saturation_index",
    "darboux_basis",
    # Laurent algebra
    "LaurentPoly",
    "RationalFunction",
    "parse_rational",
    "format_rational",
    # birational and monomial maps
    "BirationalMap",
    "MonomialMap",
    "positive_point",
    "random_positive_point",
    "rng_substream",
    # quiver mutation
    "Quiver",
    "Seed",
    "PeriodicityCertificate",
    "CertificateError",
    "mutate_matrix",
    "mutate_seed",
    "shifted_matrix",
    "detect_period",
    "cluster_map",
    "degree_growth",
    "growth_class",
    # geometry
    "GeometryError",
    "NotFiberConstantError",
    "NotReducibleError",
    "NotAChainError",
    "PresymplecticForm",
    "PoissonStructure",
    "InvarianceResult",
    "Submersion",
    "ReducedSystem",
    "Flag",
    "poisson_bracket",
    "check_presymplectic_invariance",
    "check_poisson_map",
    "find_invariant_poisson",
    "null_submersion",
    "casimir_submersion",
    "submersion_from_rows",
    "rewrite_in_fiber_coordinates",
    "derive_reduced_map",
    "check_subfoliation",
    "build_flag",
    "chained_reduction",
    "check_isotropy",
    # dynamics
    "DEFAULT_PRECISION",
    "DynamicsError",
    "Orbit",
    "iterate_orbit",
    "orbit_sequence",
    "PeriodReport",
    "detect_global_periodicity",
    "first_integral_check",
    "PeriodicPoint",
    "find_periodic_points",
    "find_periodic_points_over",
    "LeafItinerary",
    "leaf_itinerary",
    "ScanReport",
    "no_periodic_points_scan",
    "plastic_root",
    "golden_ratio",
    "somos5_constrained_start",
    "ClosedFormReport",
    "verify_closed_form",
    # fixtures
    "Fixture",
    "all_fixtures",
    "fordy_marsh",
    "get_fixture",
]
