"""Exact similar-sublattice and coincidence-rotation machinery for the
root lattice A4, parametrized through the icosian ring."""

from .golden import (
    GoldenInt,
    GoldenRat,
    GoldenFactorization,
    gi_gcd,
    gi_factor,
    gi_lcm_conj,
    gi_sqrt,
    canonical_associate,
)
from .quaternion import Quat, RotationMatrix, rotation_matrix
from .icosian import (
    Icosian,
    ExtensionPair,
    NotAdmissibleError,
    NotPrimitiveError,
    enumerate_by_trace_norm,
    norm_one_units,
)
from .lattice import (
    ExactLattice,
    hnf,
    det_int,
    forms_equivalent,
    lll_reduce_gram,
    short_vectors,
    lattice_intersect,
    lattice_dual,
)
from .a4 import (
    CARTAN_A4,
    ConsistencyError,
    CslResult,
    IrrationalDenominator,
    csl_of,
    denominator_of,
    dual_lattice_gram,
    l_coords,
    l_point,
    l_of_ideal,
    l_rotation,
    matches_quat_rotation,
    phi_plus,
    ssl_of,
    sublattice_gram,
)
from .counting import (
    f_ssl,
    f_ssl_values,
    f_soc,
    f_soc_values,
    expand_multiplicative,
    zeta_golden_coeffs,
    check_ssl_identity,
    check_soc_identity,
    representable_ssl_indices,
)
from .oracle import (
    SectionReport,
    VerificationReport,
    admissible_nr_divisors,
    oracle_csl_properties,
    oracle_soc_count,
    oracle_ssl_count,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
