"""Exact verification of modular anomaly-cancellation identities.

The package reconstructs the characteristic q-series of spin, spin with
auxiliary bundle, and spin-c with line bundle settings along two independent
routes (lambda-ring theta-power bundles and Jacobi theta quotients), fits
them against the echelon basis of modular forms in E4 and E6, verifies
the identity catalog as exact polynomial identities, and extracts the
divisibility moduli of the index corollaries.  All arithmetic is exact over
the rationals.
"""

from .algebra import (
    GeneratorTable,
    GradedPoly,
    exp_truncated,
    pontryagin_table,
    power_sum_in_pontryagin,
    power_sum_table,
    to_pontryagin,
)
from .bundles import (
    VirtualBundle,
    aux_complexification,
    line_real_complexification,
    tangent_complexification,
    theta_series,
)
from .genera import ahat_form, ahat_genus, aux_bundle_factor, multiplicative_genus_eval, spinor_ch
from .qseries import (
    PolyRing,
    QHalfSeries,
    RATIONALS,
    RingMismatchError,
    eisenstein,
    modular_basis,
    qseries_exp,
)
from .theta import (
    line_quotient_evaluation,
    q_series_via_theta,
    quotient_series,
    theta_quotient,
)
from .verifier import (
    CASE_DIMS,
    CASES,
    COROLLARIES,
    IDENTITIES,
    CaseConditionError,
    CaseReport,
    CaseSpec,
    FitResult,
    IdentityResult,
    ManifoldData,
    ManifoldDataError,
    NonIntegralSolveError,
    RouteMismatchError,
    UnknownIdentityError,
    assemble_Q,
    bundle_route_integrand,
    check_case_condition,
    corollaries_for,
    corollary_modulus,
    divisibility_modulus,
    eisenstein_fit,
    evaluate_report,
    identities_for,
    impose_condition,
    report_jsonable,
    run_cases,
    theta_route_integrand,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "GeneratorTable",
    "GradedPoly",
    "pontryagin_table",
    "power_sum_in_pontryagin",
    "power_sum_table",
    "to_pontryagin",
    "exp_truncated",
    "VirtualBundle",
    "tangent_complexification",
    "aux_complexification",
    "line_real_complexification",
    "theta_series",
    "ahat_genus",
    "ahat_form",
    "spinor_ch",
    "aux_bundle_factor",
    "multiplicative_genus_eval",
    "PolyRing",
    "RATIONALS",
    "QHalfSeries",
    "RingMismatchError",
    "qseries_exp",
    "eisenstein",
    "modular_basis",
    "theta_quotient",
    "quotient_series",
    "line_quotient_evaluation",
    "q_series_via_theta",
    "CASES",
    "CASE_DIMS",
    "CaseSpec",
    "CaseReport",
    "FitResult",
    "IdentityResult",
    "IDENTITIES",
    "COROLLARIES",
    "RouteMismatchError",
    "UnknownIdentityError",
    "NonIntegralSolveError",
    "ManifoldData",
    "ManifoldDataError",
    "CaseConditionError",
    "assemble_Q",
    "bundle_route_integrand",
    "theta_route_integrand",
    "impose_condition",
    "eisenstein_fit",
    "verify_identity",
    "identities_for",
    "corollaries_for",
    "divisibility_modulus",
    "corollary_modulus",
    "check_case_condition",
    "evaluate_report",
    "run_cases",
    "report_jsonable",
]
