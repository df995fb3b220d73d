"""Numerical verification toolkit for Haar-functional closed forms on quantum SU(2).

Layered modules:

    qseries     q-Pochhammer symbols, basic hypergeometric series, very-well-
                poised 8W7, Jackson q-integrals
    orthopoly   continuous q-Hermite, q-Charlier, Al-Salam-Chihara and
                Askey-Wilson families with their measures and Poisson kernels
    spectral    three-term recurrences as Jacobi operators, their Gauss
                rules, truncation policy
    qsu2rep     truncated generator representations, the weighted phase-trace
                Haar functional, spherical-type elements and their eigenbases
    haarverify  dual-route verification of the closed-form expressions and
                the supporting identities
    cli         configuration, dispatch and machine-readable reports
"""

from __future__ import annotations

from .errors import ConvergenceError, DomainError, QHaarError, TruncationPolicyError
from .qseries import QContext, SeriesSpec, phi_rs, q_integral, qpoch, w87
from .spectral import (
    JacobiCoeffs,
    check_truncation,
    gauss_rule,
    min_truncation,
    orthonormal_polys,
)
from .orthopoly import (
    AWParams,
    MeasureSpec,
    MomentFunctional,
    asc,
    asc_all,
    asc_orthonormal,
    asc_poisson,
    aw_h0,
    aw_integrate,
    aw_jacobi,
    aw_masses,
    aw_measure,
    cqh,
    cqh_all,
    cqh_poisson,
    cqh_weight,
    moment_apply,
    q_charlier,
)
from .qsu2rep import (
    ELEMENT_NAMES,
    EigenBasisEntry,
    SphericalParams,
    StructureReport,
    TruncRep,
    build_rep,
    d_coeff,
    eigen_basis,
    eigvec_components,
    eigvec_norm_sq,
    eigvec_poly,
    element,
    haar_moments,
    haar_trace,
    moment_trace,
    op_D,
    spectral_trace,
    verify_structure,
)
from .haarverify import (
    THEOREMS,
    IntermediateReport,
    VerifyConfig,
    VerifyReport,
    VerifyRow,
    bailey_check,
    bailey_raw_check,
    bailey_variant_residuals,
    gamma_measure,
    intermediate_check,
    mass_identity_check,
    monomials,
    sigma_limit_check,
    support_check,
    thm4_measure,
    thm5_measure,
    thm6_measure,
    thm6_params,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "QHaarError",
    "DomainError",
    "ConvergenceError",
    "TruncationPolicyError",
    "QContext",
    "SeriesSpec",
    "phi_rs",
    "qpoch",
    "w87",
    "q_integral",
    "JacobiCoeffs",
    "gauss_rule",
    "orthonormal_polys",
    "min_truncation",
    "check_truncation",
    "AWParams",
    "MeasureSpec",
    "MomentFunctional",
    "moment_apply",
    "cqh",
    "cqh_all",
    "cqh_weight",
    "cqh_poisson",
    "q_charlier",
    "asc",
    "asc_all",
    "asc_orthonormal",
    "asc_poisson",
    "aw_h0",
    "aw_jacobi",
    "aw_masses",
    "aw_measure",
    "aw_integrate",
    "ELEMENT_NAMES",
    "SphericalParams",
    "TruncRep",
    "build_rep",
    "element",
    "op_D",
    "haar_moments",
    "haar_trace",
    "moment_trace",
    "EigenBasisEntry",
    "eigen_basis",
    "eigvec_poly",
    "eigvec_components",
    "eigvec_norm_sq",
    "d_coeff",
    "spectral_trace",
    "StructureReport",
    "verify_structure",
    "THEOREMS",
    "VerifyConfig",
    "VerifyRow",
    "VerifyReport",
    "IntermediateReport",
    "monomials",
    "verify",
    "thm4_measure",
    "thm5_measure",
    "thm6_params",
    "thm6_measure",
    "gamma_measure",
    "intermediate_check",
    "bailey_check",
    "bailey_raw_check",
    "bailey_variant_residuals",
    "mass_identity_check",
    "support_check",
    "sigma_limit_check",
    "__version__",
]
