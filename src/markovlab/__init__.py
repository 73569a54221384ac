"""Numerical laboratory for Markov-type derivative inequalities on plane
domains with cusps: a cusped region swept by a symmetric quadratic map, the
weighted triangle it comes from, and a family of diamond-like domains with
power cusps. Computes best L2 constants spectrally, evaluates extremal
polynomial families in closed form, and fits growth exponents in the degree.
"""

from .analysis import (
    ExtremalRow,
    FitResult,
    extremal_rows,
    fit_exponent,
    report_to_json,
    sweep_extremal,
    verify_all,
)
from .classical import (
    build_pk,
    build_qk,
    build_wn,
    chebyshev_T,
    jacobi_P,
    pk_cusp_derivative,
    pk_value,
    qk_cusp_derivative,
    qk_value,
    wn_value,
)
from .config import ConfigError, LabConfig, default_config, load_config
from .domains import (
    CapacityError,
    Domain,
    QuadratureRule,
    delta_l,
    gauss_legendre_1d,
    koornwinder,
    quad_rule,
    simplex_weighted,
    sup_grid,
)
from .norms import (
    NormSpec,
    bernoulli_sandwich,
    cusp_sup,
    lp_norm,
    markov_ratio,
    wn_1d_integral,
    wn_norms,
)
from .poly2d import (
    BivariatePoly,
    coeffs_allclose,
    pullback_derivative_x,
    pullback_derivative_y,
    pullback_symmetric,
)
from .spectral import (
    ConditioningError,
    FactorPoint,
    basis,
    jacobi_eigenvalues,
    l2_markov_factor,
    l2_markov_sweep,
    l2_schur_factor,
    l2_schur_sweep,
    markov_witness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BivariatePoly",
    "coeffs_allclose",
    "pullback_symmetric",
    "pullback_derivative_x",
    "pullback_derivative_y",
    "chebyshev_T",
    "jacobi_P",
    "build_pk",
    "build_qk",
    "build_wn",
    "pk_value",
    "qk_value",
    "wn_value",
    "pk_cusp_derivative",
    "qk_cusp_derivative",
    "Domain",
    "QuadratureRule",
    "CapacityError",
    "koornwinder",
    "simplex_weighted",
    "delta_l",
    "gauss_legendre_1d",
    "quad_rule",
    "sup_grid",
    "NormSpec",
    "lp_norm",
    "markov_ratio",
    "cusp_sup",
    "wn_1d_integral",
    "wn_norms",
    "bernoulli_sandwich",
    "ConditioningError",
    "FactorPoint",
    "basis",
    "jacobi_eigenvalues",
    "l2_markov_factor",
    "l2_markov_sweep",
    "l2_schur_factor",
    "l2_schur_sweep",
    "markov_witness",
    "ExtremalRow",
    "FitResult",
    "extremal_rows",
    "fit_exponent",
    "sweep_extremal",
    "verify_all",
    "report_to_json",
    "ConfigError",
    "LabConfig",
    "default_config",
    "load_config",
]
