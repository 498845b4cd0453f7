"""Numerical toolkit for the Gamma covariance operator on Wiener space.

Gamma_{F,G} = <DF, -D L^{-1} G> extends covariance and squared canonical
metric to smooth non-Gaussian functionals of finitely many Gaussian
coordinates.  The package estimates it by Mehler-coupling quadrature plus
Monte Carlo, validates against an exact chaos oracle, and uses it to check
comparison inequalities (Sudakov-Fernique and Slepian types), a concentration
bound, a Poincare-type moment bound, the supremum comparison for SDEs driven
by fractional Brownian motion, and a universality bound for the
Sherrington-Kirkpatrick model in correlated media.
"""

__version__ = "0.1.0"

from .core import (
    EvaluationOverflow,
    Expression,
    ExpressionError,
    Functional,
    RandomField,
    WienerSpace,
    WienerSpaceError,
    build_space,
    hermite_value,
    make_field,
    sample,
    w,
)
from .grammar import ParseError, parse_expression
from .chaos import ChaosForm, form, gamma_oracle, oracle_suite
from .engine import (
    CenteringError,
    Estimate,
    MehlerConfig,
    gamma_pointwise,
    ibp_residual,
    poincare_check,
)
from .comparison import (
    FieldPair,
    build_gaussian_pair,
    concentration_check,
    operator_norm,
    sf_phi_prime,
    slepian_phi_prime,
)
from .fbm import (
    DriftSpec,
    FbmGrid,
    delta_fbm,
    euler_solve,
    fbm_cov,
    fbm_sample,
    sup_comparison,
    uniform_grid,
)
from .sk import (
    IID_GAUSSIAN,
    Medium,
    MediumFamily,
    condition_audit,
    convergence_experiment,
    free_energy_exact,
    gamma_f_bound_check,
    generic_bound_check,
    medium_sample,
)
