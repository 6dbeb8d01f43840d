"""Misspecification-robust confidence intervals for moment condition models.

Builds bias-aware CIs for a scalar functional of a moment-condition model when
the moment conditions may fail locally by an amount lying in a user-specified
set ``{B @ gamma : ||gamma||_p <= M}``. Provides the bias-variance optimal
sensitivity path (closed form for p=2, a LAR-style homotopy for p=inf),
one-step estimates with one- and two-sided robust intervals, efficiency bounds
from the modulus of continuity, a misspecification-robust specification test
with a lower confidence bound on M, and a linear-IV front end.

Typical use::

    from momentguard import (MomentModel, MisspecSet, ci_curve, frontier,
                             two_sided_ci)

    model = MomentModel(gamma, sigma, h_deriv, g_init, h_init, n)
    front = frontier(model, MisspecSet(b_mat, p=2, m=1.0))
    ci = two_sided_ci(model, front, m=1.0)          # the set front.set at M = 1
    curve = ci_curve(model, front, [0.0, 0.5, 1.0])  # one CI per magnitude
"""

from .critval import cv_alpha, noncentral_chisq_quantile, norm_quantile
from .efficiency import (
    EfficiencyReport,
    ModulusSolution,
    efficiency_report,
    gls_subspace_sensitivity,
    half_modulus,
    kappa_linear_subspace,
    kappa_one_sided,
    kappa_two_sided,
    universal_lower_bound,
)
from .iv import IVData, build_b, build_model, linear_one_step, tsls
from .model import (
    MisspecSet,
    MomentModel,
    Sensitivity,
    sensitivity_constraint_residual,
    validate_model,
)
from .robust_ci import (
    RobustCI,
    ci_curve,
    equivalent_weighting,
    one_sided_ci,
    one_step,
    two_sided_ci,
)
from .sensitivity import (
    FrontierKnot,
    LambdaChoice,
    SensitivityFrontier,
    frontier,
    l2_sensitivity,
    linf_path,
    select_lambda,
    worst_case_bias,
)
from .spec_test import SpecTestResult, m_lower_ci, noncentrality_sup, s_statistic, test_at_m

__all__ = [
    "EfficiencyReport",
    "FrontierKnot",
    "IVData",
    "LambdaChoice",
    "MisspecSet",
    "ModulusSolution",
    "MomentModel",
    "RobustCI",
    "Sensitivity",
    "SensitivityFrontier",
    "SpecTestResult",
    "build_b",
    "build_model",
    "ci_curve",
    "cv_alpha",
    "efficiency_report",
    "equivalent_weighting",
    "frontier",
    "gls_subspace_sensitivity",
    "half_modulus",
    "kappa_linear_subspace",
    "kappa_one_sided",
    "kappa_two_sided",
    "l2_sensitivity",
    "linear_one_step",
    "linf_path",
    "m_lower_ci",
    "noncentral_chisq_quantile",
    "noncentrality_sup",
    "norm_quantile",
    "one_sided_ci",
    "one_step",
    "s_statistic",
    "select_lambda",
    "sensitivity_constraint_residual",
    "test_at_m",
    "tsls",
    "two_sided_ci",
    "universal_lower_bound",
    "validate_model",
    "worst_case_bias",
]

__version__ = "0.1.0"
