"""Every level alpha lies in (0, 1/2): each entry point that takes one
refuses a level from 1/2 on with OutOfRange."""

import numpy as np
import pytest

from momentguard import spec_test
from momentguard.critval import cv_alpha
from momentguard.efficiency import (
    efficiency_report,
    kappa_linear_subspace,
    kappa_one_sided,
    kappa_two_sided,
    universal_lower_bound,
)
from momentguard.errors import OutOfRange
from momentguard.model import MisspecSet, MomentModel
from momentguard.robust_ci import ci_curve, ci_from_sensitivity, one_sided_ci, two_sided_ci
from momentguard.sensitivity import frontier, select_lambda

MODEL = MomentModel(gamma=[[-1.0], [-0.8], [0.3]], sigma=np.eye(3),
                    h_deriv=[1.0], g_init=[0.5, -0.9, 0.7], h_init=0.0, n=250)
B = np.eye(3)[:, 2:]
MSET = MisspecSet(B, 2, 1.0)
FRONT = frontier(MODEL, MSET)
K = FRONT.first.k

ENTRY_POINTS = {
    "cv_alpha": lambda a: cv_alpha(1.0, a),
    "select_lambda": lambda a: select_lambda(FRONT, 1.0, a),
    "two_sided_ci": lambda a: two_sided_ci(MODEL, FRONT, 1.0, a),
    # an empty grid makes no interval, so only the check can raise
    "ci_curve": lambda a: ci_curve(MODEL, FRONT, [], a),
    "ci_from_sensitivity": lambda a: ci_from_sensitivity(MODEL, MSET, K, a),
    "one_sided_ci": lambda a: one_sided_ci(MODEL, MSET, K, a),
    "kappa_two_sided": lambda a: kappa_two_sided(MODEL, MSET, a),
    "kappa_one_sided": lambda a: kappa_one_sided(MODEL, MSET, a),
    "efficiency_report": lambda a: efficiency_report(MODEL, MSET, a),
    "universal_lower_bound": universal_lower_bound,
    "kappa_linear_subspace": kappa_linear_subspace,
    "test_at_m": lambda a: spec_test.test_at_m(MODEL, MSET, a),
    "spec_test_grid": lambda a: spec_test.spec_test_grid(MODEL, B, 2, [1.0], a),
    "m_lower_ci": lambda a: spec_test.m_lower_ci(MODEL, B, 2, a),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.999])
def test_rejects_levels_from_one_half(name, alpha):
    with pytest.raises(OutOfRange, match=r"alpha must lie in \(0, 1/2\)"):
        ENTRY_POINTS[name](alpha)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_accepts_a_level_below_one_half(name):
    ENTRY_POINTS[name](0.49)
