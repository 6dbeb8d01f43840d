"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from momentguard._linalg import sym_sqrt_psd
from momentguard.critval import cv_alpha, norm_pdf, norm_quantile
from momentguard.efficiency import (
    half_modulus,
    kappa_linear_subspace,
    kappa_one_sided,
    kappa_two_sided,
    universal_lower_bound,
)
from momentguard.iv import IVData, build_b, build_model, tsls
from momentguard.model import MisspecSet, MomentModel
from momentguard.oracle import adversarial_c, mc_coverage, standard_normals
from momentguard.robust_ci import ci_from_sensitivity, one_step, two_sided_ci
from momentguard.sensitivity import (
    frontier,
    knot_at,
    l2_sensitivity,
    linf_path,
    select_lambda,
    worst_case_bias,
)
from momentguard.spec_test import m_lower_ci, noncentrality_sup, s_statistic
from momentguard.spec_test import test_at_m as run_test_at_m
from oracles import kkt_sensitivity

Z95 = norm_quantile(0.95)
Z975 = norm_quantile(0.975)


def _report(num, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {num} [{label}]: {status} ({elapsed:.2f}s, "
          f"budget {budget:.0f}s){suffix}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def random_model(d_g, d_th, seed, g_scale=0.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d_g, d_g))
    sigma = a @ a.T + 0.5 * np.eye(d_g)
    return MomentModel(gamma=rng.normal(size=(d_g, d_th)), sigma=sigma,
                       h_deriv=rng.normal(size=d_th),
                       g_init=rng.normal(size=d_g) * g_scale, h_init=0.0,
                       n=400)


def test_c1_critical_value_anchors():
    t0 = time.monotonic()
    ok = abs(cv_alpha(0.0, 0.05) - 1.959964) <= 1e-6
    gaps = [cv_alpha(b, 0.05) - b for b in np.linspace(0.0, 20.0, 201)]
    ok = ok and all(1.6449 - 1e-4 <= g <= 1.9600 + 1e-4 for g in gaps)
    _report(1, "bias-aware critical value", ok, time.monotonic() - t0, 1.0,
            f"cv(0)={cv_alpha(0.0, 0.05):.6f}, gap range "
            f"[{min(gaps):.4f}, {max(gaps):.4f}]")


def test_c2_efficiency_anchor_values():
    t0 = time.monotonic()
    u = universal_lower_bound(0.05)
    k = kappa_linear_subspace(0.05)
    ok = abs(u - 0.717) <= 5e-4 and abs(k - 0.8499) <= 5e-4
    _report(2, "analytic efficiency anchors", ok, time.monotonic() - t0, 1.0,
            f"universal={u:.5f}, linear-subspace={k:.5f}")


def test_c3_cressie_read_cross_checks():
    t0 = time.monotonic()
    worst_omega = worst_kappa = worst_oci = 0.0
    for i in range(10):
        model = random_model(int(3 + i % 2), int(1 + i % 2), 300 + i)
        si = np.linalg.inv(model.sigma)
        s0 = math.sqrt(model.h_deriv @ np.linalg.solve(
            model.gamma.T @ si @ model.gamma, model.h_deriv))
        b = sym_sqrt_psd(model.sigma)
        for m_val in (0.5, 1.0, 2.0):
            mset = MisspecSet(b, 2, m_val)
            for delta in (0.5, 1.0, 2.0, 4.0):
                sol = half_modulus(model, mset, delta)
                exact = (delta + 2.0 * m_val) * s0
                worst_omega = max(worst_omega, abs(sol.omega - exact) / exact)
            closed = ((0.95 * (Z95 + m_val) + norm_pdf(Z95))
                      / cv_alpha(m_val, 0.05))
            worst_kappa = max(worst_kappa,
                              abs(kappa_two_sided(model, mset, 0.05) - closed))
            worst_oci = max(worst_oci,
                            abs(kappa_one_sided(model, mset, 0.05, 0.8) - 1.0))
    ok = worst_omega <= 1e-4 and worst_kappa <= 1e-3 and worst_oci <= 1e-6
    _report(3, "Cressie-Read closed forms", ok, time.monotonic() - t0, 30.0,
            f"max rel omega err {worst_omega:.2e}, max kappa err "
            f"{worst_kappa:.2e}, max |oci-1| {worst_oci:.2e}")


def test_c4_linf_homotopy_vs_kkt_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    worst = 0.0
    sparsity_ok = True
    checked_sparsity = 0
    cases = []
    for i in range(50):
        d_g = int(rng.integers(2, 7))
        d_th = min(int(rng.integers(1, 3)), d_g)
        d_gam = int(rng.integers(1, min(d_g, 3) + 1))
        model = random_model(d_g, d_th, 4000 + i)
        cols = np.sort(rng.choice(d_g, size=d_gam, replace=False))
        cases.append((model, np.eye(d_g)[:, cols], True))
    # d_gamma > d_g - d_theta with a dense B: the path runs on through
    # coordinate swaps after d_theta coordinates remain active
    cases.append((random_model(3, 1, 108),
                  np.random.default_rng(208).normal(size=(3, 3)), False))
    for model, b, identity_b in cases:
        d_g, d_th, d_gam = model.d_g, model.d_theta, b.shape[1]
        front = linf_path(model, b)
        # past the last knot too, where k must stay optimal
        lam_last = front.knots[-1].lam
        for kn in list(front.knots) + [knot_at(front, 10.0 * lam_last),
                                       knot_at(front, 100.0 * lam_last)]:
            k_oracle = kkt_sensitivity(model, b, kn.lam)
            worst = max(worst, float(np.max(np.abs(k_oracle - kn.k))))
        if identity_b and d_g <= d_gam + d_th:
            checked_sparsity += 1
            term = front.knots[-1].k
            nnz = int(np.sum(np.abs(term) > 1e-11 * np.max(np.abs(term))))
            sparsity_ok = sparsity_ok and (nnz == d_th)
    ok = worst <= 1e-8 and sparsity_ok
    _report(4, "l-inf homotopy vs KKT enumeration", ok,
            time.monotonic() - t0, 60.0,
            f"max error at knots and past the path {worst:.2e}, terminal "
            f"sparsity checked on {checked_sparsity} instances")


def test_c5_l2_closed_form_kkt():
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    worst_stat = worst_eff = 0.0
    for i in range(100):
        d_g = int(rng.integers(2, 7))
        d_th = int(rng.integers(1, d_g + 1))
        model = random_model(d_g, d_th, 5000 + i)
        b = rng.normal(size=(d_g, int(rng.integers(1, min(d_g, 3) + 1))))
        lam = float(rng.uniform(0.0, 10.0))
        k = l2_sensitivity(model, b, lam)
        worst_stat = max(worst_stat, float(
            np.max(np.abs(model.h_deriv + k @ model.gamma))))
        v = (model.sigma + lam * b @ b.T) @ k
        proj = model.gamma @ np.linalg.lstsq(model.gamma, v, rcond=None)[0]
        worst_stat = max(worst_stat, float(np.max(np.abs(v - proj)))
                         / max(float(np.max(np.abs(v))), 1.0))
        si = np.linalg.inv(model.sigma)
        k0 = -si @ model.gamma @ np.linalg.solve(
            model.gamma.T @ si @ model.gamma, model.h_deriv)
        worst_eff = max(worst_eff, float(
            np.max(np.abs(l2_sensitivity(model, b, 0.0) - k0))))
    ok = worst_stat <= 1e-8 and worst_eff <= 1e-8
    _report(5, "l2 ridge-form KKT conditions", ok, time.monotonic() - t0, 10.0,
            f"max stationarity residual {worst_stat:.2e}, max efficient-GMM "
            f"gap {worst_eff:.2e}")


def test_c6_limiting_experiment_coverage():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260808)
    reps = 100000
    all_cover = True
    wald_checks = 0
    wald_ok = True
    for i in range(5):
        d_g = int(rng.integers(2, 5))
        d_th = int(rng.integers(1, min(d_g, 2) + 1))
        a = rng.normal(size=(d_g, d_g))
        sigma = a @ a.T + 0.5 * np.eye(d_g)
        model = MomentModel(gamma=rng.normal(size=(d_g, d_th)), sigma=sigma,
                            h_deriv=rng.normal(size=d_th),
                            g_init=np.zeros(d_g), h_init=0.0, n=100)
        d_gam = int(rng.integers(1, min(d_g, 3) + 1))
        b = rng.normal(size=(d_g, d_gam))
        for p in (2.0, np.inf):
            for m_val in (0.5, 2.0):
                mset = MisspecSet(b, p, m_val)
                ci = two_sided_ci(model, frontier(model, mset), mset.m)
                c = adversarial_c(mset, ci.k)
                rep = mc_coverage(model, mset, ci, c, reps, seed=1000 + i)
                all_cover = all_cover and (
                    rep.coverage >= 0.95 - 3.0 * rep.mc_stderr)
                ratio = ci.max_bias / ci.std_error
                if ratio >= 1.0:
                    wald_checks += 1
                    si = np.linalg.inv(sigma)
                    k0 = -si @ model.gamma @ np.linalg.solve(
                        model.gamma.T @ si @ model.gamma, model.h_deriv)
                    sd0 = math.sqrt(k0 @ sigma @ k0)
                    eps = standard_normals(1000 + i, (reps, d_g))
                    y = c + eps @ sym_sqrt_psd(sigma)
                    wald_cov = float(np.mean(np.abs(y @ k0) <= Z975 * sd0))
                    wald_ok = wald_ok and (wald_cov < 0.95)
    ok = all_cover and wald_ok and wald_checks > 0
    _report(6, "limiting-experiment coverage", ok, time.monotonic() - t0,
            300.0, f"20 configs at {reps} reps, Wald-undercoverage checks "
            f"triggered {wald_checks}x")


def test_c7_specification_test():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    homog_ok = monotone_ok = bracket_ok = central_ok = True
    brackets = 0
    for i in range(20):
        d_g = int(rng.integers(3, 6))
        d_th = int(rng.integers(1, d_g - 1))
        model = random_model(d_g, d_th, 7000 + i, g_scale=1.5)
        d_gam = int(rng.integers(1, min(d_g, 3) + 1))
        b = rng.normal(size=(d_g, d_gam))
        p = 2.0 if i % 2 == 0 else np.inf
        # homogeneity of the noncentrality in the magnitude
        l1 = noncentrality_sup(model, MisspecSet(b, p, 1.2))
        l2 = noncentrality_sup(model, MisspecSet(b, p, 2.4))
        homog_ok = homog_ok and abs(l2 - 4.0 * l1) <= 1e-10 * max(l2, 1.0)
        # rejection monotone in the magnitude
        rejects = [run_test_at_m(model, MisspecSet(b, p, mv), 0.05).reject
                   for mv in np.linspace(0.0, 5.0, 21)]
        if False in rejects:
            first = rejects.index(False)
            monotone_ok = monotone_ok and not any(rejects[first:])
        # lower-CI bracketing
        m_min = m_lower_ci(model, b, p, 0.05)
        if m_min > 0.0:
            brackets += 1
            eps = 1e-4 * m_min
            bracket_ok = bracket_ok and run_test_at_m(
                model, MisspecSet(b, p, m_min - eps), 0.05).reject
            bracket_ok = bracket_ok and not run_test_at_m(
                model, MisspecSet(b, p, m_min + eps), 0.05).reject
        # central case: S equals the linearized J statistic
        si = np.linalg.inv(model.sigma)
        th = np.linalg.solve(model.gamma.T @ si @ model.gamma,
                             model.gamma.T @ si @ model.g_init)
        resid = model.g_init - model.gamma @ th
        j_stat = model.n * float(resid @ si @ resid)
        central_ok = central_ok and (
            abs(s_statistic(model) - j_stat) <= 1e-8 * max(j_stat, 1.0))
        res0 = run_test_at_m(model, MisspecSet(b, p, 0.0), 0.05)
        from scipy.stats import chi2
        central_ok = central_ok and abs(
            res0.critical_value - chi2.ppf(0.95, d_g - d_th)) <= 1e-8
    ok = homog_ok and monotone_ok and bracket_ok and central_ok and brackets >= 5
    _report(7, "specification test", ok, time.monotonic() - t0, 30.0,
            f"homog={homog_ok}, monotone={monotone_ok}, "
            f"brackets ok on {brackets} instances, central-J={central_ok}")


def test_c8_linear_iv_end_to_end():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    n, reps, m_bound, theta0 = 2000, 2000, 1.0, 0.7
    pi = np.array([1.0, 0.7, 0.5, 0.3])
    cover = 0
    inv_worst = 0.0
    for r in range(reps):
        z = rng.normal(size=(n, 4))
        u = rng.normal(size=n)
        x = z @ pi + u
        y = (x * theta0 + 0.6 * u + rng.normal(size=n)
             + z[:, 3] * (m_bound / np.sqrt(n)))
        data = IVData(y=y, x=x, z=z, suspect=(3,))
        model = build_model(data, [1.0], "robust")
        mset = MisspecSet(build_b(data), 2, m_bound)
        front = frontier(model, mset)
        choice = select_lambda(front, m_bound, 0.05)
        kn = knot_at(front, choice.lambda_star)
        ci = ci_from_sensitivity(model, mset, kn.k, 0.05, choice.lambda_star)
        if abs(ci.estimate - theta0) <= ci.half_length:
            cover += 1
        if r < 50:
            shifted = build_model(data, [1.0], "robust",
                                  theta_init=tsls(data) + np.array([0.3]))
            inv_worst = max(inv_worst, abs(one_step(model, kn.k)
                                           - one_step(shifted, kn.k)))
    cov = cover / reps
    se = math.sqrt(cov * (1.0 - cov) / reps)
    ok = cov >= 0.95 - 3.0 * se and inv_worst <= 1e-10
    _report(8, "linear IV end-to-end", ok, time.monotonic() - t0, 300.0,
            f"coverage {cov:.4f} (threshold {0.95 - 3 * se:.4f}), one-step "
            f"invariance {inv_worst:.2e}")


def test_c9_modulus_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    concave_ok = nondecr_ok = bind_ok = slope_ok = True
    for i in range(6):
        d_g = int(rng.integers(2, 5))
        d_th = int(rng.integers(1, min(d_g, 2) + 1))
        model = random_model(d_g, d_th, 9000 + i)
        d_gam = int(rng.integers(1, min(d_g, 3) + 1))
        p = 2.0 if i % 2 == 0 else np.inf
        mset = MisspecSet(rng.normal(size=(d_g, d_gam)), p,
                          float(rng.uniform(0.3, 2.0)))
        deltas = np.linspace(0.3, 6.0, 16)
        sols = [half_modulus(model, mset, d) for d in deltas]
        omegas = np.array([s.omega for s in sols])
        concave_ok = concave_ok and bool(np.all(np.diff(omegas, 2) <= 1e-6))
        nondecr_ok = nondecr_ok and bool(np.all(np.diff(omegas) >= -1e-10))
        si = np.linalg.inv(model.sigma)
        for s in sols[::5]:
            r = s.c_star - model.gamma @ s.theta_star
            bind_ok = bind_ok and abs(
                float(r @ si @ r) - s.delta**2 / 4.0) <= 1e-6 * s.delta**2
            eps = 1e-5 * s.delta
            fd = (half_modulus(model, mset, s.delta + eps).omega
                  - half_modulus(model, mset, s.delta - eps).omega) / (2 * eps)
            slope_ok = slope_ok and abs(s.omega_prime - fd) <= 1e-3 * abs(fd)
    ok = concave_ok and nondecr_ok and bind_ok and slope_ok
    _report(9, "modulus properties", ok, time.monotonic() - t0, 30.0,
            f"concave={concave_ok}, nondecreasing={nondecr_ok}, "
            f"binding={bind_ok}, slope-matches-sd={slope_ok}")
