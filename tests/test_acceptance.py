"""Acceptance suite: every criterion prints one pass/fail line with the
measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.

Shared heavyweight artifacts (the 256-point stage at theta = 0.5, the 21-point
sweep, the high-resolution small-theta constant) come from session fixtures in
conftest.py, so the whole suite stays well under the runtime budget.
"""

import json
import math

import numpy as np

from condenser_widths import (CurveSpec, DiscreteMeasure, M_functional, ZeroConfig,
                              chi_asymptotic_pair, chi_bruteforce, balayage_to_E,
                              condenser_capacity, green_potential, green_pole_infinity,
                              leja_weighted, log_potential, m_hat_theta, m_theta,
                              sample_curve, zero_distribution_diag)
from condenser_widths.cli import main as cli_main


def report(num, label, checks):
    """checks: list of (description, bool).  Prints one line per criterion."""
    ok = all(flag for _, flag in checks)
    detail = "; ".join(d for d, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    for desc, flag in checks:
        assert flag, f"criterion {num} failed: {desc}"


def test_criterion_01_concentric_anchor(concentric):
    checks = []
    for theta in (0.25, 0.5, 0.75):
        m_e, m_f = m_theta(concentric, theta, 256, 4096, seed=0)
        checks.append((f"theta={theta}: energy {m_e:+.4f}", abs(m_e + theta) <= 0.02))
        checks.append((f"field {m_f:+.4f}", abs(m_f + theta) <= 0.02))
        checks.append((f"route gap {abs(m_e - m_f):.4f}", abs(m_e - m_f) <= 0.03))
    report(1, "m_theta = -theta on the level-curve pair", checks)


def test_criterion_02_endpoints(concentric, offset, segment_pair):
    m_e0, m_f0 = m_theta(concentric, 0.0, 256, 4096)
    m_e1, m_f1 = m_theta(offset, 1.0, 256, 4096)
    mhat_disk = m_hat_theta(concentric, DiscreteMeasure.zero())
    mhat_seg = m_hat_theta(segment_pair, DiscreteMeasure.zero())
    checks = [
        (f"m_0 = {m_f0:.1e}", abs(m_e0) <= 1e-3 and abs(m_f0) <= 1e-3),
        (f"offset m_1 = {m_f1:.8f}", abs(m_f1 + math.log(4.0)) <= 1e-6 and m_e1 == m_f1),
        (f"unit-disk mhat_1 = {mhat_disk}", mhat_disk == 0.0),
        (f"segment mhat_1 = {mhat_seg:.6f}", abs(mhat_seg - math.log(2.0)) <= 1e-12),
    ]
    report(2, "endpoint constants", checks)


def test_criterion_03_capacity_and_slope(concentric, concentric_e2,
                                         concentric_m_small_theta):
    cap1 = condenser_capacity(concentric)
    cap2 = condenser_capacity(concentric_e2)
    _, m_f = concentric_m_small_theta
    slope_err = abs(m_f / 0.05 + 1.0 / cap1) * cap1
    checks = [
        (f"cap(rho=e) = {cap1:.6f}", abs(cap1 - 1.0) <= 1e-3),
        (f"cap(rho=e^2) = {cap2:.6f}", abs(cap2 - 0.5) <= 1e-3),
        (f"slope rel err {slope_err:.4f}", slope_err <= 0.05),
    ]
    report(3, "condenser capacities and the small-theta slope", checks)


def test_criterion_04_integral_formula(concentric_sweep):
    resid = concentric_sweep.integral_check_residual
    report(4, "integral formula over the sweep",
           [(f"residual {resid:.2e}", resid <= 0.05)])


def test_criterion_05_monotonicity(concentric_sweep):
    rep = concentric_sweep
    slack = 1e-6
    dec = all(b < a + slack for a, b in zip(rep.m_theta_field, rep.m_theta_field[1:]))
    inc = all(b > a - slack for a, b in zip(rep.m_hat_theta, rep.m_hat_theta[1:]))
    report(5, "monotone constants across the sweep",
           [("m strictly decreasing", dec and rep.monotone_m),
            ("mhat strictly increasing", inc and rep.monotone_m_hat)])


def test_criterion_06_chi_pins(concentric, offset):
    checks = []
    est = chi_bruteforce(concentric, 4, 0, seed=1)
    checks.append((f"k=0 chi = {est.chi_upper}", est.chi_upper == 1.0
                   and est.chi_lower == 1.0))
    estimates = [est]
    for n in (2, 3, 4, 5):
        est = chi_bruteforce(offset, n, n, seed=1)
        exact = 4.0 ** (-n)
        checks.append((f"offset n={n}: {est.chi_upper:.3e}",
                       abs(est.chi_upper - exact) <= 0.01 * exact))
        estimates.append(est)
    sandwich = all(e.chi_lower <= e.chi_upper + 1e-9 for e in estimates)
    checks.append(("sandwich ordering everywhere", sandwich))
    report(6, "chi pins at k = 0 and full-mass offset", checks)


def test_criterion_07_chi_trend(concentric):
    rates = []
    for n in (16, 32, 64):
        est = chi_asymptotic_pair(concentric, n, n // 2, seed=0)
        rates.append(est.log_rate_upper)
    checks = [(f"rates {['%.4f' % r for r in rates]}", True),
              (f"n=64 rate within 0.1 of -0.5", abs(rates[-1] + 0.5) <= 0.1),
              ("non-increasing within 0.01",
               all(b <= a + 0.01 for a, b in zip(rates, rates[1:])))]
    report(7, "chi upper-rate trend toward the curve constant", checks)


def test_criterion_08_balayage(concentric):
    e = concentric.e_domain
    rng = np.random.default_rng(3)
    pts = np.array([1.1, 1.4 * np.exp(0.7j), 2.5 * np.exp(2.2j), 1.2j])
    src = DiscreteMeasure(pts, np.array([0.4, 0.3, 0.2, 0.1]))
    res = balayage_to_E(src, e, 4096)
    mass_err = abs(res.swept.total_mass - 1.0)
    # targets away from the atomized boundary layer of the swept measure
    zs = 0.7 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    resid = float(np.max(np.abs(log_potential(res.swept, zs) - log_potential(src, zs)
                                - res.shift_constant)))
    gam_pts = sample_curve(concentric.gamma, 4096).points
    omega = DiscreteMeasure(gam_pts, np.full(4096, 1.0 / 4096))
    uni = balayage_to_E(omega, e, 4096)
    uni_dev = float(np.max(np.abs(uni.swept.weights - 1.0 / 4096)))
    checks = [(f"mass error {mass_err:.1e}", mass_err <= 1e-12),
              (f"identity residual {resid:.2e}", resid <= 1e-6),
              (f"uniform sweep deviation {uni_dev:.2e}", uni_dev <= 1e-6)]
    report(8, "balayage identities", checks)


def test_criterion_09_basic_equation(concentric, concentric_lambda_256,
                                     concentric_mu_256):
    lam, mu = concentric_lambda_256, concentric_mu_256
    mhat = m_hat_theta(concentric, lam)
    xs = np.linspace(-3.5, 3.5, 32)
    grid = np.array([complex(x, y) for x in xs for y in xs])
    supp = np.concatenate([lam.points, mu.points])
    grid = grid[np.min(np.abs(grid[:, None] - supp[None, :]), axis=1) >= 0.15]
    lhs = green_potential(lam, concentric.e_domain, grid) \
        - green_pole_infinity(concentric.e_domain, grid)
    rhs = log_potential(lam, grid) + log_potential(mu, grid) - mhat
    resid = float(np.max(np.abs(lhs - rhs)))
    report(9, "curve and plate potentials glued by the basic identity",
           [(f"max residual {resid:.2e} on {grid.size} points", resid <= 0.05)])


def test_criterion_10_minimax_sandwich(concentric, concentric_lambda_256,
                                       concentric_mu_256):
    lam, mu = concentric_lambda_256, concentric_mu_256
    _, m_f = m_theta(concentric, 0.5, 256, 4096)
    rng = np.random.default_rng(11)
    lows, highs = [], []
    for _ in range(20):
        pts = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        w = rng.uniform(0.2, 1.0, 64)
        lows.append(M_functional(DiscreteMeasure(pts, 0.5 * w / w.sum()) + lam, concentric))
        ptsg = np.e * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        wg = rng.uniform(0.2, 1.0, 64)
        highs.append(M_functional(mu + DiscreteMeasure(ptsg, 0.5 * wg / wg.sum()), concentric))
    lo, hi = min(lows), max(highs)
    checks = [(f"min over mu' {lo:+.4f} >= {m_f - 0.02:+.4f}", lo >= m_f - 0.02),
              (f"max over lambda' {hi:+.4f} <= {m_f + 0.02:+.4f}", hi <= m_f + 0.02)]
    report(10, "random measures bracket the constant", checks)


def test_criterion_11_zero_distribution(concentric, concentric_lambda_256):
    n, k = 128, 64
    egrid = sample_curve(CurveSpec.circle(0j, 1.0), 4096).points
    ref = DiscreteMeasure(egrid, np.full(4096, 0.5 / 4096))
    xs = np.linspace(-2, 2, 24)
    grid = np.array([complex(x, y) for x in xs for y in xs])
    for r in (1.0, math.e):
        grid = grid[np.abs(np.abs(grid) - r) >= 0.06]
    pin = zero_distribution_diag(ZeroConfig((0j,) * k, (), n, k), concentric, ref, grid)
    mu = leja_weighted(concentric, concentric_lambda_256, 0.5, k, 4096)
    diag = zero_distribution_diag(ZeroConfig(tuple(mu.points.tolist()), (), n, k),
                                  concentric, ref, grid)
    checks = [(f"monomial pin {pin:.1e}", pin <= 1e-6),
              (f"asymptotic-pair diagnostic {diag:.2e} (fixture bound 1e-3)",
               diag <= 1e-3)]
    report(11, "swept zero distributions match the plate equilibrium", checks)


def test_criterion_12_determinism(tmp_path):
    cfg = {"condenser": {"e": {"kind": "disk", "center": [0, 0], "radius": 1.0},
                         "gamma": {"kind": "circle", "center": [0, 0],
                                   "radius": math.e}},
           "theta": 0.5, "n_points": 64, "grid_n": 1024, "n": 4, "k": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for task in ("equilibrium", "chi"):
        per_task = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / f"{task}-{name}"
            code = cli_main([task, "--config", str(path), "--seed", "42",
                             "--threads", str(threads), "--out", str(out)])
            assert code == 0
            per_task.append((out / "result.json").read_bytes())
        blobs.append(per_task)
    same = all(a == b for a, b in blobs)
    report(12, "byte-identical payloads across reruns and thread counts",
           [("equilibrium and chi payloads identical", same)])
