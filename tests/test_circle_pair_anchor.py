"""The offset pair's equilibrium in closed form, and the Fekete start drawn from it.

The Moebius map w = (z - a)/(1 - a z), a = (sqrt(45) - 7)/2, keeps the unit
circle and takes |z - 1| = 3 to |w| = R = golden^2.  While the support is
the whole curve (theta <= theta* = 1/sqrt(5)), the weighted equilibrium is
d lambda_theta = (P_r(s) - theta) ds / 2pi in the Moebius angle s, with
r = 1/R and P_r the Poisson kernel, and m(theta) = -theta log R.

The anchors below read the pipeline's outputs only; the start's cdf is
checked against a quadrature of P_r, the other route to the same density.
The tolerances are the errors measured at 256 atoms on 4096 slots (seeds
0-2) with a margin: field route -2.4e-3 to -3.4e-3 and energy route
-1.6e-2 to -2.4e-2 over theta 0.05-0.4; the field route's error falls like
1/m, the energy route's like (log m)/m.
"""

import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, EDomain, equilibrium_result,
                              sample_curve)
from condenser_widths import equilibrium as eq

TWO_PI = 2 * np.pi
GOLDEN = (1 + np.sqrt(5.0)) / 2
LOG_R = 2 * np.log(GOLDEN)
THETA_STAR = 1 / np.sqrt(5.0)
A = (np.sqrt(45.0) - 7) / 2
FIELD_TOL, ENERGY_TOL = 4e-3, 2.6e-2


def moved_copy():
    # the offset pair shifted, rotated and rescaled: z -> c0 + 0.6 e^{2i} z
    c0, scale, turn = -0.7 + 1.3j, 0.6, np.exp(2.0j)
    return Condenser(EDomain.disk(c0, scale),
                     CurveSpec.circle(c0 + scale * turn, 3 * scale)).validate()


@pytest.mark.parametrize("theta", [0.05, 0.1, 0.25, 0.4])
def test_both_routes_against_closed_form(offset, theta):
    stage = eq._theta_stage(offset, theta, 256, 4096, 0)
    exact = -theta * LOG_R
    # the discrete constants lie below m(theta) by the measured defects
    assert -FIELD_TOL <= stage.m_field - exact < 0
    assert -ENERGY_TOL <= stage.m_energy - exact < 0
    assert stage.start == "density"


@pytest.mark.parametrize("theta", [0.1, 0.4])
def test_moved_copy_has_the_same_constant_and_threshold(offset, theta):
    copy = moved_copy()
    here, there = (eq._theta_stage(c, theta, 256, 4096, 0) for c in (offset, copy))
    # the grids sit differently on the two curves: measured gaps 1.2e-4 and 2.6e-5
    assert abs(here.m_field - there.m_field) <= 2e-4
    assert abs(here.m_energy - there.m_energy) <= 5e-5
    params = sample_curve(copy.gamma, 4096).params
    for c in (offset, copy):
        assert eq._density_start(c, THETA_STAR - 1e-9, 64, params) is not None
        assert eq._density_start(c, THETA_STAR + 1e-9, 64, params) is None


@pytest.mark.parametrize("theta", [0.0, 0.2, 0.44])
def test_start_cdf_matches_poisson_quadrature(offset, theta):
    n = 4096
    samples = sample_curve(offset.gamma, n)
    k0, cdf = eq._density_cdf(offset, theta, samples.params)
    assert k0 == 0  # the density peaks at z = 4, parameter 0
    z = samples.points
    s = np.mod(np.angle((z - A) / (1 - A * z)), TWO_PI)
    assert abs(s[0]) <= 1e-15
    # Gauss-Legendre on [0, s] of P_r; its poles lie log R from the real axis
    x, w = np.polynomial.legendre.leggauss(64)
    r = 1 / GOLDEN ** 2
    sig = s[:, None] * (x[None, :] + 1) / 2
    poisson = (1 - r * r) / (1 - 2 * r * np.cos(sig) + r * r)
    integral = s / 2 * (poisson @ w)
    want = (integral - theta * s) / (TWO_PI * (1 - theta))
    assert np.max(np.abs(cdf - want)) <= 1e-12
    assert np.all(np.diff(cdf) >= 0)


def test_start_exists_up_to_theta_star(offset):
    params = sample_curve(offset.gamma, 4096).params
    start = eq._density_start(offset, 0.44, 256, params)
    assert start is not None and start[0] == 0
    assert np.unique(start).size == 256 and np.all(np.diff(start) > 0)
    assert eq._density_start(offset, 0.45, 256, params) is None


def test_start_only_for_a_disk_inside_a_circle(offset, segment_pair):
    ellipse = Condenser(EDomain.disk(0j, 1.0), CurveSpec.ellipse(0j, (3.0, 2.0))).validate()
    for c in (segment_pair, ellipse):
        assert eq._density_cdf(c, 0.1, sample_curve(c.gamma, 1024).params) is None
    # the level pair's threshold is 1: the start is the equispaced grid from parameter 0
    level = Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(0j, float(np.e)))
    start = eq._density_start(level, 0.9, 64, sample_curve(level.gamma, 4096).params)
    assert np.array_equal(start, 64 * np.arange(64))


@pytest.mark.parametrize("m", [200, 256])
def test_crowded_start_stays_distinct(offset, m):
    # the density is at most 1 + theta* times uniform in t, so a stage's 16
    # slots per atom never collide; 200 or 256 atoms on 256 slots do near
    # the peak, and the bumped slots stay distinct and on the grid
    start = eq._density_start(offset, 0.44, m, sample_curve(offset.gamma, 256).params)
    assert np.unique(start).size == m and start.min() >= 0 and start.max() < 256


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.4])
def test_support_is_whole_curve_below_theta_star(offset, theta):
    res = equilibrium_result(offset, theta, 256, 4096, seed=0)
    assert res.support_arcs == [(0.0, TWO_PI)]


def test_support_is_one_arc_above_theta_star(offset):
    res = equilibrium_result(offset, 0.6, 256, 4096, seed=0)
    assert len(res.support_arcs) == 1
    t0, t1 = res.support_arcs[0]
    assert t0 > t1  # a proper arc through parameter 0, where the density peaks


def test_seeded_stage_converges_and_reports_it(offset):
    res = equilibrium_result(offset, 0.1, 256, 4096, seed=1)
    r = res.residuals
    assert r["exchange_start"] == "density" and r["exchange_converged"] is True
    assert 1 <= r["exchange_passes"] < 200 and r["exchange_moves"] >= 0
    above = equilibrium_result(offset, 0.6, 128, 4096, seed=1).residuals
    assert above["exchange_start"] == "coarse_to_fine" and above["exchange_converged"] is True


@pytest.mark.parametrize("theta", [0.05, 0.25, 0.4])
def test_fekete_atoms_follow_the_exact_density(offset, theta):
    # the atoms, mapped through the exact cdf, are uniform on [0, 1] to within
    # a Kolmogorov-Smirnov distance of 1.5/m (measured 1.02/m to 1.09/m), for
    # the seeded stage and for the coarse-to-fine solve it replaced
    m, n = 256, 4096
    samples, phi_g, g_inf = eq._curve_grid(offset, n)
    k0, cdf = eq._density_cdf(offset, theta, samples.params)
    seeded = eq._theta_stage(offset, theta, m, n, 0)
    assert seeded.start == "density"
    unseeded = eq._coarse_to_fine(phi_g, g_inf, m, (m - 1) / (1 - theta), 0)
    i = np.arange(1, m + 1)
    for chosen in (np.flatnonzero(eq._grid_support_mask(samples.points, seeded.lam)),
                   unseeded.chosen):
        u = np.sort(cdf[(chosen - k0) % n])
        ks = max(np.max(i / m - u), np.max(u - (i - 1) / m))
        assert ks <= 1.5 / m


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.6, 1.0])
def test_support_S_theta_agrees_with_equilibrium_result(offset, theta):
    # support_S_theta's threshold is equilibrium_result's: one arc each time,
    # the whole curve below theta*; at theta = 1 lambda_n is the zero measure
    res = equilibrium_result(offset, theta, 256, 4096, seed=1)
    arcs = eq.support_S_theta(offset, res.lambda_n, res.m_theta_field, grid_n=4096)
    assert arcs == res.support_arcs and len(arcs) == 1
    assert (arcs == [(0.0, TWO_PI)]) == (theta < THETA_STAR)
