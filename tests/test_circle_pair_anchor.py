"""The offset pair's equilibrium in closed form: the oracle of the Nystrom
weighted-equilibrium solve and of the Fekete stage started from it.

The Moebius map w = (z - a)/(1 - a z), a = (sqrt(45) - 7)/2, keeps the unit
circle and takes |z - 1| = 3 to |w| = R = golden^2.  While the support is
the whole curve (theta <= theta* = 1/sqrt(5)), the weighted equilibrium is
d lambda_theta = (P_r(s) - theta) ds / 2pi in the Moebius angle s, with
r = 1/R and P_r the Poisson kernel, and m(theta) = -theta log R.
_density_cdf below is that closed form on a curve grid; it is checked
against a quadrature of P_r, the other route to the same density.

The anchors below read the pipeline's outputs only.  The tolerances are the
errors measured at 256 atoms on 4096 slots (seeds 0-2) with a margin: field
route -2.4e-3 to -3.4e-3 and energy route -1.6e-2 to -2.4e-2 over theta
0.05-0.4; the field route's error falls like 1/m, the energy route's like
(log m)/m.
"""

import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, EDomain, equilibrium_result,
                              green_pole_infinity, sample_curve)
from condenser_widths import equilibrium as eq
from condenser_widths.spectral import spectral_equilibrium

TWO_PI = 2 * np.pi
GOLDEN = (1 + np.sqrt(5.0)) / 2
LOG_R = 2 * np.log(GOLDEN)
THETA_STAR = 1 / np.sqrt(5.0)
A = (np.sqrt(45.0) - 7) / 2
FIELD_TOL, ENERGY_TOL = 4e-3, 2.6e-2
# the pinned supports above theta*, each an arc centred on parameter 0 (a
# Chebyshev solve on the arc, whose m agrees to 5e-12 between 24 and 48
# nodes): theta -> (m(theta), arc half-width)
ARC_TABLE = {0.45: (-0.4331014084006, 3.0299190726), 0.5: (-0.4847332792342, 2.6452413515),
             0.6: (-0.6047263966229, 2.2378045039), 0.75: (-0.8263155004108, 1.6978113293),
             0.9: (-1.1120005257360, 1.0465152797)}


def _density_cdf(c: Condenser, theta: float, params: np.ndarray):
    """(k0, cdf) of the exact equilibrium lambda_theta of a disk plate inside a
    circle on the curve grid, for theta <= theta*; None for other pairs and
    above theta*.

    Scaled to the unit plate and rotated so the circle's centre lies on the
    positive real axis, the circle meets that axis at x1 < -1 < 1 < x2.  The
    Moebius map w = (z - a)/(1 - a z), a the root in (-1, 1) of
    q a^2 - 2p a + q with p = 1 + x1 x2 and q = x1 + x2, keeps the unit
    circle and takes the circle to |w| = R.  While the support is the whole
    curve, lambda_theta = omega_inf - theta nu: omega_inf (the harmonic
    measure of infinity) is uniform in the grid parameter t, nu (the
    condenser measure) uniform in s = arg w.  That holds up to
    theta* = (1 - r)/(1 + r), r = R |a|.  Slot k0 is the one nearest the
    density peak, the point of the circle farthest from the plate centre
    (parameter 0 for a concentric pair), and cdf[j] = lambda_theta of the
    arc from t0 = params[k0] to params[k0 + j] over 1 - theta:
    ((t - t0) - theta (s - s0)) / (2 pi (1 - theta)).
    """
    e, gamma = c.e_domain, c.gamma
    if e.kind != "disk" or gamma.kind != "circle":
        return None
    centre = (gamma.center - e.center) / e.radius
    d, rot, rad = abs(centre), float(np.angle(centre)), gamma.radius / e.radius
    x1, x2 = d - rad, d + rad
    p, q = 1.0 + x1 * x2, x1 + x2
    # the roots multiply to 1 and p < 0, so this is the one inside (-1, 1)
    a = q / (p - np.sqrt((1.0 - x1 * x1) * (1.0 - x2 * x2)))
    r = abs((x2 - a) / (1.0 - a * x2) * a)
    if theta > (1.0 - r) / (1.0 + r):
        return None
    k0 = int(np.rint(rot / TWO_PI * params.size)) % params.size
    t = np.roll(params, -k0)
    z = d + rad * np.exp(1j * (t - rot))
    s = np.angle((z - a) / (1.0 - a * z))
    cdf = (np.mod(t - t[0], TWO_PI) - theta * np.mod(s - s[0], TWO_PI)) / (TWO_PI * (1.0 - theta))
    return k0, cdf


def interpolant_cdf(density):
    """The cdf from parameter 0 of the trigonometric interpolant of density
    on its equispaced nodes, at the nodes: the interpolant's integral, exact
    term by term (the Nyquist term integrates to 0 at the nodes)."""
    n = density.size
    coef = np.fft.fft(density) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    prim = np.zeros(n, dtype=complex)
    live = (k != 0) & (np.abs(k) < n / 2)
    prim[live] = coef[live] / (1j * k[live])
    t = TWO_PI * np.arange(n) / n
    integral = coef[0].real * t + (n * np.fft.ifft(prim) - prim.sum()).real
    return integral / (TWO_PI * coef[0].real)


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
    # the weighted solve gives both the same constant, and the whole curve as
    # the support up to theta* but not past it
    for c in (offset, copy):
        assert abs(spectral_equilibrium(c, theta)[1] + theta * LOG_R) <= 1e-14
        assert np.all(spectral_equilibrium(c, 0.44)[0] > 0)
        assert not np.all(spectral_equilibrium(c, 0.45)[0] > 0)


@pytest.mark.parametrize("theta", [0.0, 0.2, 0.44])
def test_start_cdf_matches_poisson_quadrature(offset, theta):
    n = 4096
    samples = sample_curve(offset.gamma, n)
    k0, cdf = _density_cdf(offset, theta, samples.params)
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


@pytest.mark.parametrize("theta", [0.0, 0.2, 0.4, 0.44])
def test_nystrom_density_is_the_closed_form(offset, theta):
    # measured 7e-15 in the cdf and 1e-16 in m
    density, m = spectral_equilibrium(offset, theta)
    n = density.size
    k0, cdf = _density_cdf(offset, theta, TWO_PI * np.arange(n) / n)
    assert k0 == 0
    assert abs(TWO_PI / n * density.sum() - (1 - theta)) <= 1e-14
    assert np.max(np.abs(interpolant_cdf(density) - cdf)) <= 1e-12
    assert abs(m + theta * LOG_R) <= 1e-14


@pytest.mark.parametrize("theta", sorted(ARC_TABLE))
def test_nystrom_constant_against_the_arc_table(offset, theta):
    # past theta* the density has soft edges, so the 128-node value converges
    # algebraically: measured at most 1.9e-5 off the table (theta 0.9)
    m_exact, half_width = ARC_TABLE[theta]
    density, m = spectral_equilibrium(offset, theta)
    assert abs(m - m_exact) <= 5e-5
    # one arc of nodes through parameter 0, whose edges lie within a node
    # spacing of the table's
    n = density.size
    t = TWO_PI * np.arange(n) / n
    t = np.where(t > np.pi, t - TWO_PI, t)
    kept = density > 0
    assert np.array_equal(kept, np.abs(t) <= np.max(np.abs(t[kept])))
    assert abs(np.max(np.abs(t[kept])) - half_width) <= TWO_PI / n


@pytest.mark.parametrize("theta", [0.999, 1 - 1e-11])
def test_weighted_solve_keeps_the_largest_green_value_near_theta_one(offset, theta):
    # the active set never empties: it shrinks onto the node of largest
    # g(., inf), z = 4 (measured 5 nodes at theta 0.999, 1 at 1 - 1e-11)
    density, m = spectral_equilibrium(offset, theta)
    n = density.size
    g = green_pole_infinity(offset.e_domain, offset.gamma.point(TWO_PI * np.arange(n) / n))
    kept = np.flatnonzero(density > 0)
    assert np.argmax(g) in kept and kept.size <= 5
    assert np.all(density >= 0)
    assert abs(TWO_PI / n * density.sum() - (1 - theta)) <= 1e-15
    assert -np.log(4.0) <= m < -np.log(4.0) + 1e-2


def test_start_counts_from_the_peak_then_from_the_arc(offset):
    n, m = 4096, 256
    params = sample_curve(offset.gamma, n).params
    # below theta* the cdf counts from the density peak, slot 0, and atom 0
    # sits where it reaches 1/(2m)
    below = eq._quantile_start(offset, 0.44, m, params)
    assert np.unique(below).size == m and np.all(np.diff(below) > 0)
    assert 0 < below[0] < n // m
    # above it the support is one arc through slot 0, and the cdf counts from
    # the arc's first slot, where the interpolated density leaves 0
    density, _ = spectral_equilibrium(offset, 0.6)
    dens = np.interp(params, TWO_PI * np.arange(density.size) / density.size, density,
                     period=TWO_PI)
    first = np.flatnonzero((dens > 0) & (np.roll(dens, 1) == 0))
    assert first.size == 1 and np.all(dens[[0, -1]] > 0)
    above = eq._quantile_start(offset, 0.6, m, params)
    assert np.all(np.diff((above - first[0]) % n) > 0) and np.all(dens[above] > 0)


def test_start_covers_every_smooth_curve(segment_pair):
    ellipse = Condenser(EDomain.disk(0j, 1.0), CurveSpec.ellipse(0j, (3.0, 2.0))).validate()
    for c in (segment_pair, ellipse):
        assert eq._theta_stage(c, 0.1, 64, 1024, 0).start == "density"
    # a polar curve keeps the coarse-to-fine solve
    polar = Condenser(EDomain.disk(0j, 1.0),
                      CurveSpec.polar(0j, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0])).validate()
    assert eq._theta_stage(polar, 0.1, 64, 1024, 0).start == "coarse_to_fine"
    # the level pair's density is uniform up to rounding, whose peak would
    # be noise: the cdf counts from slot 0, and the start is the equispaced
    # grid half a spacing on
    level = Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(0j, float(np.e)))
    start = eq._quantile_start(level, 0.9, 64, sample_curve(level.gamma, 4096).params)
    assert np.array_equal(start, 32 + 64 * np.arange(64))


@pytest.mark.parametrize("m", [200, 256])
def test_crowded_start_stays_distinct(offset, m):
    # the density is at most 1 + theta* times uniform in t, so a stage's 16
    # slots per atom never collide; 200 or 256 atoms on 256 slots do near
    # the peak, and the bumped slots stay distinct and on the grid
    start = eq._quantile_start(offset, 0.44, m, sample_curve(offset.gamma, 256).params)
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
    assert above["exchange_start"] == "density" and above["exchange_converged"] is True


@pytest.mark.parametrize("theta", [0.05, 0.25, 0.4])
def test_fekete_atoms_follow_the_exact_density(offset, theta):
    # the atoms, mapped through the exact cdf, are uniform on [0, 1] to within
    # a Kolmogorov-Smirnov distance of 1.5/m, for the density-started stage
    # (measured 0.55/m to 0.60/m) and for the coarse-to-fine solve it
    # replaced (1.02/m to 1.05/m)
    m, n = 256, 4096
    samples, phi_g, g_inf = eq._curve_grid(offset, n)
    k0, cdf = _density_cdf(offset, theta, samples.params)
    seeded = eq._theta_stage(offset, theta, m, n, 0)
    assert seeded.start == "density"
    unseeded = eq._coarse_to_fine(phi_g, g_inf, m, (m - 1) / (1 - theta), 0)
    i = np.arange(1, m + 1)
    for chosen in (np.flatnonzero(np.isin(samples.points, seeded.lam.points)),
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
