"""The confocal pair in closed form: the segment plate E = [-1, 1] and the
ellipse Gamma with semi-axes (cosh 1, sinh 1), whose foci are +-1.

Gamma is the level line g(., inf) = 1 of E's complement, so the condenser
capacity is 1, m(theta) = -theta, the support S_theta is all of Gamma for
theta < 1, and the Bernstein-Walsh bound with the empty q gives
chi(n, k) >= e^-k.  At m equally spaced atoms both Fekete routes have
closed forms as well.  These pin the segment branches (the segment map, the
(b - a)(phi^2 - 1) factor of the Nystrom nodes and the abscissa grids) and
the ellipse's point and velocity, which the disk-plate anchors never reach.
"""

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, EDomain, chi_bruteforce, theta_sweep
from condenser_widths.equilibrium import _theta_stage
from condenser_widths.spectral import spectral_capacity, spectral_equilibrium

CONFOCAL = Condenser(EDomain.segment(-1.0, 1.0),
                     CurveSpec.ellipse(0j, (np.cosh(1.0), np.sinh(1.0)))).validate()


def test_confocal_capacity_is_one():
    solve = spectral_capacity(CONFOCAL)
    assert solve.converged
    assert abs(solve.cap - 1.0) <= 1e-12


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_confocal_m_is_minus_theta(theta):
    _, m = spectral_equilibrium(CONFOCAL, theta)
    assert abs(m + theta) <= 1e-12


def test_confocal_sweep_keeps_the_whole_curve():
    # theta = 1 leaves the field -g(., inf), constant on a level line
    thetas = [0.0, 0.25, 0.5, 0.75, 1.0]
    rep = theta_sweep(CONFOCAL, thetas, n_points=32, grid_n=512, seed=0)
    assert [len(arcs) for arcs in rep.support_arcs] == [1] * len(thetas)
    assert all(abs(cap - 1.0) <= 1e-12 for cap in rep.cap_s_tau)
    assert rep.converged == [True] * len(thetas)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_confocal_chi_lower_meets_bernstein_walsh(n, k):
    # chi >= e^-k; chi_lower is the descent over p at one q, which sits
    # about 0.78 above it here
    est = chi_bruteforce(CONFOCAL, n, k, seed=0)
    assert est.converged
    assert np.log(est.chi_lower) >= -k


@pytest.mark.parametrize("m, grid_n", [(7, 224), (64, 1024), (128, 2048), (256, 4096)])
@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_confocal_fekete_routes_in_closed_form(theta, m, grid_n):
    # On Gamma, phi = e^(1 + it) with t the ellipse parameter, and the
    # density of m(theta) is uniform in t.  The density start puts the atoms
    # at the midpoints of m equal parameter arcs, which are slots because
    # grid_n is a multiple of 2m, and the exchange keeps them.  The product
    # of 1 - q w^k over the m-th roots of unity w^k is 1 - q^m, so m atoms of
    # mass (1 - theta)/m sum their Green kernels in closed form: the field
    # route (mid-gap slots) and the energy route (the atoms) below.
    stage = _theta_stage(CONFOCAL, theta, m, grid_n, 0)
    assert stage.start == "density" and stage.moves == 0
    field = -theta - (1 - theta) * (np.log(2.0) - np.log1p(np.exp(-2.0 * m))) / m
    energy = -theta + (1 - theta) * (1.0 - np.log(m) - np.log(np.expm1(2.0))
                                     + np.log1p(-np.exp(-2.0 * m))) / m
    assert abs(stage.m_field - field) <= 1e-14
    assert abs(stage.m_energy - energy) <= 1e-14
