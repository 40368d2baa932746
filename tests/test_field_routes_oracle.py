"""References for the quantities read off a Fekete stage's one field vector.

The energy route of the curve constant, and the pair energies of the
two-level capacity fit (the oracle in test_spectral_capacity.py), are taken
from the exchange run's own kernel columns; the formulas they replaced
rebuild the atoms x atoms kernel and stay here as references.
gamma_field, the reference for the stage's field, is itself checked against
the public Green potential for atoms off the curve grid.
"""

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, EDomain, DiscreteMeasure
from condenser_widths.equilibrium import _coarse_to_fine, _curve_grid, _theta_stage, gamma_field
from condenser_widths.geometry import green_pole_infinity, sample_curve
from condenser_widths.measure import energy_J, green_pair_energy, green_potential
from test_spectral_capacity import _pair_energy

PAIRS = {
    "level": Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(0j, float(np.e))),
    "offset": Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(1 + 0j, 3.0)),
    "segment-ellipse": Condenser(EDomain.segment(-1.0, 1.0),
                                 CurveSpec.ellipse(0.3 + 0.2j, (3.0, 2.0), rotation=0.4)),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("theta, m", [(0.5, 1), (0.95, 1), (0.5, 64), (0.95, 64)])
def test_energy_route_matches_energy_J(pair, theta, m):
    c = PAIRS[pair].validate(samples=1024)
    stage = _theta_stage(c, theta, m, 2048, 0)
    lam = stage.lam
    g_atoms = green_pole_infinity(c.e_domain, lam.points)
    want = (energy_J(lam, c.e_domain, theta) + float(np.sum(lam.weights * g_atoms))) / (1 - theta)
    assert abs(stage.m_energy - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("pair", ["level", "offset"])
@pytest.mark.parametrize("m, part", [(64, 2048), (32, 2048), (32, 700)])
def test_capacity_level_matches_green_pair_energy(pair, m, part):
    c = PAIRS[pair].validate(samples=1024)
    _, phi_g, _ = _curve_grid(c, 2048)
    phi_g = np.ascontiguousarray(phi_g[:part])  # the whole grid, or a partial support
    g_inf = np.zeros(part)
    chosen = _coarse_to_fine(phi_g, g_inf, m, 0.0, 0).chosen
    want = green_pair_energy(phi_g[chosen], np.full(m, 1.0 / m))
    energy, converged = _pair_energy(phi_g, g_inf, m, 0)
    assert converged and abs(energy - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_gamma_field_off_grid_atoms_match_green_potential(pair):
    c = PAIRS[pair].validate(samples=1024)
    # 97 atoms just outside the curve and 3 on the plate, none on a grid slot
    outer = c.gamma.center + 1.01 * (sample_curve(c.gamma, 97).points - c.gamma.center)
    plate = c.e_domain.midpoint + np.array([0.0, 0.2, -0.3])
    lam = DiscreteMeasure(np.concatenate([outer, plate]), np.full(100, 0.004))
    _, vals, mask = gamma_field(c, lam, 2048)
    pts = sample_curve(c.gamma, 2048).points
    want = green_potential(lam, c.e_domain, pts) - green_pole_infinity(c.e_domain, pts)
    assert not mask.any()
    assert np.max(np.abs(vals - want)) <= 1e-13
