import numpy as np
import pytest

from condenser_widths import (CurveSpec, DiscreteMeasure, EDomain, balayage_to_E,
                              balayage_to_gamma, counting_alpha_beta, log_potential,
                              sample_curve)
from condenser_widths.errors import UnsupportedCurve, UnsupportedDomain

DISK = EDomain.disk(0j, 1.0)


def random_in_disk(rng, n, rmax):
    return rmax * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def test_sweep_of_atom_at_two():
    src = DiscreteMeasure.atom(2.0, 1.0)
    res = balayage_to_E(src, DISK, 4096)
    assert abs(res.swept.total_mass - 1.0) <= 1e-12
    assert res.shift_constant == pytest.approx(np.log(2.0), abs=1e-14)
    # center evaluation: U at 0 is exactly 0 = -log 2 + log 2
    assert log_potential(res.swept, 0j) == pytest.approx(0.0, abs=1e-12)


def test_potential_identity_on_plate():
    src = DiscreteMeasure.atom(2.0, 1.0)
    res = balayage_to_E(src, DISK, 4096)
    rng = np.random.default_rng(3)
    zs = random_in_disk(rng, 100, 0.95)
    resid = np.abs(log_potential(res.swept, zs) - log_potential(src, zs)
                   - res.shift_constant)
    assert resid.max() <= 1e-6


def test_potential_identity_sources_near_boundary():
    # sources down to boundary distance 0.1; targets stay a fixed depth inside
    # the plate, clear of the atomized boundary layer of the swept measure
    rng = np.random.default_rng(5)
    pts = np.array([1.1, 1.4 * np.exp(0.7j), 2.5 * np.exp(2.2j), 1.2j])
    src = DiscreteMeasure(pts, np.array([0.4, 0.3, 0.2, 0.1]))
    res = balayage_to_E(src, DISK, 4096)
    assert abs(res.swept.total_mass - 1.0) <= 1e-12
    zs = random_in_disk(rng, 100, 0.7)
    resid = np.abs(log_potential(res.swept, zs) - log_potential(src, zs)
                   - res.shift_constant)
    assert resid.max() <= 1e-6


def test_uniform_curve_measure_sweeps_to_uniform():
    pts = sample_curve(CurveSpec.circle(0j, np.e), 4096).points
    omega = DiscreteMeasure(pts, np.full(4096, 1.0 / 4096))
    res = balayage_to_E(omega, DISK, 4096)
    assert len(res.swept) == 4096
    assert np.max(np.abs(res.swept.weights - 1.0 / 4096)) <= 1e-6
    assert abs(res.swept.total_mass - 1.0) <= 1e-12


def test_interior_atoms_pass_through():
    src = DiscreteMeasure([0.5 + 0.1j, 3.0], [0.6, 0.4])
    res = balayage_to_E(src, DISK, 1024)
    assert 0.5 + 0.1j in res.swept.points.tolist()
    assert abs(res.swept.total_mass - 1.0) <= 1e-12
    # only the outside atom contributes to the shift
    assert res.shift_constant == pytest.approx(0.4 * np.log(3.0), abs=1e-14)


def test_sweeping_is_linear():
    nu1 = DiscreteMeasure.atom(2.0, 1.0)
    nu2 = DiscreteMeasure.atom(1.5j, 0.7)
    both = balayage_to_E(nu1 + nu2, DISK, 1024).swept
    separate = balayage_to_E(nu1, DISK, 1024).swept + balayage_to_E(nu2, DISK, 1024).swept
    assert np.array_equal(both.points, separate.points)
    assert np.max(np.abs(both.weights - separate.weights)) <= 1e-12


def test_segment_plate_rejected():
    with pytest.raises(UnsupportedDomain):
        balayage_to_E(DiscreteMeasure.atom(2.0, 1.0), EDomain.segment(-1, 1), 256)


def test_balayage_onto_curve():
    gam = CurveSpec.circle(1.0, 3.0)
    src = DiscreteMeasure.atom(7.0, 1.0)
    res = balayage_to_gamma(src, gam, 4096)
    assert abs(res.swept.total_mass - 1.0) <= 1e-12
    assert res.shift_constant == pytest.approx(np.log(2.0), abs=1e-14)
    # center evaluation: -log 3 = -log 6 + log 2
    assert log_potential(res.swept, 1.0) == pytest.approx(-np.log(3.0), abs=1e-12)
    # identity at random points well inside the curve region
    rng = np.random.default_rng(11)
    zs = 1.0 + random_in_disk(rng, 100, 2.0)
    resid = np.abs(log_potential(res.swept, zs) - log_potential(src, zs)
                   - res.shift_constant)
    assert resid.max() <= 1e-6


def test_balayage_onto_curve_inside_passthrough():
    gam = CurveSpec.circle(1.0, 3.0)
    src = DiscreteMeasure.atom(2.0 + 1.0j, 1.0)
    res = balayage_to_gamma(src, gam, 512)
    assert res.swept.points.tolist() == [2.0 + 1.0j]
    assert res.shift_constant == 0.0
    with pytest.raises(UnsupportedCurve):
        balayage_to_gamma(DiscreteMeasure.atom(9.0, 1.0), CurveSpec.ellipse(0j, (3, 2)), 256)


def test_counting_alpha_monomial(concentric):
    # p = z^k on the concentric pair: alpha is uniform of mass k/n on |z| = 1
    n, k = 8, 3
    alpha, beta = counting_alpha_beta([0j] * k, [], concentric, n, k, 4096)
    assert abs(alpha.total_mass - k / n) <= 1e-12
    assert np.max(np.abs(alpha.weights - (k / n) / 4096)) <= 1e-15
    # q = 1: beta is the pure uniform defect term of mass (n - k)/n
    assert abs(beta.total_mass - (n - k) / n) <= 1e-12
    assert np.max(np.abs(beta.weights - ((n - k) / n) / 4096)) <= 1e-15


def test_counting_beta_zeros_on_curve_pass_through(concentric):
    n, k = 6, 2
    qz = sample_curve(concentric.gamma, 16).points[: n - k]
    alpha, beta = counting_alpha_beta([], qz, concentric, n, k, 1024)
    assert alpha.is_zero
    assert sorted(beta.points.tolist(), key=lambda z: (z.real, z.imag)) == \
        sorted(qz.tolist(), key=lambda z: (z.real, z.imag))
    assert np.allclose(beta.weights, 1.0 / n)


def test_counting_degree_bounds(concentric):
    with pytest.raises(ValueError):
        counting_alpha_beta([0j, 0j], [], concentric, 4, 1, 256)
    with pytest.raises(ValueError):
        counting_alpha_beta([], [3j] * 4, concentric, 4, 1, 256)


def test_counting_beta_noncircular_curve_flagged():
    from condenser_widths import Condenser
    c = Condenser(EDomain.disk(0j, 1.0), CurveSpec.ellipse(0j, (3.0, 2.5))).validate()
    # restriction-only beta works for any curve
    alpha, beta = counting_alpha_beta([], [2.0 + 0.5j, -1.5j], c, 2, 0, 256)
    assert abs(beta.total_mass - 1.0) <= 1e-12
    # the defect term needs the curve equilibrium measure: circles only
    with pytest.raises(UnsupportedCurve):
        counting_alpha_beta([], [2.0 + 0.5j], c, 3, 0, 256)


def test_counting_beta_noncircular_zero_outside_flagged():
    from condenser_widths import Condenser
    c = Condenser(EDomain.disk(0j, 1.0), CurveSpec.ellipse(0j, (3.0, 2.5))).validate()
    # a q zero outside the curve region would need balayage onto the ellipse
    with pytest.raises(UnsupportedCurve):
        counting_alpha_beta([], [2.0 + 0.5j, 4.0], c, 2, 0, 256)
    # no q zeros and no defect: beta is the zero measure
    assert counting_alpha_beta([0.5j], [], c, 1, 1, 256)[1].is_zero
