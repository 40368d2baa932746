import json
from dataclasses import fields

import numpy as np
import pytest

from condenser_widths import (BalayageResult, ChiEstimate, DiscreteMeasure, EDomain,
                              EquilibriumResult, M_functional, SweepReport, WidthReport,
                              ZeroConfig, energy_I, energy_J, green_kernel, green_potential,
                              log_potential, sample_curve, to_json, CurveSpec)
from condenser_widths.errors import EmptyMeasure, MassMismatch
from condenser_widths.geometry import kernel_from_phi, phi_exterior
from condenser_widths.measure import LOG_CLAMP, minimax_scan_sets


def uniform_circle(radius, mass, m=4096, center=0j):
    pts = sample_curve(CurveSpec.circle(center, radius), m).points
    return DiscreteMeasure(pts, np.full(m, mass / m))


def test_measure_construction_merges_duplicates():
    mu = DiscreteMeasure([1 + 1j, 2.0, 1 + 1j], [0.5, 1.0, 0.25])
    assert len(mu) == 2
    assert mu.total_mass == pytest.approx(1.75)
    # first occurrence keeps its slot
    assert mu.points[0] == 1 + 1j and mu.weights[0] == 0.75


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0], [0.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [1.0])


def test_zero_measure_is_legal():
    z = DiscreteMeasure.zero()
    assert z.is_zero and z.total_mass == 0.0
    assert log_potential(z, 3.0) == 0.0


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=17) + 1j * rng.normal(size=17),
                         rng.uniform(0.1, 1.0, size=17))
    blob = json.dumps(mu.to_json_dict())
    back = DiscreteMeasure.from_json_dict(json.loads(blob))
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


@pytest.mark.parametrize("record, pinned", [
    (EquilibriumResult(theta=0.3, lambda_n=DiscreteMeasure([1 + 2j, 3j], [0.4, 0.3]),
                       mu_n=DiscreteMeasure.atom(0j, 0.3), m_theta_energy=-0.3,
                       m_theta_field=-0.31, m_hat_theta=-0.7,
                       support_arcs=[(0.0, 1.5), (2.0, 3.0)],
                       residuals={"two_route": 0.01, "exchange_converged": True}),
     {"lambda_n": {"points": [[1.0, 2.0], [0.0, 3.0]], "weights": [0.4, 0.3]},
      "mu_n": {"points": [[0.0, 0.0]], "weights": [0.3]},
      "support_arcs": [[0.0, 1.5], [2.0, 3.0]],
      "residuals": {"two_route": 0.01, "exchange_converged": True}}),
    (ChiEstimate(n=3, k=1, chi_upper=0.5, chi_lower=0.25, log_rate_upper=-0.2,
                 log_rate_lower=-0.4, method="bruteforce",
                 config=ZeroConfig((1 + 0.5j,), (np.complex128(2 - 1j), 1.5 + 0j), 3, 1),
                 converged=False),
     {"config": {"p_zeros": [[1.0, 0.5]], "q_zeros": [[2.0, -1.0], [1.5, 0.0]],
                 "n": 3, "k": 1},
      "method": "bruteforce", "converged": False}),
    (WidthReport(theta=0.5, predicted_rate=-0.5, widom_rate=-1.0,
                 chi_lower_bounds=[(4, 2, -0.3), (6, 3, -0.25)]),
     {"chi_lower_bounds": [[4, 2, -0.3], [6, 3, -0.25]], "normalization": "per-n"}),
    (SweepReport(thetas=[0.0, 1.0], m_theta_energy=[0.0, -1.0], m_theta_field=[0.0, -1.0],
                 m_hat_theta=[-1.0, 0.0], cap_condenser=1.0, cap_s_tau=[1.0, 2.0],
                 support_arcs=[[(0.0, 6.0)], [(0.0, 1.0), (2.0, 3.0)]],
                 integral_check_residual=0.0, monotone_m=True, monotone_m_hat=True,
                 converged=[True, False]),
     {"support_arcs": [[[0.0, 6.0]], [[0.0, 1.0], [2.0, 3.0]]], "converged": [True, False]}),
    (BalayageResult(swept=DiscreteMeasure([1j, 2.0], [0.5, 0.5]), shift_constant=0.25),
     {"swept": {"points": [[0.0, 1.0], [2.0, 0.0]], "weights": [0.5, 0.5]},
      "shift_constant": 0.25}),
], ids=["equilibrium", "chi", "width", "sweep", "balayage"])
def test_to_json_walks_result_records(record, pinned):
    """Every field of a record is written; complex numbers become [re, im]
    and tuples become lists, at any depth."""
    out = json.loads(json.dumps(to_json(record)))
    assert set(out) == {f.name for f in fields(record)}
    for name, want in pinned.items():
        assert out[name] == want


def test_log_potential_values():
    assert log_potential(DiscreteMeasure.atom(0j, 1.0), np.e) == pytest.approx(-1.0, abs=1e-15)
    # uniform unit mass on |z| = e: constant -1 inside
    mu = uniform_circle(np.e, 1.0)
    assert log_potential(mu, 0.5) == pytest.approx(-1.0, abs=1e-9)


def test_log_potential_far_field_mass_scaling():
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(rng.normal(size=30) + 1j * rng.normal(size=30),
                         rng.uniform(0.1, 0.5, 30))
    z = 1e6 * np.exp(0.3j)
    expect = -mu.total_mass * np.log(abs(z))
    assert abs(log_potential(mu, z) - expect) <= 1e-5 * abs(expect)


def test_green_potential_values(concentric):
    e = concentric.e_domain
    assert green_potential(DiscreteMeasure.atom(3.0, 1.0), e, 2.0) == pytest.approx(
        np.log(5.0), abs=1e-14)
    assert green_potential(DiscreteMeasure.atom(3.0, 1.0), e, 0.2 + 0.1j) == 0.0
    # annulus: the uniform curve measure has Green potential log(rho) on the
    # curve, up to the inter-atom ripple whose scale is log(2)/m
    m = 4096
    mu = uniform_circle(np.e, 1.0, m=m)
    z = np.e * np.exp(1.2341j)
    val = green_potential(mu, e, z)
    assert abs(val - 1.0) <= 1.1 * np.log(2.0) / m
    # direct-summation oracle for the same quantity
    direct = sum(w * green_kernel(e, z, p) for p, w in zip(mu.points, mu.weights))
    assert val == pytest.approx(direct, abs=1e-12)


def test_energy_J_zero_measure_and_mass_check():
    e = EDomain.disk(0j, 1.0)
    assert energy_J(DiscreteMeasure.zero(), e, 1.0) == 0.0
    with pytest.raises(MassMismatch):
        energy_J(uniform_circle(np.e, 0.4), e, 0.5)


def test_energy_J_two_atom_hand_value():
    e = EDomain.disk(0j, 1.0)
    lam = DiscreteMeasure([np.e + 0j, -np.e + 0j], [0.5, 0.5])
    g = green_kernel(e, np.e + 0j, -np.e + 0j)
    expect = 2 * 0.25 * g - 2 * 1.0 * 1.0  # g(z, inf) = 1 at both atoms
    assert energy_J(lam, e, 0.0) == pytest.approx(expect, abs=1e-12)


def test_energy_J_concentric_half_mass(concentric):
    # mass 1/2 on the level curve: the normalized energy route lands near -1/2
    lam = uniform_circle(np.e, 0.5, m=256)
    g_at = 1.0
    val = energy_J(lam, concentric.e_domain, 0.5)
    route = (val + lam.total_mass * g_at) / 0.5
    assert abs(route - (-0.5)) <= 0.02


def test_energy_I_zero_and_robin_defect():
    assert energy_I(DiscreteMeasure.zero(), DiscreteMeasure.zero(), 0.0) == 0.0
    m = 256
    mu = uniform_circle(1.0, 1.0, m=m)
    val = energy_I(mu, DiscreteMeasure.zero(), 1.0)
    # defect of the diagonal-excluded sum around -log cp = 0
    assert abs(val) <= 1.2 * np.log(m) / m


def test_energy_I_uniform_is_local_minimum(concentric):
    # oracle: random mass-preserving weight perturbations only increase energy
    m = 128
    lam = uniform_circle(np.e, 0.5, m=m)
    pts = sample_curve(CurveSpec.circle(0j, 1.0), m).points
    w0 = np.full(m, 0.5 / m)
    base = energy_I(DiscreteMeasure(pts, w0), lam, 0.5)
    rng = np.random.default_rng(123)
    tested = [base]
    for _ in range(25):
        w = w0 * (1.0 + 0.2 * rng.uniform(-1, 1, m))
        w *= 0.5 / w.sum()
        tested.append(energy_I(DiscreteMeasure(pts, w), lam, 0.5))
    assert abs(base - min(tested)) <= 1e-3  # uniform attains the tested minimum


def test_M_functional_atom_closed_form(concentric):
    sigma = DiscreteMeasure.atom(10.0, 1.0)
    expect = np.log(11.0 / (10.0 + np.e))
    assert M_functional(sigma, concentric) == pytest.approx(expect, abs=1e-9)


def test_M_functional_equilibrium_sum_is_flat(concentric):
    # atoms offset from the scan grid so the scan sees the true inter-atom dip
    m = 4096
    t = 2 * np.pi * (np.arange(m) + 0.5) / m
    omega = DiscreteMeasure(np.e * np.exp(1j * t), np.full(m, 1.0 / m))
    val = M_functional(omega, concentric)
    # continuum value is 0; the atom ripple floor is log(2)/m
    assert abs(val) <= 5e-4


def test_M_functional_of_equilibrium_pair(concentric, concentric_lambda_256,
                                          concentric_mu_256):
    val = M_functional(concentric_mu_256 + concentric_lambda_256, concentric)
    assert abs(val - (-0.5)) <= 0.02


def test_M_functional_rejects_zero_measure(concentric):
    with pytest.raises(EmptyMeasure):
        M_functional(DiscreteMeasure.zero(), concentric)


def test_M_functional_scales_linearly_in_mass(concentric):
    rng = np.random.default_rng(9)
    sigma = DiscreteMeasure(rng.normal(size=12) * 2 + 1j * rng.normal(size=12),
                            rng.uniform(0.1, 1.0, 12))
    m1 = M_functional(sigma, concentric)
    m3 = M_functional(sigma.scaled(3.0), concentric)
    assert m3 == pytest.approx(3.0 * m1, rel=1e-12)


def test_norm_ratio_matches_M_identity(concentric):
    # (1/n) log(||pq||_E / ||pq||_Gamma) = M(nu(p) + nu(q)) on shared scan sets
    from condenser_widths.extremal import ZeroConfig, log_ratio_norms
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, n + 1))
        p = rng.uniform(-0.9, 0.9, k) + 1j * rng.uniform(-0.9, 0.9, k)
        q = (2.0 + rng.uniform(0, 1.5, n - k)) * np.exp(2j * np.pi * rng.uniform(0, 1, n - k))
        zeros = np.concatenate([p, q])
        sigma = DiscreteMeasure(zeros, np.full(n, 1.0 / n))
        lhs = log_ratio_norms(ZeroConfig(tuple(p), tuple(q), n, k), concentric, 4096) / n
        rhs = M_functional(sigma, concentric)
        assert abs(lhs - rhs) <= 1e-9


def test_grid_potentials_identical_across_chunk_boundaries(concentric):
    # 20000 points x 300 atoms is scanned in 92 chunks of 218 rows, the last
    # one short; the rows of each chunk must equal a one-block evaluation bit
    # for bit
    rng = np.random.default_rng(21)
    mu = DiscreteMeasure(rng.normal(size=300) + 1j * rng.normal(size=300),
                         rng.uniform(0.1, 1.0, 300))
    zs = 5.0 * (rng.normal(size=20000) + 1j * rng.normal(size=20000))
    d = np.abs(zs[:, None] - mu.points[None, :])
    want_log = -np.sum(mu.weights * np.log(np.maximum(d, LOG_CLAMP)), axis=1)
    assert np.array_equal(log_potential(mu, zs), want_log)
    e = concentric.e_domain
    k = kernel_from_phi(phi_exterior(e, zs)[:, None], phi_exterior(e, mu.points)[None, :])
    want_green = np.sum(mu.weights * k, axis=1)
    assert np.array_equal(green_potential(mu, e, zs), want_green)


@pytest.mark.parametrize("kind", ["log", "green"])
def test_potentials_of_empty_and_scalar_inputs(concentric, kind):
    # both potentials share one scan: no points give an empty array, the zero
    # measure gives zeros of z's shape, a 2-D z gives the 1-D values reshaped
    # (to the bit), and a scalar z gives a Python float
    e = concentric.e_domain
    pot = log_potential if kind == "log" else (lambda mu, z: green_potential(mu, e, z))
    mu = DiscreteMeasure([2.0 + 0.5j, -1.5j], [0.25, 0.75])
    empty = pot(mu, np.empty(0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    zero = pot(DiscreteMeasure.zero(), np.full((2, 3), 3.0 + 0j))
    assert zero.shape == (2, 3) and not np.any(zero)
    z = np.array([[3.0 + 1.0j, -2.5, 0.2j], [1.5 - 2.0j, 4.0j, -3.0 - 3.0j]])
    grid = pot(mu, z)
    assert grid.shape == (2, 3) and np.array_equal(grid, pot(mu, z.ravel()).reshape(2, 3))
    val = pot(mu, 3.0 + 1.0j)
    assert type(val) is float and val == pot(mu, np.array([3.0 + 1.0j]))[0]
    assert type(pot(DiscreteMeasure.zero(), 3.0 + 1.0j)) is float


def test_green_potential_raises_at_an_atom_in_the_last_chunk(concentric):
    # 300 atoms scan 1000 points in chunks of 218 rows; the point that
    # coincides with an atom is the last one, in the fifth chunk
    from condenser_widths.errors import CoincidentPole
    from condenser_widths.measure import _CHUNK_ENTRIES

    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(2.0 * np.exp(2j * np.pi * rng.uniform(size=300)),
                         rng.uniform(0.1, 1.0, 300))
    zs = 4.0 * np.exp(2j * np.pi * rng.uniform(size=1000))
    zs[-1] = mu.points[17]
    assert (zs.size - 1) // (_CHUNK_ENTRIES // len(mu)) == 4
    with pytest.raises(CoincidentPole):
        green_potential(mu, concentric.e_domain, zs)
    # without the coincident point every chunk scans cleanly
    assert np.all(green_potential(mu, concentric.e_domain, zs[:-1]) > 0.0)


def test_scan_sets_include_interior_spots(concentric):
    gamma_pts, e_pts = minimax_scan_sets(concentric, 256)
    assert gamma_pts.size == 256
    assert e_pts.size == 256 + 64
    assert np.all(np.abs(e_pts) <= 1.0 + 1e-12)
