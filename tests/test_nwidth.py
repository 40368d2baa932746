import numpy as np
import pytest

from condenser_widths import g_theta_field, to_json, width_lower_bound, width_rate_predict
from condenser_widths.equilibrium import gamma_field
from condenser_widths.errors import GridTooClose
from condenser_widths.geometry import boundary_samples, sample_curve


def test_rate_predict_concentric(concentric):
    rep = width_rate_predict(concentric, 0.5, n_points=256, grid_n=4096)
    assert abs(rep.predicted_rate + 0.5) <= 0.02
    assert rep.predicted_rate <= 0.0 and rep.widom_rate < 0.0
    rep0 = width_rate_predict(concentric, 0.0, n_points=64, grid_n=1024)
    assert abs(rep0.widom_rate + 1.0) <= 1e-3
    assert rep0.normalization == "per-k for theta=0"


def test_rate_predict_offset_theta_one(offset):
    rep = width_rate_predict(offset, 1.0, n_points=64, grid_n=4096)
    assert rep.predicted_rate == pytest.approx(-np.log(4.0), abs=1e-6)


def test_small_theta_consistency(concentric, concentric_m_small_theta):
    _, m_f = concentric_m_small_theta
    rep = width_rate_predict(concentric, 0.0, n_points=64, grid_n=1024)
    assert abs(m_f / 0.05 - rep.widom_rate) <= 0.05 * abs(rep.widom_rate)


def test_width_lower_bound_pins(offset, concentric):
    assert width_lower_bound(concentric, 4, 0, seed=0) == 1.0
    v = width_lower_bound(offset, 4, 4, seed=0)
    assert v == pytest.approx(4.0 ** (-4), rel=0.01)


def test_width_lower_bound_large_n(concentric):
    v = width_lower_bound(concentric, 64, 32, seed=0)
    assert abs(np.log(v) / 64 + 0.5) <= 0.1
    # envelope: never above 1, never below the full-mass floor
    assert v <= 1.0 + 1e-9
    assert v >= np.exp(64 * (-1.0)) * 0.99


def test_g_theta_field_zero_on_plate(concentric, concentric_lambda_256):
    pts = 0.5 * boundary_samples(concentric.e_domain, 64)
    fg = g_theta_field(concentric, concentric_lambda_256, pts)
    assert np.max(np.abs(fg.values)) == 0.0


def test_g_theta_field_constant_on_level_curve(concentric, concentric_lambda_256):
    # halfway ring between the atoms and the plate: field is about -theta * g
    pts = 1.6487212707 * np.exp(2j * np.pi * np.arange(64) / 64)  # |z| = e^{1/2}
    fg = g_theta_field(concentric, concentric_lambda_256, pts)
    assert np.max(np.abs(fg.values - (-0.5 * 0.5))) <= 0.01


def test_g_theta_field_min_matches_field_route(concentric, concentric_lambda_256):
    params, vals, mask = gamma_field(concentric, concentric_lambda_256, 4096)
    curve_pts = sample_curve(concentric.gamma, 4096).points[~mask]
    fg = g_theta_field(concentric, concentric_lambda_256, curve_pts)
    assert np.min(fg.values) == pytest.approx(np.min(vals[~mask]), abs=1e-12)
    assert np.min(fg.values) >= np.min(vals[~mask]) - 1e-12


def test_g_theta_field_grid_too_close(concentric, concentric_lambda_256):
    z = concentric_lambda_256.points[0] + 1e-5
    with pytest.raises(GridTooClose):
        g_theta_field(concentric, concentric_lambda_256, np.array([z]))


def test_width_report_serializes(concentric):
    rep = width_rate_predict(concentric, 0.5, n_points=64, grid_n=1024)
    d = to_json(rep)
    assert set(d) >= {"theta", "predicted_rate", "widom_rate", "chi_lower_bounds"}
