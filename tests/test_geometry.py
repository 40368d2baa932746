import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, EDomain, green_exterior_gamma,
                              green_kernel, green_pole_infinity, log_capacity,
                              sample_curve)
from condenser_widths.errors import (CoincidentPole, GeometryValidationError,
                                     UnsupportedCurve)
from condenser_widths.geometry import boundary_samples


def test_green_infinity_disk_values():
    e = EDomain.disk(0j, 1.0)
    assert green_pole_infinity(e, np.e) == pytest.approx(1.0, abs=1e-14)
    assert green_pole_infinity(e, 0.3 + 0.4j) == 0.0  # convention: 0 on E


def test_green_infinity_segment_closed_form():
    e = EDomain.segment(-1.0, 1.0)
    assert green_pole_infinity(e, 2.0) == pytest.approx(np.log(2 + np.sqrt(3)), abs=1e-12)
    # zero on the segment itself
    assert green_pole_infinity(e, 0.25) == 0.0


def test_green_infinity_log_growth_at_infinity():
    # g(z, inf) - log|z| tends to the Robin constant -log cp(E)
    for e in (EDomain.disk(0.5j, 2.0), EDomain.segment(-2.0, 1.0)):
        z = 1e8 * np.exp(1j * 0.7)
        expect = np.log(abs(z)) - np.log(log_capacity(e))
        assert green_pole_infinity(e, z) == pytest.approx(expect, abs=1e-6)


def test_green_kernel_disk_closed_form():
    e = EDomain.disk(0j, 1.0)
    assert green_kernel(e, 2.0, 3.0) == pytest.approx(np.log(5.0), abs=1e-14)
    assert green_kernel(e, 1.0, 3.0) == 0.0  # boundary value


def test_green_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(42)
    for e in (EDomain.disk(0.2 + 0.1j, 1.5), EDomain.segment(-1.0, 2.0)):
        worst = 0.0
        for _ in range(10_000):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            t = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z - t) < 1e-6:
                continue
            worst = max(worst, abs(green_kernel(e, z, t) - green_kernel(e, t, z)))
        assert worst <= 1e-12


def test_green_kernel_nonnegative_and_zero_on_boundary():
    rng = np.random.default_rng(7)
    for e in (EDomain.disk(0j, 1.0), EDomain.segment(-1.0, 1.0)):
        t = 2.5 + 0.3j
        zs = rng.uniform(-5, 5, 500) + 1j * rng.uniform(-5, 5, 500)
        vals = green_kernel(e, zs, t)
        assert np.all(vals >= 0.0)
        bd = boundary_samples(e, 4096)
        assert np.max(np.abs(green_kernel(e, bd, t))) <= 1e-12


def test_green_kernel_far_pole_matches_pole_at_infinity():
    t = 1e8 + 0j
    grid = np.array([2.0, -1.5 + 1j, 0.5 + 2j, 3j, -4.0 - 2j])
    for e in (EDomain.disk(0j, 1.0), EDomain.segment(-1.0, 1.0)):
        diff = np.abs(green_kernel(e, grid, t) - green_pole_infinity(e, grid))
        assert np.max(diff) <= 1e-6


def test_green_kernel_coincident_pole_raises():
    e = EDomain.disk(0j, 1.0)
    with pytest.raises(CoincidentPole):
        green_kernel(e, 2.0 + 1e-16j, 2.0)


def test_green_exterior_gamma_circle():
    gam = CurveSpec.circle(1.0, 3.0)
    assert green_exterior_gamma(gam, 7.0) == pytest.approx(np.log(2), abs=1e-14)
    assert green_exterior_gamma(gam, 1.0 + 3.0j) == 0.0
    gam2 = CurveSpec.circle(0j, float(np.e))
    assert green_exterior_gamma(gam2, float(np.e) ** 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(UnsupportedCurve):
        green_exterior_gamma(CurveSpec.ellipse(0j, (2.0, 1.0)), 5.0)


def test_sample_curve_circle():
    s = sample_curve(CurveSpec.circle(0j, 1.0), 4)
    assert np.allclose(s.points, [1, 1j, -1, -1j], atol=1e-15)


def test_sample_curve_ellipse_perimeter_vs_quadrature():
    # oracle: adaptive quadrature of the arclength integrand
    from scipy.integrate import quad
    a, b = 2.0, 1.0
    perimeter, _ = quad(lambda t: np.hypot(a * np.sin(t), b * np.cos(t)), 0, 2 * np.pi,
                        limit=200)
    pts = sample_curve(CurveSpec.ellipse(0j, (a, b), rotation=0.3), 4096).points
    polygon = np.sum(np.abs(np.diff(np.concatenate([pts, pts[:1]]))))
    assert abs(polygon - perimeter) <= 1e-4


def test_sample_curve_polar_kind():
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    gam = CurveSpec.polar(0j, t, 2.0 + 0.2 * np.cos(3 * t))
    s = sample_curve(gam, 512)
    assert len(s.points) == 512
    r = np.abs(s.points)
    assert np.all((r > 1.7) & (r < 2.3))


def test_polar_table_must_span_less_than_two_pi():
    # the interpolation table closes at angles[0] + 2*pi; a wider span would
    # hand np.interp a non-increasing table
    with pytest.raises(GeometryValidationError, match="span less than 2"):
        CurveSpec.polar(0j, [0.0, 1.0, 2.0, 10.0], [3.0] * 4)
    with pytest.raises(GeometryValidationError, match="span less than 2"):
        CurveSpec.polar(0j, [-1.0, 0.0, 1.0, 2 * np.pi - 1.0], [3.0] * 4)
    CurveSpec.polar(0j, [-1.0, 0.0, 1.0, np.nextafter(2 * np.pi - 1.0, 0.0)], [3.0] * 4)


@pytest.mark.parametrize("make", [
    lambda: EDomain.disk(complex(0.0, np.nan), 1.0),
    lambda: EDomain.disk(0j, np.inf),
    lambda: EDomain.segment(-np.inf, 1.0),
    lambda: CurveSpec.circle(0j, np.nan),
    lambda: CurveSpec.ellipse(0j, (2.0, 1.0), rotation=np.inf),
    lambda: CurveSpec.polar(0j, [0.0, 1.0, np.nan, 3.0], [3.0] * 4),
    lambda: CurveSpec.polar(0j, [0.0, 1.0, 2.0, 3.0], [3.0, np.inf, 3.0, 3.0]),
], ids=["disk-center", "disk-radius", "segment", "circle", "ellipse-rotation",
        "polar-angle", "polar-radius"])
def test_non_finite_geometry_rejected(make):
    with pytest.raises(GeometryValidationError, match="must be finite"):
        make()


def test_log_capacity():
    assert log_capacity(EDomain.disk(0j, 2.0)) == 2.0
    assert log_capacity(EDomain.segment(-1.0, 1.0)) == 0.5
    # unit disk: the plate constant at full mass vanishes
    assert -np.log(log_capacity(EDomain.disk(0j, 1.0))) == 0.0


@pytest.mark.parametrize("curve", [
    CurveSpec.circle(0.5 - 1j, 2.0),
    CurveSpec.ellipse(0.3j, (3.0, 2.0), 0.4),
    CurveSpec.polar(0.2, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0]),
], ids=["circle", "ellipse", "polar"])
def test_contains(curve):
    rays = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    r = curve.radius_at(np.angle(rays))
    assert np.all(curve.contains(curve.center + (1 - 1e-9) * r * rays))
    assert not np.any(curve.contains(curve.center + (1 + 1e-9) * r * rays))
    assert curve.contains(curve.center)
    # the radial function traces the parameterized curve (the ellipse's closed form)
    d = sample_curve(curve, 4096).points - curve.center
    assert np.max(np.abs(np.abs(d) - curve.radius_at(np.angle(d)))) <= 1e-12


def test_condenser_validation_accepts_good_pairs():
    c = Condenser(EDomain.disk(0j, 1.0), CurveSpec.ellipse(0j, (3.0, 2.0), 0.4)).validate()
    assert c.validated


def test_condenser_validation_rejects_intersecting_curve():
    with pytest.raises(GeometryValidationError, match="winding/positivity"):
        Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(1.0, 1.0)).validate()
    with pytest.raises(GeometryValidationError):
        Condenser(EDomain.disk(0j, 2.0), CurveSpec.circle(0j, 1.0)).validate()
    # Gamma cuts a cap of depth 5e-5 off E, centred between two of 256 plate
    # boundary samples and narrower than their spacing: curve samples land in E
    cap = CurveSpec.circle(-(2 + 5e-5) * np.exp(1j * np.pi / 256), 3.0)
    with pytest.raises(GeometryValidationError, match="winding/positivity"):
        Condenser(EDomain.disk(0j, 1.0), cap).validate()


def test_condenser_validation_rejects_curve_crossing_segment_between_samples():
    # a polar dip through E = [-1, 1] on x in [0.3006, 0.3010]: no curve sample
    # lies on E, and the crossing is narrower than 2/256, so only a dense
    # inside test over the plate samples (here the one at x = 38.5/128) sees it
    phi0 = np.angle(38.5 / 128 - 0.5j)
    dip = CurveSpec.polar(0.5j, phi0 + np.array([-2, -0.01, 0, 0.01, 2]), [3, 3, 0.5, 3, 3])
    with pytest.raises(GeometryValidationError, match=r"E sample \(0\.30078125"):
        Condenser(EDomain.segment(-1.0, 1.0), dip).validate()


def test_segment_boundary_grid_contains_midpoint_and_ends():
    g = boundary_samples(EDomain.segment(-1.0, 1.0), 4096)
    assert g[0] == -1.0 and g[-1] == 1.0
    assert np.min(np.abs(g)) == 0.0  # exact midpoint


def test_json_round_trip():
    for e in (EDomain.disk(0.5 + 1j, 2.0), EDomain.segment(-2.0, 3.0)):
        assert EDomain.from_json_dict(e.to_json_dict()) == e
    for g in (CurveSpec.circle(1j, 3.0), CurveSpec.ellipse(0j, (2.0, 1.0), 0.2)):
        assert CurveSpec.from_json_dict(g.to_json_dict()) == g
