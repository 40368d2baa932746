import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, DiscreteMeasure, EDomain, condenser_capacity, equilibrium_result,
                              fekete_green, green_pole_infinity, leja_weighted,
                              m_hat_theta, m_theta, sample_curve, support_S_theta, to_json)
from condenser_widths.equilibrium import (_runs_to_arcs, _support_mask, _support_tol,
                                          gamma_field)
from condenser_widths.errors import GridTooCoarse
from test_spectral_capacity import _capacity

TWO_PI = 2 * np.pi
# the tier-1 polar table around the unit disk: its stages solve coarse to fine
POLAR = Condenser(EDomain.disk(0j, 1.0),
                  CurveSpec.polar(0j, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0])).validate()


def angular_gap_ratio(points, center=0j):
    ang = np.sort(np.mod(np.angle(points - center), TWO_PI))
    gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
    return gaps.max() / gaps.min()


def test_fekete_concentric_equidistributes(concentric):
    lam = fekete_green(concentric, 0.5, 64, 2048, seed=3)
    assert abs(lam.total_mass - 0.5) <= 1e-12
    assert angular_gap_ratio(lam.points) <= 1.1


def test_fekete_grid_too_coarse(concentric):
    with pytest.raises(GridTooCoarse):
        fekete_green(concentric, 0.5, 64, 256, seed=0)


def test_fekete_single_atom_at_field_max(offset):
    # one atom has no pair term: it sits at the grid maximum of g(., inf)
    lam = fekete_green(offset, 0.25, 1, 4096, seed=0)
    curve = sample_curve(offset.gamma, 4096).points
    want = curve[np.argmax(green_pole_infinity(offset.e_domain, curve))]
    assert lam.points.tolist() == [want]
    assert lam.weights.tolist() == [0.75]
    # the exchange engine runs one pass from that slot and moves nothing; its
    # window covers the grid, so the visit is certified from the stored
    # column with no full scan.  The field is 0.75 times the atom's kernel
    # column, bit for bit, minus g(., inf)
    from condenser_widths import equilibrium as eq
    from condenser_widths.geometry import green_columns

    stage = eq._theta_stage(offset, 0.25, 1, 4096, 0)
    _, phi_g, g_inf = eq._curve_grid(offset, 4096)
    idx = int(np.argmax(g_inf))
    col = np.empty(4096)
    green_columns(phi_g)(idx, col)
    field = 0.75 * col - g_inf
    field[idx] = np.min(np.delete(field, idx))
    assert stage.vals.tobytes() == field.tobytes() and stage.m_field == field[idx]
    assert (stage.passes, stage.moves, stage.full_scans, stage.converged) == (1, 0, 0, True)
    with pytest.raises(GridTooCoarse):
        fekete_green(offset, 0.25, 1, 8, seed=0)


def test_stage_solvers_own_the_theta_endpoints(offset):
    # theta = 1 leaves no curve mass and theta = 0 no plate mass; the endpoint
    # comes before the m and grid checks
    for m, grid_n in ((0, 0), (64, 4096)):
        assert fekete_green(offset, 1.0, m, grid_n).is_zero
        assert leja_weighted(offset, DiscreteMeasure.atom(4.0, 1.0), 0.0, m, grid_n).is_zero
    with pytest.raises(ValueError):
        fekete_green(offset, 1.5, 4, 4096)
    with pytest.raises(ValueError):
        leja_weighted(offset, DiscreteMeasure.zero(), -0.5, 4, 4096)


def test_fekete_offset_high_theta_clusters_at_field_max(offset):
    # oracle at m = 8: exhaustive exchange confirms the cluster arc at the
    # maximum of g(., inf), which for this pair is the point z = 4
    g_max = np.log(4.0)
    for m in (8, 64):
        lam = fekete_green(offset, 0.9, m, 4096, seed=1)
        g_at = green_pole_infinity(offset.e_domain, lam.points)
        frac = np.mean(g_at > 0.9 * g_max)
        assert frac >= 0.6


def test_leja_circle_pattern(concentric):
    mu = leja_weighted(concentric, DiscreteMeasure.zero(), 1.0, 4, 4096)
    pts = mu.points
    assert pts[0] == pytest.approx(1.0, abs=1e-12)
    assert pts[1] == pytest.approx(-1.0, abs=1e-12)
    assert sorted(np.round(pts[2:].imag, 9).tolist()) == [-1.0, 1.0]
    assert np.max(np.abs(np.abs(pts) - 1.0)) <= 1e-12


def test_leja_segment_pattern(segment_pair):
    mu = leja_weighted(segment_pair, DiscreteMeasure.zero(), 1.0, 3, 4096)
    assert mu.points[0] == -1.0  # tie on a constant field goes to the smallest parameter
    assert mu.points[1] == 1.0
    assert mu.points[2] == 0.0


def test_leja_weighted_concentric_equidistributes(concentric, concentric_lambda_256):
    mu = leja_weighted(concentric, concentric_lambda_256, 0.5, 64, 4096)
    assert abs(mu.total_mass - 0.5) <= 1e-12
    assert angular_gap_ratio(mu.points) <= 1.2


def test_m_theta_concentric_anchor(concentric):
    m_e, m_f = m_theta(concentric, 0.25, 256, 4096)
    assert abs(m_e + 0.25) <= 0.02
    assert abs(m_f + 0.25) <= 0.02


def test_m_theta_endpoints(concentric, offset):
    assert m_theta(concentric, 0.0, 64, 1024) == (0.0, 0.0)
    m_e, m_f = m_theta(offset, 1.0, 64, 4096)
    assert m_e == m_f == pytest.approx(-np.log(4.0), abs=1e-6)


def test_m_theta_offset_record(offset):
    # frozen record: strictly between the neighbors on the theta grid
    m_e4, m_f4 = m_theta(offset, 0.4, 128, 4096, seed=0)
    m_e5, m_f5 = m_theta(offset, 0.5, 128, 4096, seed=0)
    m_e6, m_f6 = m_theta(offset, 0.6, 128, 4096, seed=0)
    assert -np.log(4.0) < m_f5 < 0.0
    assert m_f6 < m_f5 < m_f4
    assert m_f5 == pytest.approx(-0.492449, abs=5e-3)  # regression record


def test_two_route_agreement_shrinks_with_m(concentric):
    gaps = []
    for m in (64, 128, 256):
        m_e, m_f = m_theta(concentric, 0.5, m, 4096)
        gaps.append(abs(m_e - m_f))
    assert gaps[-1] <= 0.03
    assert gaps[2] < gaps[1] < gaps[0]


def test_m_hat_values(concentric, segment_pair, concentric_lambda_256):
    assert m_hat_theta(concentric, DiscreteMeasure.zero()) == 0.0
    assert m_hat_theta(segment_pair, DiscreteMeasure.zero()) == pytest.approx(np.log(2.0))
    val = m_hat_theta(concentric, concentric_lambda_256)
    assert val == pytest.approx(-0.5, abs=1e-3)  # g is exactly 1 on the level curve


def test_field_inequality_and_flatness(concentric, concentric_lambda_256):
    lam = concentric_lambda_256
    _, m_f = m_theta(concentric, 0.5, 256, 4096)
    params, vals, mask = gamma_field(concentric, lam, 4096)
    assert np.min(vals[~mask]) >= m_f - 1e-9  # min is the field route by construction
    sel = _support_mask(vals, m_f, _support_tol(0.5, 256, 4096, m_f))
    assert support_S_theta(concentric, lam, m_f, grid_n=4096) == _runs_to_arcs(params, sel)
    flat = np.std(vals[sel])
    assert flat <= 0.05 * abs(m_f) + 0.01


def test_support_concentric_is_whole_curve(concentric, concentric_lambda_256):
    _, m_f = m_theta(concentric, 0.5, 256, 4096)
    arcs = support_S_theta(concentric, concentric_lambda_256, m_f, grid_n=4096)
    assert arcs == [(0.0, TWO_PI)]


def test_support_offset_near_one_is_short_arc(offset):
    lam = fekete_green(offset, 0.99, 64, 4096, seed=0)
    _, vals, mask = gamma_field(offset, lam, 4096)
    m_f = float(np.min(vals[~mask]))
    arcs = support_S_theta(offset, lam, m_f, grid_n=4096)
    assert len(arcs) == 1
    t0, t1 = arcs[0]
    length = (t1 - t0) % TWO_PI
    assert length <= 0.25 * TWO_PI
    # the arc straddles parameter 0, where g(., inf) is maximal (z = 4)
    assert t0 > t1


def test_support_nesting_offset(offset):
    # the sweep's ripple-aware threshold, so full-support ripple does not
    # fragment the support; nesting is checked on the masks with one cell slack
    def support_at(theta, m=128):
        lam = fekete_green(offset, theta, m, 4096, seed=0)
        _, vals, mask = gamma_field(offset, lam, 4096)
        m_f = float(np.min(vals[~mask]))
        return _support_mask(vals, m_f, _support_tol(theta, m, 4096, m_f))

    mask50, mask75 = support_at(0.5), support_at(0.75)
    grown = mask50 | np.roll(mask50, 1) | np.roll(mask50, -1)
    assert np.all(grown[mask75])


def test_condenser_capacity_anchors(concentric, concentric_e2):
    assert abs(condenser_capacity(concentric) - 1.0) <= 1e-3
    assert abs(condenser_capacity(concentric_e2) - 0.5) <= 1e-3


def test_condenser_capacity_offset_vs_slope_oracle(offset):
    cap = condenser_capacity(offset)
    # independent oracle 1: the Moebius modulus of the circle pair; the points
    # inverse with respect to both circles solve a^2 + 7a + 1 = 0, which puts
    # the equivalent round annulus ratio at the square of the golden ratio
    golden = (1 + np.sqrt(5.0)) / 2
    assert abs(cap - 1.0 / (2 * np.log(golden))) <= 1e-3
    # independent oracle 2: Richardson extrapolation of m_theta/theta to 0
    s = {}
    for th in (0.05, 0.1):
        _, m_f = m_theta(offset, th, 1024, 16384, seed=0)
        s[th] = m_f / th
    slope = 2 * s[0.05] - s[0.1]
    assert abs(slope + 1.0 / cap) * cap <= 0.05


def test_equilibrium_result_bundle(concentric):
    res = equilibrium_result(concentric, 0.5, 128, 4096, seed=0)
    assert abs(res.lambda_n.total_mass - 0.5) <= 1e-12
    assert abs(res.mu_n.total_mass - 0.5) <= 1e-12
    assert res.m_theta_field <= 0.0
    assert abs(res.m_theta_energy - res.m_theta_field) <= res.residuals["two_route"] + 1e-15
    assert res.m_hat_theta >= -np.log(1.0) - (1 - 0.5) * 1.0 - 1e-9
    d = to_json(res)
    assert set(d) >= {"theta", "lambda_n", "mu_n", "m_theta_energy", "m_theta_field",
                      "m_hat_theta", "support_arcs", "residuals"}


def test_sweep_monotone_and_integral(concentric_sweep):
    rep = concentric_sweep
    assert rep.monotone_m and rep.monotone_m_hat
    assert rep.integral_check_residual <= 0.05
    assert abs(rep.cap_condenser - 1.0) <= 1e-3
    # the example values: m ~ -theta, mhat ~ theta - 1
    for th, m_f, m_h in zip(rep.thetas, rep.m_theta_field, rep.m_hat_theta):
        assert abs(m_f + th) <= 0.02
        assert abs(m_h - (th - 1.0)) <= 1e-3


def test_sweep_small_theta_slope(concentric_sweep, concentric_m_small_theta):
    _, m_f = concentric_m_small_theta
    cap = concentric_sweep.cap_condenser
    assert abs(m_f / 0.05 + 1.0 / cap) * cap <= 0.05


def test_sweep_partial_support_capacities(offset):
    # the offset sweep's supports shrink to proper arcs above theta = 0.5, so
    # its capacities are fitted on parts of the curve; a part of the curve has
    # less capacity than the whole, and S_tau shrinks as tau grows
    from condenser_widths import theta_sweep
    rep = theta_sweep(offset, [round(0.05 * i, 10) for i in range(21)], 64, 1024, seed=0)
    whole = [arcs == [(0.0, TWO_PI)] for arcs in rep.support_arcs]
    assert any(whole) and not all(whole)
    for cap, is_whole in zip(rep.cap_s_tau, whole):
        assert cap <= rep.cap_condenser
        assert (cap == rep.cap_condenser) == is_whole
    upper = [cap for th, cap in zip(rep.thetas, rep.cap_s_tau) if th >= 0.5]
    assert len(upper) == 11
    assert all(b < a for a, b in zip(upper, upper[1:]))


@pytest.mark.parametrize("step, monotone", [(1e-7, True), (1e-4, False)])
def test_sweep_monotone_flags_forgive_only_rounding(offset, monkeypatch, step, monotone):
    # constants fed through the sweep whose last step goes the wrong way by
    # step: a step of 1e-7 is within the flags' 1e-6 slack and 1e-4 is not,
    # so a slack of 0 or of 1e-2 fails one of the two cases
    from types import SimpleNamespace

    from condenser_widths import equilibrium as eq

    m_field = {0.2: -0.1, 0.5: -0.2, 0.8: -0.2 + step}
    m_hat = {0.2: 0.1, 0.5: 0.2, 0.8: 0.2 - step}

    def stage(c, theta, m, grid_n, seed):
        return SimpleNamespace(lam=theta, m_energy=m_field[theta], m_field=m_field[theta],
                               support=np.ones(grid_n, dtype=bool), params=None,
                               converged=True)

    monkeypatch.setattr(eq, "_theta_stage", stage)
    monkeypatch.setattr(eq, "m_hat_theta", lambda c, lam: m_hat[lam])
    rep = eq.theta_sweep(offset, [0.2, 0.5, 0.8], 16, 256)
    assert rep.m_theta_field == list(m_field.values())
    assert rep.m_hat_theta == list(m_hat.values())
    assert rep.monotone_m is monotone and rep.monotone_m_hat is monotone


def test_sweep_rejects_bad_grid(concentric):
    with pytest.raises(ValueError):
        from condenser_widths import theta_sweep
        theta_sweep(concentric, [0.5, 0.25], 64, 2048)


def test_exchange_reports_passes_and_convergence(offset, monkeypatch):
    from condenser_widths import equilibrium as eq
    from condenser_widths.equilibrium import _exchange_maximize
    from condenser_widths.geometry import phi_exterior, sample_curve
    pts = sample_curve(offset.gamma, 1024).points
    phi_g, g_inf = phi_exterior(offset.e_domain, pts), green_pole_infinity(offset.e_domain, pts)
    full = _exchange_maximize(phi_g, g_inf, 32, 31 / 0.5, seed=0)
    assert full.converged and full.passes >= 2 and full.moves > 0
    monkeypatch.setattr(eq, "_MAX_PASSES", 1)
    cut = _exchange_maximize(phi_g, g_inf, 32, 31 / 0.5, seed=0)
    assert not cut.converged and cut.passes == 1 and 0 < cut.moves <= full.moves


def test_exchange_budget_exhaustion_warns(offset, monkeypatch):
    import warnings
    from condenser_widths import equilibrium as eq
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # converged runs stay silent
        fekete_green(offset, 0.5, 32, 1024, seed=0)
    monkeypatch.setattr(eq, "_MAX_PASSES", 1)
    with pytest.warns(RuntimeWarning, match=r"max_passes = 1 .*m = 32, grid_n = 1024"):
        fekete_green(offset, 0.5, 32, 1024, seed=0)
    with pytest.warns(RuntimeWarning, match=r"max_passes = 1 .*m = (16|8), grid_n = 512"):
        _capacity(eq._curve_grid(offset, 512)[1], 16, 0)


def test_coarse_started_stage_is_deterministic():
    from condenser_widths import equilibrium as eq
    from condenser_widths.geometry import phi_exterior
    # a polar curve keeps the coarse-to-fine solve
    a = fekete_green(POLAR, 0.6, 64, 2048, seed=5)
    b = fekete_green(POLAR, 0.6, 64, 2048, seed=5)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)
    # the stage is the full-grid exchange started from the halved grid's slots
    pts = sample_curve(POLAR.gamma, 2048).points
    phi_g, g_inf = phi_exterior(POLAR.e_domain, pts), green_pole_infinity(POLAR.e_domain, pts)
    coeff = 63 / 0.4
    run = eq._coarse_to_fine(phi_g, g_inf, 64, coeff, 5)
    half = eq._coarse_to_fine(phi_g[::2].copy(), g_inf[::2].copy(), 64, coeff, 5)
    direct = eq._exchange_maximize(phi_g, g_inf, 64, coeff, 5, start=2 * half.chosen)
    assert np.array_equal(run.chosen, direct.chosen)
    assert np.array_equal(pts[run.chosen], a.points)


def test_density_started_stage_is_the_seeded_exchange(offset):
    from condenser_widths import equilibrium as eq
    from condenser_widths.geometry import phi_exterior
    samples = sample_curve(offset.gamma, 2048)
    pts = samples.points
    phi_g, g_inf = phi_exterior(offset.e_domain, pts), green_pole_infinity(offset.e_domain, pts)
    for theta in (0.3, 0.6):
        a = fekete_green(offset, theta, 64, 2048, seed=5)
        b = fekete_green(offset, theta, 64, 2048, seed=5)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights)
        # on either side of theta* the stage is the full-grid exchange started
        # from the quantiles of the Nystrom weighted-equilibrium density
        start = eq._quantile_start(offset, theta, 64, samples.params)
        direct = eq._exchange_maximize(phi_g, g_inf, 64, 63 / (1 - theta), 5, start=start)
        assert np.array_equal(pts[direct.chosen], a.points)
        assert eq._theta_stage(offset, theta, 64, 2048, 5).start == "density"


def exchange_objective(run, g_inf, coeff):
    """F = coeff sum_i g(z_i, inf) - sum_{i<j} g(z_i, z_j) of an exchange run."""
    return coeff * g_inf[run.chosen].sum() - 0.5 * run.pot[run.chosen].sum()


SEGMENT_ELLIPSE = Condenser(EDomain.segment(-1.0, 1.0),
                            CurveSpec.ellipse(0j, (2.5, 1.8), 0.3)).validate()


@pytest.mark.parametrize("pair, theta", [("offset", round(0.45 + 0.05 * i, 10)) for i in range(11)]
                         + [("segment_ellipse", theta) for theta in (0.3, 0.6, 0.9)])
def test_density_start_finds_no_worse_optimum(offset, pair, theta):
    # the density start is the faster one; it must also end at an exchange
    # objective F at least as high as the coarse-to-fine solve's
    from condenser_widths import equilibrium as eq
    c = offset if pair == "offset" else SEGMENT_ELLIPSE
    m, grid_n, coeff = 160, 4096, 159 / (1 - theta)
    samples, phi_g, g_inf = eq._curve_grid(c, grid_n)
    start = eq._quantile_start(c, theta, m, samples.params)
    dense = eq._exchange_maximize(phi_g, g_inf, m, coeff, 1, start=start)
    coarse = eq._coarse_to_fine(phi_g, g_inf, m, coeff, 1)
    assert dense.converged and coarse.converged
    assert exchange_objective(dense, g_inf, coeff) >= exchange_objective(coarse, g_inf, coeff)


def test_unconverged_warning_names_the_full_grid(offset, monkeypatch):
    import warnings
    from condenser_widths import equilibrium as eq
    engine = eq._exchange_maximize
    grids = []

    def cut(phi_grid, *args, **kw):
        grids.append(phi_grid.size)
        return engine(phi_grid, *args, **kw)

    monkeypatch.setattr(eq, "_MAX_PASSES", 1)
    monkeypatch.setattr(eq, "_exchange_maximize", cut)
    for solve, levels, want in [
            (lambda: fekete_green(POLAR, 0.5, 32, 1024, seed=0), [256, 512, 1024],
             ["m = 32, grid_n = 1024"]),
            (lambda: _capacity(eq._curve_grid(offset, 512)[1], 16, 0),
             [128, 256, 512, 64, 128, 256, 512],
             ["m = 16, grid_n = 512", "m = 8, grid_n = 512"])]:
        grids.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve()
        # every level stopped after one pass, but only the full grid warns
        assert grids == levels
        msgs = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(msgs) == len(want)
        for msg, tail in zip(msgs, want):
            assert "max_passes = 1" in msg and tail in msg
