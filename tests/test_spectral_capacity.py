"""Spectral condenser capacities against closed forms, against pinned arc
values, and against the two-level Fekete fit (_capacity), an independent
route kept here as the oracle; and the weighted-equilibrium solve against
the inequalities that characterize it."""

import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, EDomain, condenser_capacity,
                              green_pole_infinity, theta_sweep)
from condenser_widths import equilibrium as eq
from condenser_widths.errors import GridTooCoarse
from condenser_widths.spectral import (CapacitySolve, _closed_matrix, _closed_solve,
                                       spectral_capacity, spectral_equilibrium)

GOLDEN = (1 + np.sqrt(5.0)) / 2

# arcs of the offset circle |z - 1| = 3 centred on parameter 0 (the point
# z = 4): half-width and 1/cap.  They are the supports S_theta at theta 0.45,
# 0.5, 0.6, 0.75 and 0.9, where the soft-edge conditions fix the half-width.
OFFSET_ARCS = [
    (3.0299190726, 0.970121640437),
    (2.6452413515, 1.091321821548),
    (2.2378045039, 1.307211498008),
    (1.6978113293, 1.660652814893),
    (1.0465152797, 2.214634935060),
]


def _capacity(phi_g: np.ndarray, m: int, seed: int) -> CapacitySolve:
    """The two-level capacity fit on the curve slots given by phi there: the
    whole curve grid, or a sweep's support mask of it.

    Minimizes the pure pairwise Green energy of m1 = min(m, slots // 16) and
    m1 // 2 equal atoms on the slots and removes the leading (log m + b)/m
    defect of the diagonal-excluded sum by fitting it through both levels.
    It has converged when both levels' exchanges have."""
    if m < 8:
        raise ValueError("the capacity fit needs m >= 8")
    if phi_g.size < 32:
        raise GridTooCoarse("capacity support contains fewer than 32 grid samples")
    g_inf = np.zeros(phi_g.size)

    m1 = min(m, phi_g.size // 16)
    m2 = m1 // 2
    levels = {mm: _pair_energy(phi_g, g_inf, mm, seed) for mm in (m1, m2)}
    energies = {mm: energy for mm, (energy, _) in levels.items()}

    # fit E(m) = E_inf - (log m + b) / m through the two levels
    u1, u2 = 1.0 / m1, 1.0 / m2
    l1, l2 = np.log(m1) / m1, np.log(m2) / m2
    b = (l2 - l1 + energies[m2] - energies[m1]) / (u1 - u2)
    e_inf = energies[m1] + l1 + b * u1
    if e_inf <= 0:
        raise ValueError("capacity fit produced a nonpositive energy")
    return CapacitySolve(float(1.0 / e_inf), all(ok for _, ok in levels.values()))


def _pair_energy(phi_g: np.ndarray, g_inf: np.ndarray, m: int, seed: int):
    """(sum_{i != j} w_i w_j g(z_i, z_j), converged) of m equal atoms
    minimizing the sum on the slots, from the run's running potential."""
    run = eq._coarse_to_fine(phi_g, g_inf, m, 0.0, seed)
    eq._warn_unconverged(run, m, phi_g.size)
    w = np.full(m, 1.0 / m)
    return float(w @ (w * run.pot[run.chosen])), run.converged


def test_concentric_capacities(concentric, concentric_e2):
    # cap = 1 / log R for the annulus 1 < |z| < R
    assert abs(condenser_capacity(concentric) - 1.0) <= 1e-12
    assert abs(condenser_capacity(concentric_e2) - 0.5) <= 1e-12


def test_offset_capacity_is_the_moebius_modulus(offset):
    # a Moebius map takes the pair to the round annulus of ratio golden^2
    assert abs(condenser_capacity(offset) - 1.0 / (2.0 * np.log(GOLDEN))) <= 1e-12


def test_segment_in_ellipse_capacity_settles():
    c = Condenser(EDomain.segment(-1.0, 1.0), CurveSpec.ellipse(0j, (2.5, 1.8), 0.3)).validate()
    solve = spectral_capacity(c)
    assert solve.converged
    assert abs(solve.cap - 0.6996495477654) <= 1e-12
    for n in (64, 128):
        assert abs(_closed_solve(c, n) - _closed_solve(c, 2 * n)) <= 1e-12


@pytest.mark.parametrize("half, inv_cap", OFFSET_ARCS)
def test_offset_arc_capacities(offset, half, inv_cap):
    solve = spectral_capacity(offset, [(-half, 2.0 * half)])
    assert solve.converged
    assert abs(1.0 / solve.cap - inv_cap) <= 1e-9


def test_nested_arcs_have_decreasing_capacity(offset):
    whole = condenser_capacity(offset)
    # one arc shrinking about an off-centre point, and two arcs losing ends
    singles = [[(1.0 - h, 2.0 * h)] for h in (3.1, 2.5, 1.5, 0.5, 0.1)]
    pairs = [[(0.2 + d, 1.5 - 2 * d), (2.5 + d, 2.0 - 2 * d)] for d in (0.0, 0.1, 0.3, 0.6)]
    for family in (singles, pairs):
        caps = [spectral_capacity(offset, arcs).cap for arcs in family]
        assert caps[0] < whole
        assert all(b < a for a, b in zip(caps, caps[1:]))


def test_support_slot_runs_become_half_slot_padded_arcs(offset):
    stage = eq._theta_stage(offset, 0.9, 16, 256, 0)
    step = 2.0 * np.pi / 256
    support = np.zeros(256, dtype=bool)
    support[250:] = support[:6] = True  # one run through slot 0
    support[40:81] = True
    got = eq._support_capacity(offset, stage._replace(support=support))
    want = spectral_capacity(offset, [(39.5 * step, 41 * step), (-6.5 * step, 12 * step)])
    assert got.converged and want.converged
    assert abs(got.cap / want.cap - 1.0) <= 1e-12


def test_budget_bound_solve_reports_unconverged(offset):
    # 40 arcs separated by gaps of 1e-3 rad get one solve, at 12 nodes per arc
    step = 2.0 * np.pi / 40
    solve = spectral_capacity(offset, [(i * step, step - 1e-3) for i in range(40)])
    assert not solve.converged
    assert 0.0 < solve.cap < condenser_capacity(offset)


def test_constant_radius_polar_table_is_the_circle():
    # a 12-row table of radius e draws the level circle: cap = 1 / log e
    angles = 2.0 * np.pi * np.arange(12) / 12
    c = Condenser(EDomain.disk(0j, 1.0), CurveSpec.polar(0j, angles, [np.e] * 12)).validate()
    solve = spectral_capacity(c)
    assert solve.converged
    assert abs(solve.cap - 1.0) <= 1e-12


def test_polar_table_capacity_is_the_budget_solve():
    # the table's corners make the Nystrom convergence algebraic: the budget
    # solve stops unconverged, 3.6e-6 from the 1024-node one
    c = Condenser(EDomain.disk(0j, 1.0),
                  CurveSpec.polar(0j, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0])).validate()
    solve = spectral_capacity(c)
    assert not solve.converged
    assert condenser_capacity(c) == solve.cap
    assert abs(solve.cap - _closed_solve(c, 1024)) <= 1e-5


def test_sweep_capacities_match_the_fit_on_the_same_slots(offset):
    thetas = [round(0.05 * i, 10) for i in range(21)]
    rep = theta_sweep(offset, thetas, 160, 4096, seed=0)
    phi_g = eq._curve_grid(offset, 4096)[1]
    whole_fit = _capacity(phi_g, 256, 0)
    assert abs(rep.cap_condenser / whole_fit.cap - 1.0) <= 2e-3
    assert len(rep.converged) == len(thetas)
    partial = 0
    for theta, cap, arcs, converged in zip(thetas, rep.cap_s_tau, rep.support_arcs,
                                           rep.converged):
        stage = eq._theta_stage(offset, theta, 160, 4096, 0)
        if stage.support.all():
            assert cap == rep.cap_condenser and converged
            continue
        partial += 1
        fit = _capacity(phi_g[stage.support], 256, 0)
        assert abs(cap / fit.cap - 1.0) <= 2e-3
        if len(arcs) == 1:
            # a single arc settles far inside the budget
            assert converged
    assert partial >= 11


@pytest.mark.parametrize("curve", [CurveSpec.ellipse(0j, (2.5, 1.8), 0.3), CurveSpec.circle(0j, 3.0),
                                   CurveSpec.ellipse(0j, (2.0, 0.3))],
                         ids=["ellipse", "circle", "thin-ellipse"])
@pytest.mark.parametrize("theta", [0.3, 0.7, 0.95])
def test_weighted_equilibrium_satisfies_its_inequalities(curve, theta):
    # around a segment plate: s >= 0 with mass 1 - theta, the field
    # A s - g(., inf) equal to m on the support and at least m off it
    c = Condenser(EDomain.segment(-1.0, 1.0), curve).validate(samples=1024)
    density, m = spectral_equilibrium(c, theta)
    n = density.size
    field = _closed_matrix(c, n) @ density - green_pole_infinity(
        c.e_domain, c.gamma.point(2 * np.pi * np.arange(n) / n))
    kept = density > 0
    assert np.all(density >= 0) and kept.any()
    assert abs(2 * np.pi / n * density.sum() - (1 - theta)) <= 1e-14
    assert np.max(np.abs(field[kept] - m)) <= 1e-12
    assert np.all(field[~kept] >= m - 1e-12)
