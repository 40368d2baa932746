"""Spectral condenser capacities against closed forms, against pinned arc
values, and against the two-level Fekete fit, which stays as the oracle and
as the polar-curve route."""

import numpy as np
import pytest

from condenser_widths import (Condenser, CurveSpec, EDomain, condenser_capacity,
                              theta_sweep)
from condenser_widths import equilibrium as eq
from condenser_widths.spectral import _closed_solve, spectral_capacity

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
    got = eq._support_capacity(offset, stage._replace(support=support), 0)
    want = spectral_capacity(offset, [(39.5 * step, 41 * step), (-6.5 * step, 12 * step)])
    assert got.converged and want.converged
    assert abs(got.cap / want.cap - 1.0) <= 1e-12


def test_budget_bound_solve_reports_unconverged(offset):
    # 40 arcs separated by gaps of 1e-3 rad get one solve, at 12 nodes per arc
    step = 2.0 * np.pi / 40
    solve = spectral_capacity(offset, [(i * step, step - 1e-3) for i in range(40)])
    assert not solve.converged
    assert 0.0 < solve.cap < condenser_capacity(offset)


def test_polar_curve_keeps_the_two_level_fit():
    c = Condenser(EDomain.disk(0j, 1.0),
                  CurveSpec.polar(0j, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0])).validate()
    fit = eq._capacity(eq._curve_grid(c, 1024)[1], 64, 3)
    assert condenser_capacity(c, 64, 1024, seed=3) == fit.cap


def test_sweep_capacities_match_the_fit_on_the_same_slots(offset):
    thetas = [round(0.05 * i, 10) for i in range(21)]
    rep = theta_sweep(offset, thetas, 160, 4096, seed=0)
    whole_fit = eq._capacity(eq._curve_grid(offset, 4096)[1], 256, 0)
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
        fit = eq._capacity(stage.phi[stage.support], 256, 0)
        assert abs(cap / fit.cap - 1.0) <= 2e-3
        if len(arcs) == 1:
            # a single arc settles far inside the budget
            assert converged
    assert partial >= 11
