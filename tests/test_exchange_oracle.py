"""Oracle for the exchange engine: the original per-visit exchange loop, kept
verbatim, must choose exactly the same grid slots as the fused engine."""

import tracemalloc

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, EDomain
from condenser_widths import equilibrium as eq
from condenser_widths.equilibrium import (_column_fill, _exchange_maximize, _theta_stage,
                                          gamma_field)
from condenser_widths.geometry import (green_matrix, green_pole_infinity, kernel_from_phi,
                                       phi_exterior, sample_curve)


def reference_exchange(phi_grid, g_inf, m, field_coeff, seed, max_passes=200):
    """Greedy insertion plus single-point exchange passes maximizing

        F = -sum_{i<j} g(z_i, z_j) + field_coeff * sum_i g(z_i, inf)

    over m distinct slots of the grid.  Deterministic for a fixed seed: the
    seed only shuffles the exchange visiting order, ties go to the lowest
    grid index, and every accepted move strictly increases F.
    """
    grid_n = phi_grid.size

    def col(idx):
        # kernel column; +inf exactly at the slot itself
        return kernel_from_phi(phi_grid, phi_grid[idx])

    drive = field_coeff * g_inf
    chosen = np.empty(m, dtype=int)
    chosen[0] = int(np.argmax(drive))
    cols = np.empty((m, grid_n))
    cols[0] = col(chosen[0])
    pot = cols[0].copy()
    for j in range(1, m):
        idx = int(np.argmax(drive - pot))  # occupied slots score -inf
        chosen[j] = idx
        cols[j] = col(idx)
        pot = pot + cols[j]

    rng = np.random.default_rng(seed)
    for _ in range(max_passes):
        moved = False
        for i in rng.permutation(m):
            pos = chosen[i]
            with np.errstate(invalid="ignore"):
                base = pot - cols[i]
            # pot and cols[i] are both +inf at pos; recompute that slot exactly
            others = np.concatenate([cols[:i, pos], cols[i + 1:, pos]])
            base[pos] = float(np.sum(others))
            score = drive - base
            best = int(np.argmax(score))
            # strict improvement with a drift guard so float noise cannot cycle
            if score[best] > score[pos] + 1e-12:
                chosen[i] = best
                cols[i] = col(best)
                pot = base + cols[i]
                moved = True
        if not moved:
            break
    return chosen


def reference_exchange_from(phi_grid, g_inf, m, field_coeff, seed, start, max_passes=200):
    """The exchange loop of reference_exchange, started from the given m
    distinct slots in place of greedy insertion."""
    grid_n = phi_grid.size

    def col(idx):
        # kernel column; +inf exactly at the slot itself
        return kernel_from_phi(phi_grid, phi_grid[idx])

    drive = field_coeff * g_inf
    chosen = np.array(start, dtype=int)
    cols = np.empty((m, grid_n))
    cols[0] = col(chosen[0])
    pot = cols[0].copy()
    for j in range(1, m):
        cols[j] = col(chosen[j])
        pot = pot + cols[j]

    rng = np.random.default_rng(seed)
    for _ in range(max_passes):
        moved = False
        for i in rng.permutation(m):
            pos = chosen[i]
            with np.errstate(invalid="ignore"):
                base = pot - cols[i]
            # pot and cols[i] are both +inf at pos; recompute that slot exactly
            others = np.concatenate([cols[:i, pos], cols[i + 1:, pos]])
            base[pos] = float(np.sum(others))
            score = drive - base
            best = int(np.argmax(score))
            # strict improvement with a drift guard so float noise cannot cycle
            if score[best] > score[pos] + 1e-12:
                chosen[i] = best
                cols[i] = col(best)
                pot = base + cols[i]
                moved = True
        if not moved:
            break
    return chosen


DISK = EDomain.disk(0j, 1.0)
SEGMENT = EDomain.segment(-1.0, 1.0)
CURVES = {
    "circle": CurveSpec.circle(1 + 0j, 3.0),
    "ellipse": CurveSpec.ellipse(0.3 + 0.2j, (3.0, 2.0), rotation=0.4),
    "polar": CurveSpec.polar(0j, [0.0, 1.5, 3.0, 4.5], [2.5, 3.2, 2.2, 3.0]),
}
# (m, grid_n, field_coeff): capacity mode, a moderate and a strong field
CASES = [(32, 1024, 0.0), (48, 2048, 47 / 0.5), (64, 4096, 63 / 0.1)]


def curve_grid(plate, curve, grid_n):
    c = Condenser(plate, curve).validate(samples=1024)
    pts = sample_curve(c.gamma, grid_n).points
    return phi_exterior(c.e_domain, pts), green_pole_infinity(c.e_domain, pts)


@pytest.mark.parametrize("plate", [DISK, SEGMENT], ids=["disk", "segment"])
@pytest.mark.parametrize("curve", list(CURVES), ids=list(CURVES))
def test_engine_matches_reference_loop(plate, curve):
    for m, grid_n, coeff in CASES:
        phi_g, g_inf = curve_grid(plate, CURVES[curve], grid_n)
        for seed in (0, 1, 2):
            run = _exchange_maximize(phi_g, g_inf, m, coeff, seed)
            want = reference_exchange(phi_g, g_inf, m, coeff, seed)
            assert run.converged
            assert np.array_equal(run.chosen, want), (m, grid_n, coeff, seed)


@pytest.mark.parametrize("plate", [DISK, SEGMENT], ids=["disk", "segment"])
@pytest.mark.parametrize("curve", list(CURVES), ids=list(CURVES))
def test_engine_from_start_matches_reference_loop(plate, curve):
    # two starts: the halved grid's slots prolonged (the coarse-to-fine
    # start), and m distinct slots drawn at random
    for m, grid_n, coeff in CASES:
        phi_g, g_inf = curve_grid(plate, CURVES[curve], grid_n)
        coarse = _exchange_maximize(np.ascontiguousarray(phi_g[::2]),
                                    np.ascontiguousarray(g_inf[::2]), m, coeff, 0)
        drawn = np.random.default_rng(grid_n).choice(grid_n, m, replace=False)
        for start in (2 * coarse.chosen, drawn):
            for seed in (0, 1):
                run = _exchange_maximize(phi_g, g_inf, m, coeff, seed, start=start)
                want = reference_exchange_from(phi_g, g_inf, m, coeff, seed, start)
                assert run.converged
                assert np.array_equal(run.chosen, want), (m, grid_n, coeff, seed)


def test_columns_bit_identical_to_kernel_from_phi():
    phi_g, _ = curve_grid(SEGMENT, CURVES["ellipse"], 1024)
    on_plate = phi_g.copy()
    on_plate[5] = 0.5  # one slot on the plate selects the masked path
    out = np.empty(phi_g.size)
    for grid in (phi_g, on_plate):
        fill = _column_fill(grid)
        for idx in (0, 5, 17, 1023):
            fill(idx, out)
            want = kernel_from_phi(grid, grid[idx])
            assert out[idx] == 0.0
            want[idx] = 0.0
            assert np.array_equal(out, want)
        # block fills, as the exchange's start and moves take them, give
        # every row the bits of its single fill: a full block with the plate
        # slot and a pole repeated, a partial one and a move's pair
        fill = _column_fill(grid, 4)
        block = np.empty((4, grid.size))
        single = _column_fill(grid)
        for idx in ([5, 17, 1023, 5], [1023, 0], [17, 5]):
            rows = block[:len(idx)]
            fill(idx, rows)
            for j, row in zip(idx, rows):
                single(j, out)
                assert np.array_equal(row, out)
                # the pole on the plate has a zero column
                assert row.any() == (grid is phi_g or j != 5)


def rounding_bound(run_m, moves, pot):
    """Rounding of a running sum of run_m + 2 moves kernel columns, each
    addition off by at most eps max|pot|, and of one more operation."""
    return (run_m + 2 * moves + 1) * np.finfo(float).eps * np.max(np.abs(pot), initial=0.0)


LEVEL = Condenser(DISK, CurveSpec.circle(0j, float(np.e))).validate()
OFFSET = Condenser(DISK, CURVES["circle"]).validate()
SEGMENT_PAIR = Condenser(SEGMENT, CurveSpec.circle(0j, 3.0)).validate()
SEGMENT_ELLIPSE = Condenser(SEGMENT, CURVES["ellipse"]).validate(samples=1024)


@pytest.mark.parametrize("c", [LEVEL, OFFSET, SEGMENT_PAIR, SEGMENT_ELLIPSE],
                         ids=["level", "offset", "segment-circle", "segment-ellipse"])
@pytest.mark.parametrize("theta, m, grid_n", [(0.0, 64, 1024), (0.3, 1, 512), (0.0, 1, 256),
                                              (0.4, 100, 4096), (0.1, 513, 8500),
                                              (1.0, 64, 1024)])
def test_stage_field_equals_gamma_field(c, theta, m, grid_n):
    # the stage reads its field off the exchange's running potential,
    # ((1 - theta) / m) pot - g(., inf); gamma_field rebuilds the kernel from
    # the atoms, and the two agree to the rounding of the running sum
    stage = _theta_stage(c, theta, m, grid_n, 0)
    want_params, want_vals, mask = gamma_field(c, stage.lam, grid_n)
    assert np.array_equal(stage.params, want_params)
    phi_g = phi_exterior(c.e_domain, sample_curve(c.gamma, grid_n).points)
    pot = green_matrix(phi_exterior(c.e_domain, stage.lam.points), phi_g).sum(axis=0)
    tol = rounding_bound(len(stage.lam), stage.moves, pot) * (1.0 - theta) / max(m, 1)
    assert np.max(np.abs(stage.vals - want_vals)) <= tol
    assert abs(stage.field_min - np.min(want_vals[~mask])) <= tol
    assert stage.lam.is_zero == (theta == 1.0)
    assert len(stage.lam) == (0 if theta == 1.0 else m)
    if theta == 1.0:
        assert np.array_equal(stage.vals, want_vals)


@pytest.mark.parametrize("curve", list(CURVES), ids=list(CURVES))
@pytest.mark.parametrize("m, grid_n, coeff", [(32, 1024, 31 / 0.3), (16, 256, 0.0),
                                              (100, 4096, 99 / 0.6)])
def test_running_potential_is_the_sum_of_kernel_columns(curve, m, grid_n, coeff):
    # the run keeps no columns, only their running sum; a fresh sum of
    # kernel_from_phi columns at the chosen slots must agree to rounding
    phi_g, g_inf = curve_grid(SEGMENT, CURVES[curve], grid_n)
    start = np.random.default_rng(m).choice(grid_n, m, replace=False)
    for run in (_exchange_maximize(phi_g, g_inf, m, coeff, 0),
                _exchange_maximize(phi_g, g_inf, m, coeff, 1, start=start)):
        assert run.moves > 0
        cols = kernel_from_phi(phi_g[None, :], phi_g[run.chosen, None])
        cols[np.arange(m), run.chosen] = 0.0
        want = cols.sum(axis=0)
        assert np.max(np.abs(run.pot - want)) <= rounding_bound(m, run.moves, want)


def test_stage_keeps_no_column_store():
    # the 1024/16384 stage of the benchmark's slope oracle: its largest
    # arrays are the 1024 x 193 window store and the 4 x 16384 fill block,
    # where an m x grid_n column store would take 128 MiB
    tracemalloc.start()
    try:
        stage = _theta_stage(OFFSET, 0.1, 1024, 16384, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.converged
    assert peak < 16 * 2 ** 20
    assert eq.exchange_allocation(1024, 16384) == 1024 * 193


# Windowed visits: the engine scores a window of _WINDOW_SPACINGS atom
# spacings around the visited atom first, and the whole grid only when
# dpmax + out_max cannot certify the window's verdict.  The cases below aim
# at where that could go wrong.
THIN_ELLIPSE = CurveSpec.ellipse(0j, (2.0, 0.3))


def edge_start(grid_n, m, seed):
    # atoms on and next to both grid ends, so their windows wrap around slot 0
    ends = [0, grid_n - 1, 1, grid_n - 2, grid_n - 5]
    rest = np.random.default_rng(seed).choice(np.arange(5, grid_n - 5), m - len(ends),
                                              replace=False)
    return np.concatenate([ends, rest])


@pytest.mark.parametrize("plate, curve, m, grid_n, coeff", [
    (DISK, CURVES["circle"], 32, 8192, 31 / 0.3),
    (SEGMENT, CURVES["polar"], 32, 8192, 0.0),
    (SEGMENT, THIN_ELLIPSE, 64, 4096, 63 / 0.3),
    (SEGMENT, THIN_ELLIPSE, 64, 4096, 0.0),
    (DISK, CURVES["ellipse"], 128, 2048, 0.0),
], ids=["narrow-circle", "narrow-polar-capacity", "thin-ellipse", "thin-ellipse-capacity",
        "ellipse-capacity"])
def test_windowed_engine_matches_reference_loops(plate, curve, m, grid_n, coeff):
    phi_g, g_inf = curve_grid(plate, curve, grid_n)
    for seed in (0, 1):
        run = _exchange_maximize(phi_g, g_inf, m, coeff, seed)
        assert run.converged
        assert np.array_equal(run.chosen, reference_exchange(phi_g, g_inf, m, coeff, seed))
        start = edge_start(grid_n, m, seed)
        run = _exchange_maximize(phi_g, g_inf, m, coeff, seed, start=start)
        want = reference_exchange_from(phi_g, g_inf, m, coeff, seed, start)
        assert run.converged
        assert np.array_equal(run.chosen, want), (m, grid_n, coeff, seed)
        # the windows decided most visits, so the certificate was exercised
        assert run.full_scans < run.passes * m


def test_thin_ellipse_columns_peak_away_from_the_window():
    # the premise of the thin-ellipse cases: a column's largest value outside
    # its window need not sit next to the window, so a bound read off the
    # window's edges would be wrong and out_max has to be the true maximum
    m, grid_n = 64, 4096
    half = -(-eq._WINDOW_SPACINGS * grid_n // m)
    phi_g, _ = curve_grid(SEGMENT, THIN_ELLIPSE, grid_n)
    col = np.empty(grid_n)
    top = grid_n // 4  # the point 0.3i, above the middle of the plate
    _column_fill(phi_g)(top, col)
    gap = np.abs((np.arange(grid_n) - top + grid_n // 2) % grid_n - grid_n // 2)
    outside = np.flatnonzero(gap > half)
    far = outside[np.argmax(col[outside])]
    assert gap[far] > 2 * half
    assert col[far] > max(col[top - half - 1], col[top + half + 1])


def test_thin_ellipse_falls_back_to_full_scans():
    # certificates fail on the thin ellipse from greedy insertion; the
    # engine must still match the reference loop (checked above), and here
    # the fallback is seen to run
    phi_g, g_inf = curve_grid(SEGMENT, THIN_ELLIPSE, 4096)
    run = _exchange_maximize(phi_g, g_inf, 64, 0.0, 0)
    assert 0 < run.full_scans < run.passes * 64


def test_thin_ellipse_stage_converges_from_the_density():
    # the thin-ellipse CI case: from the density start the stage converges
    # with 30 full scans (measured; 630 from coarse to fine)
    stage = eq._theta_stage(Condenser(SEGMENT, THIN_ELLIPSE).validate(samples=1024),
                            0.3, 64, 8192, 0)
    assert stage.start == "density" and stage.converged
    assert stage.full_scans <= 60


@pytest.mark.parametrize("theta", [0.1, 0.3])
def test_seeded_stages_rarely_scan_the_whole_grid(theta):
    stage = eq._theta_stage(OFFSET, theta, 256, 4096, 1)
    assert stage.start == "density" and stage.converged
    assert stage.full_scans <= 0.05 * stage.passes * 256


@pytest.mark.parametrize("curve, m, coeff, seed, start", [
    (THIN_ELLIPSE, 16, 15 / 0.2, 2, (453 + 3 * np.arange(16)) % 1024),
    (THIN_ELLIPSE, 64, 63 / 0.2, 1, np.random.default_rng(101).choice(1024, 64, replace=False)),
    (CURVES["polar"], 64, 63 / 0.2, 0, np.random.default_rng(100).choice(1024, 64, replace=False)),
], ids=["thin-ellipse-cluster", "thin-ellipse-drawn", "polar-drawn"])
def test_long_moves_match_reference_loop(curve, m, coeff, seed, start):
    # starts whose atoms travel far across the curve under a strong field:
    # a tight cluster and random slots, on 1024 slots around a segment plate.
    # A long move leaves its window, so these visits lean on out_max being
    # the true maximum off the window and on its refresh after every move.
    phi_g, g_inf = curve_grid(SEGMENT, curve, 1024)
    run = _exchange_maximize(phi_g, g_inf, m, coeff, seed, start=start)
    want = reference_exchange_from(phi_g, g_inf, m, coeff, seed, start)
    assert run.converged
    assert np.array_equal(run.chosen, want)
