"""Weighted Fekete points on the curve, weighted Leja points on the plate,
and the extremal constants they estimate.

Two routes to the curve constant are kept side by side, both read off one
vector, the field u = U_D^{lam_n} - g(., inf) on the curve grid:

  energy route:  sum_i w_i u(x_i) / (1 - theta), the lam_n-average of u at
                 the atoms, which is (J(lam_n) + sum_i w_i g(x_i, inf)) / (1 - theta)
  field route:   min of u over the free grid slots

Their gap is a discretization residual and shrinks as the point count grows.

Fekete points come from one exchange engine (_exchange_maximize), started
from greedy insertion or from given grid slots.  A Fekete stage's full-grid
exchange has one of two starts:

  density:         circle and ellipse curves, at every theta: atom i starts
                   at the (i + 1/2)/m quantile of spectral_equilibrium's
                   density (_quantile_start).
  coarse_to_fine:  polar curves, whose C^0 tables lose the spectral rate:
                   while the halved grid (every other slot) keeps at least
                   _COARSE_SLOTS slots per atom, it is solved first, the same
                   way, and its slots, prolonged to the even slots of the
                   full grid, start the full-grid exchange; the coarsest
                   level starts from greedy insertion.

The start is picked from the geometry and theta alone; the exchange then runs
the same passes to the same stopping rule.  A visit of one atom scores only
a window of _WINDOW_SPACINGS mean atom spacings on either side of it, and the
whole grid only when a bound on every score outside the window does not
certify the window's verdict; the chosen slots are those of full scans, bit
for bit.  tests/test_exchange_oracle.py holds the per-visit reference loop
for both engine starts.  The engine keeps no whole kernel column: per atom
only the column's window slice and its maximum outside the window, and the
running potential pot, the sum of the columns, each 0 at its own slot.  A
column is refilled when its atom moves or its visit scans the whole grid.
A stage's field is then ((1 - theta) / m) pot - g(., inf), and u at atom i
holds the potential of the other atoms.

_theta_stage does a whole Fekete stage (curve grid, start, exchange, field,
both routes and the support) and returns one ThetaStage record.  The support
S_theta is the field within _support_tol of its minimum: one threshold,
shared by equilibrium_result, theta_sweep and support_S_theta.

Leja points on the plate (leja_weighted) take U^{lam_n} as their field.
It comes from the exterior map phi of E, not from the direct sum.  With
w_i = phi(x_i) and u = phi(z) for z on the boundary of E (|u| = 1),
log|z - x_i| = log cap(E) + log|w_i| + log|1 - u/w_i|, plus log|1 - conj(u)/w_i|
on a segment.  So U(z) = -|lam| log cap(E) - sum_i lam_i log|w_i| + Re P(u)
(+ Re P(conj u)), where P(v) = sum_{k <= K} (c_k / k) v^k and
c_k = sum_i lam_i w_i^-k (_plate_field).  K is the fewest terms whose tail
bound, with rho = max_i 1/|w_i|, falls below |lam| 2^-53 (geometry.series_terms).
log_potential's direct sum stays where the series does not converge (rho >= 1,
an atom on or inside E) or is no cheaper (K >= the atom count).  The plate
grid is equispaced, in angle on a disk and in abscissa on a segment, so
log|z_j - z_i| depends only on |j - i|: each greedy pick adds a slice of one
row of 2n - 1 values instead of a fresh complex log row.
tests/test_leja_oracle.py holds the direct-sum, per-pick reference loop.

Capacities: condenser_capacity and every cap(S_tau) of theta_sweep come
from spectral.spectral_capacity (Nystrom on the whole curve, Chebyshev
collocation on the support's parameter arcs), on every curve kind, and no
exchange runs for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse
from .geometry import (Condenser, EDomain, TWO_PI, green_matrix, green_pole_infinity,
                       kernel_parts, log_capacity, boundary_samples, phi_exterior, sample_curve,
                       series_terms)
from .measure import _CHUNK_ENTRIES, DiscreteMeasure, log_abs, log_potential
from .spectral import CapacitySolve, spectral_capacity, spectral_equilibrium

_ENDPOINT_TOL = 1e-12
_COARSE_SLOTS = 8  # slots per atom on the coarsest grid of a coarse-to-fine solve
_WINDOW_SPACINGS = 6  # half-width of an exchange visit's first scan, in mean atom spacings
_MAX_PASSES = 200  # exchange passes of one run before it stops unconverged


@dataclass(frozen=True)
class EquilibriumResult:
    """Discretized curve/plate equilibrium pair with constants and diagnostics."""

    theta: float
    lambda_n: DiscreteMeasure
    mu_n: DiscreteMeasure
    m_theta_energy: float
    m_theta_field: float
    m_hat_theta: float
    support_arcs: list
    residuals: dict


@dataclass(frozen=True)
class SweepReport:
    """Per-theta constants, capacities, and cross-check residuals."""

    thetas: list
    m_theta_energy: list
    m_theta_field: list
    m_hat_theta: list
    cap_condenser: float
    cap_s_tau: list
    support_arcs: list
    integral_check_residual: float
    monotone_m: bool
    monotone_m_hat: bool
    converged: list

    def csv_rows(self):
        """Rows for the documented CSV: theta, m_energy, m_field, m_hat, cap_S_tau, residuals."""
        rows = [("theta", "m_energy", "m_field", "m_hat", "cap_S_tau", "residuals")]
        for i, t in enumerate(self.thetas):
            rows.append((repr(t), repr(self.m_theta_energy[i]), repr(self.m_theta_field[i]),
                         repr(self.m_hat_theta[i]), repr(self.cap_s_tau[i]),
                         repr(abs(self.m_theta_energy[i] - self.m_theta_field[i]))))
        return rows


# ---------------------------------------------------------------------------
# exchange engine on a fixed grid


class ExchangeRun(NamedTuple):
    """Chosen grid slots of one exchange run, with its pass and move counts
    and the final running potential.

    ``full_scans`` counts the visits that scored the whole grid because their
    window scan could not be certified.  ``converged`` is False when the run
    stopped at ``_MAX_PASSES`` with the last pass still moving atoms.
    pot = sum_i g(., z_chosen[i]) over the grid, each kernel column taken 0
    at its own slot and on the plate, summed as the run went: pot[chosen[i]]
    is the potential of the other atoms at atom i, so for m atoms of weight w
    one scaling w * pot gives a stage's field and its pair energy.
    """

    chosen: np.ndarray
    passes: int
    moves: int
    full_scans: int
    converged: bool
    pot: np.ndarray


def _column_fill(phi_grid, rows: int = 1):
    """fill(idx, out): the kernel columns g(., z_j) over the grid for the
    slots j of idx, one per row of out (at most rows of them), each 0 at its
    own slot; a scalar idx fills a 1-D out.

    A column is kernel_from_phi's one-log form,
    g = log1p(s * s_j / |phi - phi_j|^2) / 2 with s = |phi|^2 - 1 clamped
    to 0 on the plate.  Re phi, Im phi and s are taken once per grid; a fill
    runs kernel_from_phi's elementwise operations in its order, into out and
    one reused scratch block, so each column is bit-identical to it off slot
    j.  A slot on the plate, or a pole there, has s = 0 and so a zero
    product: the plate needs no mask.  Slot j's squared distance is set to 1
    before the divide, so nothing divides by zero, and its output to 0 after.
    """
    x, y, s = (np.ascontiguousarray(a) for a in kernel_parts(phi_grid))
    n = phi_grid.size
    scratch = np.empty(rows * n)
    offsets = n * np.arange(rows)  # flat offset of each row of a block

    def fill(idx, out):
        idx = np.asarray(idx)
        pole = idx[..., None]
        own = idx + offsets[:idx.size]  # flat index of each slot j in out
        d2 = scratch[:out.size].reshape(out.shape)
        np.subtract(x, x[pole], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(y, y[pole], out=out)
        np.multiply(out, out, out=out)
        np.add(d2, out, out=d2)
        d2.put(own, 1.0)
        np.multiply(s, s[pole], out=out)
        np.divide(out, d2, out=out)
        np.log1p(out, out=out)
        np.multiply(0.5, out, out=out)
        out.put(own, 0.0)
    return fill


def _fill_rows(grid_n: int, m: int) -> int:
    """Rows of an exchange run's fill block: about measure._CHUNK_ENTRIES
    entries and at most the m start columns, but at least the two columns
    of a move."""
    return max(2, min(m, _CHUNK_ENTRIES // grid_n))


def _window_half(grid_n: int, m: int) -> int:
    """Slots on either side of an atom's slot that its exchange visit scores
    first: _WINDOW_SPACINGS mean atom spacings, rounded up."""
    return -(-_WINDOW_SPACINGS * grid_n // m)


def exchange_allocation(m: int, grid_n: int) -> int:
    """Float64 entries of the largest array an exchange run of m >= 1 atoms
    on grid_n slots allocates: its window store (a window of 2 half + 1
    slots per atom, none when a window covers the grid), or its fill block
    and the block's scratch, _fill_rows(grid_n, m) x grid_n each."""
    width = 2 * _window_half(grid_n, m) + 1
    return max(m * width if width < grid_n else 0, _fill_rows(grid_n, m) * grid_n)


def _exchange_maximize(phi_grid, g_inf, m, field_coeff, seed, start=None) -> ExchangeRun:
    """Single-point exchange passes maximizing

        F = -sum_{i<j} g(z_i, z_j) + field_coeff * sum_i g(z_i, inf)

    over m distinct slots of the grid, from one of two starts: greedy
    insertion (start=None), or the m distinct grid slots given as start.
    Deterministic for a fixed seed and start: the seed only shuffles the
    exchange visiting order, ties go to the lowest grid index, and every
    accepted move strictly increases F.

    State kept across visits: pot = sum_i col_i, where col_i is atom i's
    kernel column with 0 at its own slot, so pot is finite everywhere and
    pot[chosen[i]] is the potential of the other atoms at atom i.  dp =
    drive - pot with -inf at occupied slots (occupancy lives in free_drive, a
    copy of drive set to -inf there).  score = dp + col_i is atom i's
    objective at every free slot, and drive - pot at its own slot (plus a
    1e-12 drift guard) is the value of staying.  No column is kept whole: the
    start fills the m columns in blocks of _fill_rows(grid_n, m) rows of one
    reused buffer, adding each to pot in atom order; a move refills the old
    column and the new one in one 2-row fill, takes the old from pot and adds
    the new, and recomputes dp.  Every fill gives the same bits as the first
    fill of that slot, so pot has the bits of a sum over kept columns.

    A visit first scores only its window: the half = ceil(_WINDOW_SPACINGS *
    grid_n / m) slots on either side of the atom's slot, taken cyclically
    (the curve grid is closed) and scanned in increasing slot order.  The
    engine keeps dpmax = max(dp), recomputed after the start and after each
    move, and for each atom its window record, taken when its column is
    filled: the window's place, a view of dp over it, its row of the window
    store (m x (2 half + 1), col_i over the window in scan order), and
    out_max, the largest value of col_i outside the window (inf when the
    window covers the grid, which then needs no store).  IEEE addition is
    monotone, so no score outside the window exceeds bound = dpmax + out_max.
    A window maximum above bound is therefore the grid maximum, and the
    window's first argmax is the grid's lowest one.  Otherwise the visit
    refills col_i and scores the whole grid (counted in full_scans).  Every
    visit thus reaches the full scan's verdict, bit for bit, mostly after
    reading a few atom spacings: 193 of 16384 slots at 1024 atoms.  The
    largest arrays are the window store and the fill block
    (exchange_allocation): 1.5 and 0.5 MiB at 1024 atoms on 16384 slots.

    tests/test_exchange_oracle.py keeps the per-visit loop that recomputes
    every score, from greedy insertion and from given start slots; this
    engine must match it slot for slot from either start.
    """
    grid_n = phi_grid.size
    rows = _fill_rows(grid_n, m)
    fill = _column_fill(phi_grid, rows)
    block = np.empty((rows, grid_n))
    drive = field_coeff * g_inf
    free_drive = drive.copy()
    pot = np.zeros(grid_n)
    dp = np.empty(grid_n)

    # a window is the cyclic slot range first, ..., first + width - 1; when it
    # wraps past the last slot, its slots 0, ..., split - 1 are scored first,
    # so it is always scanned, and stored, in increasing slot order
    half = _window_half(grid_n, m)
    width = 2 * half + 1
    windowed = width < grid_n
    store = np.empty((m, width if windowed else 0))
    windows = [None] * m

    def keep(j, col):
        """Take atom j's window record, (first, split, out_max, dp view,
        store row), from its column col; the dp view, kept so a visit slices
        nothing, is None when the window wraps."""
        if not windowed:
            windows[j] = 0, 0, np.inf, None, None
            return
        first = (slots[j] - half) % grid_n
        split = first + width - grid_n
        win = store[j]
        if split > 0:
            win[:split] = col[:split]
            win[split:] = col[first:]
            windows[j] = first, split, float(col[split:first].max()), None, win
            return
        win[:] = col[first:first + width]
        off = max(col[:first].max(initial=-np.inf), col[first + width:].max(initial=-np.inf))
        windows[j] = first, 0, float(off), dp[first:first + width], win

    if start is None:
        slots = []
        idx = int(np.argmax(drive))
        for j in range(m):
            slots.append(idx)
            free_drive[idx] = -np.inf
            fill(idx, block[0])
            pot += block[0]
            keep(j, block[0])
            np.subtract(free_drive, pot, out=dp)
            idx = int(dp.argmax())
    else:
        slots = np.asarray(start, dtype=int).tolist()
        for lo in range(0, m, rows):
            cols = block[:min(rows, m - lo)]
            fill(slots[lo:lo + rows], cols)
            for j, col in enumerate(cols, lo):
                pot += col
                keep(j, col)
        free_drive[slots] = -np.inf
        np.subtract(free_drive, pot, out=dp)

    dpmax = float(dp.max())
    rng = np.random.default_rng(seed)
    score = np.empty(grid_n)
    window = score[:width]
    passes = moves = full_scans = 0
    converged = False
    while not converged and passes < _MAX_PASSES:
        passes += 1
        moves_before = moves
        for i in rng.permutation(m).tolist():
            pos = slots[i]
            stay = drive.item(pos) - pot.item(pos) + 1e-12
            first, split, out_max, dp_win, win = windows[i]
            bound = dpmax + out_max
            best = -1
            if bound < np.inf:
                if split:
                    np.add(dp[:split], win[:split], window[:split])
                    np.add(dp[first:], win[split:], window[split:])
                else:
                    np.add(dp_win, win, window)
                k = int(window.argmax())
                top = window.item(k)
                if top > bound:
                    best = k if k < split else first + k - split
            if best < 0:
                full_scans += 1
                fill(pos, score)
                np.add(dp, score, score)
                best = int(score.argmax())
                top = score.item(best)
            # strict improvement with a drift guard so float noise cannot cycle
            if top > stay:
                fill([pos, best], block[:2])
                pot -= block[0]
                pot += block[1]
                free_drive[pos] = drive[pos]
                free_drive[best] = -np.inf
                np.subtract(free_drive, pot, out=dp)
                dpmax = float(dp.max())
                slots[i] = best
                keep(i, block[1])
                moves += 1
        converged = moves == moves_before
    return ExchangeRun(np.array(slots), passes, moves, full_scans, converged, pot)


def _halves(grid_n: int, m: int) -> bool:
    """Whether a coarse-to-fine solve of m atoms on grid_n slots first solves
    the halved grid."""
    return (grid_n + 1) // 2 >= _COARSE_SLOTS * m


def _coarse_to_fine(phi_grid, g_inf, m, field_coeff, seed) -> ExchangeRun:
    """The exchange run on the full grid, started from the run on the halved
    grid (every other slot, solved the same way) while that grid keeps at
    least _COARSE_SLOTS * m slots; coarse slot k starts fine slot 2k.

    Only the full-grid run decides convergence; a coarse run is a start.
    """
    start = None
    if _halves(phi_grid.size, m):
        start = 2 * _coarse_to_fine(np.ascontiguousarray(phi_grid[::2]),
                                    np.ascontiguousarray(g_inf[::2]),
                                    m, field_coeff, seed).chosen
    return _exchange_maximize(phi_grid, g_inf, m, field_coeff, seed, start=start)


def _quantile_start(c: Condenser, theta: float, m: int, params: np.ndarray):
    """m distinct grid slots at the quantiles of spectral_equilibrium's density.

    The density, interpolated linearly onto the grid, has a trapezoid cdf
    counted from the first slot of a support arc, or, on a whole-curve
    support, from the density peak (its first slot within 1e-9 relative, so
    a flat density counts from slot 0).  Atom i goes to the slot nearest
    where the cdf reaches (i + 1/2)/m; a slot already taken bumps it forward
    (and the last atoms back from the end of the grid), so they are distinct.
    """
    density, _ = spectral_equilibrium(c, theta)
    dens = np.interp(params, TWO_PI * np.arange(density.size) / density.size, density,
                     period=TWO_PI)
    runs = _slot_runs(dens > 0)
    k0 = runs[0][0] if runs else int(np.argmax(dens >= (1.0 - 1e-9) * dens.max()))
    d = np.roll(dens, -k0)
    cdf = np.concatenate([[0.0], np.cumsum(d + np.roll(d, -1))])
    n, i = params.size, np.arange(m)
    j = np.rint(np.interp((i + 0.5) / m * cdf[-1], cdf, np.arange(n + 1))).astype(int)
    j = np.minimum(np.maximum.accumulate(j - i) + i, n - m + i)
    return (j + k0) % n


def _warn_unconverged(run: ExchangeRun, m: int, grid_n: int):
    if not run.converged:
        warnings.warn(f"exchange engine stopped at max_passes = {run.passes} before "
                      f"converging (m = {m}, grid_n = {grid_n})", RuntimeWarning, stacklevel=2)


def _curve_grid(c: Condenser, grid_n: int):
    """The curve grid: (samples, phi at the samples, g(., inf) at the samples)."""
    samples = sample_curve(c.gamma, grid_n)
    return (samples, phi_exterior(c.e_domain, samples.points),
            green_pole_infinity(c.e_domain, samples.points))


def fekete_green(c: Condenser, theta: float, m: int, grid_n: int,
                 seed: int = 0) -> DiscreteMeasure:
    """Weighted Fekete configuration on the curve grid, each atom of mass (1-theta)/m.

    theta = 1 gives the zero measure, for any m.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("fekete_green needs theta in [0, 1]")
    if theta >= 1.0 - _ENDPOINT_TOL:
        return DiscreteMeasure.zero()
    return _theta_stage(c, theta, m, grid_n, seed).lam


def leja_weighted(c: Condenser, lambda_n: DiscreteMeasure, theta: float, m: int,
                  grid_n: int) -> DiscreteMeasure:
    """Greedy weighted Leja points (see _leja_indices) on the plate boundary
    grid, with U^{lambda_n} as the field (_plate_field); each atom carries
    mass theta / m.

    theta = 0 gives the zero measure, for any m.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("leja_weighted needs theta in [0, 1]")
    if theta <= _ENDPOINT_TOL:
        return DiscreteMeasure.zero()
    if m < 1:
        raise ValueError("leja_weighted needs m >= 1")
    if grid_n < 16 * m:
        raise GridTooCoarse(f"grid_n = {grid_n} < 16 * m = {16 * m}")
    grid = boundary_samples(c.e_domain, grid_n)
    u_ext = _plate_field(c.e_domain, lambda_n, grid)
    chosen = _leja_indices(grid, m, u_ext, theta, equispaced=True)
    return DiscreteMeasure(grid[chosen], np.full(m, theta / m))


def _plate_field(e: EDomain, lam: DiscreteMeasure, grid: np.ndarray) -> np.ndarray:
    """U^lam on the plate boundary grid, from the exterior-map series.

    With w_i = phi(x_i) and u = phi(z), |u| = 1:
        U(z) = -|lam| log cap(E) - sum_i lam_i log|w_i| + Re P(u) (+ Re P(conj u)
    on a segment), P(v) = sum_{k <= K} (c_k / k) v^k, c_k = sum_i lam_i w_i^-k.
    K is series_terms(rho, len(lam)) with rho = max_i 1/|w_i|.  It is 0, and
    log_potential's direct sum is used instead, for the zero measure, for
    rho >= 1 (an atom on or inside E), and where K >= len(lam), since the
    series then costs no less.
    """
    w = phi_exterior(e, lam.points)
    terms = 0 if lam.is_zero else series_terms(float(np.max(1.0 / np.abs(w))), len(lam))
    if not terms:
        return np.atleast_1d(log_potential(lam, grid))
    inv = 1.0 / w
    coef = lam.weights @ np.cumprod(np.broadcast_to(inv[:, None], (len(lam), terms)), axis=1)
    coef /= np.arange(1, terms + 1)
    u = phi_exterior(e, grid)
    vs = (u, u.conj()) if e.kind == "segment" else (u,)
    field = np.full(grid.size, -lam.total_mass * np.log(log_capacity(e))
                    + float(lam.weights @ np.log(np.abs(inv))))
    for v in vs:
        poly = np.full(grid.size, coef[-1])
        for a in coef[-2::-1]:  # Horner
            poly *= v
            poly += a
        poly *= v
        field += poly.real
    return field


def _leja_indices(pts: np.ndarray, m: int, u_ext=0.0, theta: float = 1.0,
                  equispaced: bool = False) -> list:
    """Indices of m greedy weighted Leja points of pts.

    Point j+1 maximizes sum_{i <= j} log|z - z_i| - (j / theta) u_ext(z); the
    first point maximizes -u_ext.  Ties go to the lowest index.  The default
    zero field gives plain Leja (greedy max-product) points.  On an
    equispaced grid (boundary_samples of a plate), log|z_j - z_i| depends
    only on |j - i|, so the row of pick i is a slice of one row of 2n - 1
    values; otherwise each pick takes log_abs(pts - pts[i]).
    """
    if m == 0:
        return []
    if equispaced:
        n = pts.size
        half = log_abs(pts - pts[0])
        shifted = np.concatenate((half[:0:-1], half))

        def row(i):
            return shifted[n - 1 - i:2 * n - 1 - i]
    else:
        def row(i):
            return log_abs(pts - pts[i])
    chosen = [int(np.argmax(-u_ext))]
    acc = row(chosen[0]).copy()
    for j in range(1, m):
        idx = int(np.argmax(acc - (j / theta) * u_ext))
        chosen.append(idx)
        acc += row(idx)
    return chosen


# ---------------------------------------------------------------------------
# the curve field U_D^{lambda_n} - g(., inf)


def gamma_field(c: Condenser, lam: DiscreteMeasure, grid_n: int = 4096):
    """(params, field values, support mask) of U_D^{lam} - g(., inf) on the curve grid.

    The independent reference for a Fekete stage's field: the rows g(x_i, .)
    are rebuilt from the atoms by geometry.green_matrix into an atoms x grid_n
    matrix, 0 at each atom's own grid slot, and the field is w @ matrix -
    g(., inf).  It agrees with the stage's field, read off the exchange's
    running potential, to the rounding of that running sum.  The matrix
    holds len(lam) * grid_n floats (128 MiB at 1024 atoms on 16384 slots),
    which no Fekete stage allocates.  Grid slots occupied by atoms of lam
    carry the field minimum over the free slots (the discrete potential is
    infinite there; the continuum field attains its minimum on the support).
    """
    samples, phi_g, g_inf = _curve_grid(c, grid_n)
    mask = np.isin(samples.points, lam.points)
    vals = lam.weights @ green_matrix(phi_exterior(c.e_domain, lam.points), phi_g) - g_inf
    vals[mask] = np.min(vals[~mask]) if not mask.all() else 0.0
    return samples.params, vals, mask


def m_theta(c: Condenser, theta: float, n_points: int = 256, grid_n: int = 4096,
            seed: int = 0):
    """The curve constant by both routes: (energy estimate, field estimate).

    The endpoints bypass optimization: theta = 0 gives (0, 0) and theta = 1
    gives -max over the curve grid of g(., inf) for both routes.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("m_theta needs theta in [0, 1]")
    if theta <= _ENDPOINT_TOL:
        return 0.0, 0.0
    stage = _theta_stage(c, theta, n_points, grid_n, seed)
    return stage.m_energy, stage.m_field


class ThetaStage(NamedTuple):
    """One Fekete stage at theta: lambda_n, both curve constants, and the
    curve field and its support on the stage's curve grid (at the grid's
    parameters), with the full-grid exchange's counts, converged flag and
    start: "density", "coarse_to_fine", "greedy", or "none" at theta = 1."""

    lam: DiscreteMeasure
    m_energy: float
    m_field: float
    params: np.ndarray
    vals: np.ndarray
    field_min: float
    support: np.ndarray
    passes: int
    moves: int
    full_scans: int
    converged: bool
    start: str


def _theta_stage(c: Condenser, theta: float, m: int, grid_n: int, seed: int) -> ThetaStage:
    """The Fekete stage of m atoms at theta, from one field vector.

    The full-grid exchange starts at _quantile_start's slots, and on a polar
    curve solves coarse to fine.  A single atom has no pair term, so it sits
    at the grid maximum of g(., inf), and its kernel column is its pot.  Then
    u = ((1 - theta) / m) run.pot - g(., inf), from the run's running
    potential: the field route is the minimum of u over the free slots, the
    energy route the lambda_n-average of u at the atoms over 1 - theta.  The
    atom slots then carry the field minimum, as in gamma_field, and the
    support is the field within _support_tol of it.  theta = 1 runs no
    exchange, for any m.
    """
    if theta >= 1.0 - _ENDPOINT_TOL:
        # theta = 1 leaves the field -g(., inf), whose minimum is -max g(., inf)
        samples, _, g_inf = _curve_grid(c, grid_n)
        lam, vals = DiscreteMeasure.zero(), -g_inf
        field_min = float(np.min(vals))
        m_energy = m_field = field_min
        counts = 0, 0, 0, True, "none"
    else:
        if m < 1:
            raise ValueError("fekete stage needs m >= 1")
        if grid_n < 16 * m:
            raise GridTooCoarse(f"grid_n = {grid_n} < 16 * m = {16 * m}")
        samples, phi_g, g_inf = _curve_grid(c, grid_n)
        coeff = (m - 1) / (1.0 - theta)
        if m == 1:
            idx = int(np.argmax(g_inf))
            pot = np.empty(grid_n)
            _column_fill(phi_g)(idx, pot)
            run, start = ExchangeRun(np.array([idx]), 0, 0, 0, True, pot), "greedy"
        elif c.gamma.kind == "polar":
            run = _coarse_to_fine(phi_g, g_inf, m, coeff, seed)
            start = "coarse_to_fine" if _halves(grid_n, m) else "greedy"
        else:
            slots = _quantile_start(c, theta, m, samples.params)
            run, start = _exchange_maximize(phi_g, g_inf, m, coeff, seed, start=slots), "density"
        _warn_unconverged(run, m, grid_n)
        lam = DiscreteMeasure(samples.points[run.chosen], np.full(m, (1.0 - theta) / m))
        vals = ((1.0 - theta) / m) * run.pot - g_inf
        at_atoms = vals[run.chosen]
        vals[run.chosen] = np.inf  # the minimum runs over the free slots
        field_min = float(np.min(vals))
        vals[run.chosen] = field_min
        if theta <= _ENDPOINT_TOL:
            m_energy = m_field = 0.0
        else:
            m_energy, m_field = float(lam.weights @ at_atoms) / (1.0 - theta), field_min
        counts = run.passes, run.moves, run.full_scans, run.converged, start
    support = _support_mask(vals, field_min, _support_tol(theta, m, grid_n, field_min))
    return ThetaStage(lam, m_energy, m_field, samples.params, vals, field_min, support, *counts)


def m_hat_theta(c: Condenser, lambda_n: DiscreteMeasure) -> float:
    """The plate constant: -log cp(E) - sum_i w_i g(x_i, inf)."""
    g_atoms = green_pole_infinity(c.e_domain, lambda_n.points)
    return -float(np.log(log_capacity(c.e_domain))) - float(np.sum(lambda_n.weights * g_atoms))


def support_S_theta(c: Condenser, lambda_n: DiscreteMeasure, m_field: float,
                    grid_n: int = 4096) -> list:
    """Maximal parameter intervals of the curve grid where the field stays
    within _support_tol of m_field; the whole curve is reported as [(0, 2*pi)].

    The threshold is a Fekete stage's, with theta read off lambda_n's mass
    (the zero measure is theta = 1, which has no ripple)."""
    params, vals, _ = gamma_field(c, lambda_n, grid_n)
    tol = _support_tol(1.0 - lambda_n.total_mass, max(len(lambda_n), 1), grid_n, m_field)
    return _runs_to_arcs(params, _support_mask(vals, m_field, tol))


def _support_mask(vals: np.ndarray, m_field: float, tol: float) -> np.ndarray:
    """The curve-grid slots where the field stays within tol of m_field."""
    return vals <= m_field + tol


def _support_tol(theta: float, n_points: int, grid_n: int, field_min: float) -> float:
    """The support threshold of every Fekete stage and of support_S_theta:
    1e-2 |field_min| + 1e-4, widened by the inter-atom field ripple, so the
    whole curve is found at small theta as well, where the ripple dominates
    the constant itself.  The grid point nearest an atom sits
    (1-theta)/m * log(1/sin(pi m/grid_n)) above the mid-gap minimum for a
    fully supported configuration."""
    ripple = (1.0 - theta) / n_points * np.log(1.0 / np.sin(np.pi * min(0.499, n_points / grid_n)))
    return 1e-2 * abs(field_min) + 1e-4 + 1.15 * ripple


def _slot_runs(qualify: np.ndarray) -> list:
    """(first, last) slots of each cyclic run of qualifying slots, in order of
    first slot; a run through the last slot wraps to last < first."""
    q = qualify.astype(int)
    starts = np.nonzero(np.diff(np.concatenate([q[-1:], q])) == 1)[0]
    ends = np.nonzero(np.diff(np.concatenate([q, q[:1]])) == -1)[0]
    return [(int(s), int(ends[ends >= s][0] if np.any(ends >= s) else ends[0]))
            for s in starts]


def _runs_to_arcs(params: np.ndarray, qualify: np.ndarray) -> list:
    if np.all(qualify):
        return [(0.0, TWO_PI)]
    return [(float(params[s]), float(params[e])) for s, e in _slot_runs(qualify)]


def condenser_capacity(c: Condenser) -> float:
    """Condenser (Green) capacity of the curve against the plate, by
    spectral_capacity: exact to rounding on a circle or ellipse, and slower
    to converge on a polar curve, whose corners make the rate algebraic."""
    return spectral_capacity(c).cap


def _support_capacity(c: Condenser, stage: ThetaStage) -> CapacitySolve:
    """Capacity of a stage's support short of the whole curve: each run of
    support slots is the parameter arc from half a slot before its first
    slot to half a slot after its last."""
    runs = _slot_runs(stage.support)
    if not runs:
        # only a NaN field leaves no slot within tol of its minimum
        return CapacitySolve(float("nan"), False)
    n = stage.support.size
    step = TWO_PI / n
    return spectral_capacity(c, [(stage.params[a] - 0.5 * step, ((b - a) % n + 1) * step)
                                 for a, b in runs])


def equilibrium_result(c: Condenser, theta: float, n_points: int = 256,
                       grid_n: int = 4096, seed: int = 0) -> EquilibriumResult:
    """Run the two-stage pipeline at one theta and bundle constants, supports,
    and cross-check residuals.

    The support is the field within _support_tol of its minimum.  The
    residuals also report the full-grid exchange's passes, moves, converged
    flag and start ("density", "coarse_to_fine" or "greedy"; "none" at
    theta = 1, where no exchange runs)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    stage = _theta_stage(c, theta, n_points, grid_n, seed)
    lam = stage.lam
    mu = leja_weighted(c, lam, theta, n_points, grid_n)
    residuals = {
        "two_route": abs(stage.m_energy - stage.m_field),
        # never empty: the slot attaining field_min qualifies
        "support_field_stddev": float(np.std(stage.vals[stage.support])),
        "exchange_passes": stage.passes, "exchange_moves": stage.moves,
        "exchange_converged": stage.converged, "exchange_start": stage.start,
    }
    return EquilibriumResult(theta=float(theta), lambda_n=lam, mu_n=mu,
                             m_theta_energy=stage.m_energy, m_theta_field=stage.m_field,
                             m_hat_theta=m_hat_theta(c, lam),
                             support_arcs=_runs_to_arcs(stage.params, stage.support),
                             residuals=residuals)


def theta_sweep(c: Condenser, thetas, n_points: int = 160, grid_n: int = 4096,
                seed: int = 0) -> SweepReport:
    """Constants, supports, and capacities over a strictly increasing theta grid.

    The support is the field within _support_tol of its minimum, as in
    equilibrium_result.  A support short of the whole curve has its own
    capacity (_support_capacity), and converged[i] says that theta i's
    full-grid exchange converged and its capacity solve settled.

    The integral residual compares m over the sweep range against the
    trapezoid integral of 1 / cp(S_tau, plate).
    """
    thetas = [float(t) for t in thetas]
    if len(thetas) < 2 or any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("thetas must be strictly increasing")
    if thetas[0] < 0 or thetas[-1] > 1:
        raise ValueError("thetas must lie in [0, 1]")

    cap_full = spectral_capacity(c)
    m_e_list, m_f_list, m_hat_list, caps, arcs_list, converged = [], [], [], [], [], []
    for theta in thetas:
        stage = _theta_stage(c, theta, n_points, grid_n, seed)
        cap_tau = cap_full if stage.support.all() else _support_capacity(c, stage)

        m_e_list.append(stage.m_energy)
        m_f_list.append(stage.m_field)
        m_hat_list.append(m_hat_theta(c, stage.lam))
        caps.append(cap_tau.cap)
        arcs_list.append(_runs_to_arcs(stage.params, stage.support))
        converged.append(stage.converged and cap_tau.converged)

    integrand = np.array([1.0 / cp for cp in caps])
    steps = np.diff(np.array(thetas))
    integral = float(np.sum(0.5 * steps * (integrand[:-1] + integrand[1:])))
    residual = abs(m_f_list[0] - m_f_list[-1] - integral)

    slack = 1e-6
    monotone_m = all(b < a + slack for a, b in zip(m_f_list, m_f_list[1:]))
    monotone_m_hat = all(b > a - slack for a, b in zip(m_hat_list, m_hat_list[1:]))

    return SweepReport(thetas=thetas, m_theta_energy=m_e_list, m_theta_field=m_f_list,
                       m_hat_theta=m_hat_list, cap_condenser=cap_full.cap, cap_s_tau=caps,
                       support_arcs=arcs_list, integral_check_residual=residual,
                       monotone_m=monotone_m, monotone_m_hat=monotone_m_hat,
                       converged=converged)
