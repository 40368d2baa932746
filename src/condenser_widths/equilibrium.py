"""Weighted Fekete points on the curve, weighted Leja points on the plate,
and the extremal constants they estimate.

Two routes to the curve constant are kept side by side, both read off one
vector, the field u = U_D^{lam_n} - g(., inf) on the curve grid:

  energy route:  sum_i w_i u(x_i) / (1 - theta), the lam_n-average of u at
                 the atoms, which is (J(lam_n) + sum_i w_i g(x_i, inf)) / (1 - theta)
  field route:   min of u over the free grid slots

Their gap is a discretization residual and shrinks as the point count grows.

Fekete points, and the two-level capacity fit's configurations, come from
one exchange engine (_exchange_maximize), started from greedy insertion or
from given grid slots.  A Fekete stage's full-grid exchange has one of three
starts:

  density:         a disk plate inside a circle at theta <= theta*, where the
                   equilibrium has the closed form omega_inf - theta nu
                   (_density_cdf); atom i starts at the slot where its cdf
                   reaches i/m, counted from the density peak.
  coarse_to_fine:  every other pair and theta, and every level of the fit,
                   while the halved grid (every other slot) still has at
                   least _COARSE_SLOTS slots per atom: that grid is solved
                   first, the same way, and its slots, prolonged to the even
                   slots of the full grid, start the full-grid exchange.
  greedy:          the coarsest level, where the grid cannot be halved.

The start is picked from the geometry and theta alone; the exchange then runs
the same passes to the same stopping rule.  A visit of one atom scores only
a window of _WINDOW_SPACINGS mean atom spacings on either side of it, and the
whole grid only when a bound on every score outside the window does not
certify the window's verdict; the chosen slots are those of full scans, bit
for bit.  tests/test_exchange_oracle.py holds the per-visit reference loop
for both engine starts.  The exchange run keeps its final kernel columns,
each 0 at its own slot, so a stage's field is one product w @ cols - g(., inf),
and u at atom i holds the potential of the other atoms.

_theta_stage does a whole Fekete stage (curve grid, start, exchange, field,
both routes and the support) and returns one ThetaStage record, which keeps
no kernel columns.  The support S_theta is the field within _support_tol of
its minimum: one threshold, shared by equilibrium_result, theta_sweep and
support_S_theta.

Capacities: on a circle or ellipse curve, condenser_capacity and every
cap(S_tau) of theta_sweep come from spectral.spectral_capacity (Nystrom on
the whole curve, Chebyshev collocation on the support's parameter arcs), and
no exchange runs for them.  A polar curve is only piecewise smooth, so its
capacities keep the two-level fit (_capacity): the pair energies of m and
m/2 equal atoms on the grid, with the (log m + b)/m defect of the
diagonal-excluded sum fitted through both levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse
from .geometry import (Condenser, TWO_PI, green_pole_infinity, kernel_from_phi, kernel_parts,
                       log_capacity, boundary_samples, phi_exterior, sample_curve)
from .measure import DiscreteMeasure, log_abs, log_potential
from .spectral import CapacitySolve, spectral_capacity

_ENDPOINT_TOL = 1e-12
_ROW_BLOCK = 64  # atom rows of gamma_field's kernel built at a time
_COARSE_SLOTS = 8  # slots per atom on the coarsest grid of a coarse-to-fine solve
_WINDOW_SPACINGS = 6  # half-width of an exchange visit's first scan, in mean atom spacings


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
    and the final kernel columns.

    ``full_scans`` counts the visits that scored the whole grid because their
    window scan could not be certified.  ``converged`` is False when the run
    stopped at ``max_passes`` with the last pass still moving atoms.  The
    engine builds m + moves kernel columns; cols[i] is g(., z_chosen[i]) over
    the grid, 0 at its own slot and on the plate.  For atom weights w,
    (w @ cols)[chosen[i]] is the potential of the other atoms at atom i, so
    one product gives a stage's field and its pair energy.
    """

    chosen: np.ndarray
    passes: int
    moves: int
    full_scans: int
    converged: bool
    cols: np.ndarray


def _column_fill(phi_grid):
    """fill(idx, out): the kernel column g(., z_idx) over the grid, 0 at slot idx.

    The column is kernel_from_phi's one-log form,
    g = log1p(s * s_idx / |phi - phi_idx|^2) / 2 with s = |phi|^2 - 1 clamped
    to 0 on the plate.  Re phi, Im phi and s are taken once per grid; a fill
    runs kernel_from_phi's operations in its order into reused buffers, so the
    column is bit-identical to it off slot idx.  A slot on the plate, or a
    pole there, has s = 0 and so a zero product: the plate needs no mask.
    Slot idx's squared distance is set to 1 before the divide, so nothing
    divides by zero, and its output to 0 after.
    """
    x, y, s = (np.ascontiguousarray(a) for a in kernel_parts(phi_grid))
    d2, dy = np.empty(phi_grid.size), np.empty(phi_grid.size)

    def fill(idx, out):
        np.subtract(x, x[idx], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(y, y[idx], out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(d2, dy, out=d2)
        d2[idx] = 1.0
        np.multiply(s, s[idx], out=out)
        np.divide(out, d2, out=out)
        np.log1p(out, out=out)
        np.multiply(0.5, out, out=out)
        out[idx] = 0.0
    return fill


def _exchange_maximize(phi_grid, g_inf, m, field_coeff, seed, max_passes=200,
                       start=None) -> ExchangeRun:
    """Single-point exchange passes maximizing

        F = -sum_{i<j} g(z_i, z_j) + field_coeff * sum_i g(z_i, inf)

    over m distinct slots of the grid, from one of two starts: greedy
    insertion (start=None), or the m distinct grid slots given as start.
    Deterministic for a fixed seed and start: the seed only shuffles the
    exchange visiting order, ties go to the lowest grid index, and every
    accepted move strictly increases F.

    State kept across visits: cols[i] is atom i's kernel column with 0 at its
    own slot, so pot = sum_i cols[i] is finite everywhere and pot[chosen[i]]
    is the potential of the other atoms at atom i.  dp = drive - pot with
    -inf at occupied slots (occupancy lives in free_drive, a copy of drive
    set to -inf there).  score = dp + cols[i] is atom i's objective at every
    free slot, and drive - pot at its own slot (plus a 1e-12 drift guard) is
    the value of staying.  A move updates pot by two column passes,
    free_drive at two slots, and recomputes dp.

    A visit first scores only its window: the half = ceil(_WINDOW_SPACINGS *
    grid_n / m) slots on either side of the atom's slot, taken cyclically
    (the curve grid is closed) and scanned in increasing slot order.  The
    engine keeps dpmax = max(dp), recomputed after the start and after each
    move, and for each atom its window record, taken when its column is
    filled: the window's place, views of dp and cols[i] over it, and
    out_max, the largest value of cols[i] outside it (inf when the window
    covers the grid).  IEEE addition is monotone, so no score outside the
    window exceeds bound = dpmax + out_max.  A window maximum above bound is
    therefore the grid maximum, and the window's first argmax is the grid's
    lowest one.  Otherwise the visit scores the whole grid (counted in
    full_scans).  Every visit thus reaches the full scan's verdict, bit for
    bit, mostly after reading a few atom spacings: 193 of 16384 slots at 1024
    atoms.

    tests/test_exchange_oracle.py keeps the per-visit loop that recomputes
    every score, from greedy insertion and from given start slots; this
    engine must match it slot for slot from either start.
    """
    grid_n = phi_grid.size
    fill = _column_fill(phi_grid)
    drive = field_coeff * g_inf
    free_drive = drive.copy()
    chosen = np.empty(m, dtype=int)
    cols = np.empty((m, grid_n))
    pot = np.zeros(grid_n)
    dp = np.empty(grid_n)

    if start is None:
        idx = int(np.argmax(drive))
        for j in range(m):
            chosen[j] = idx
            free_drive[idx] = -np.inf
            fill(idx, cols[j])
            pot += cols[j]
            np.subtract(free_drive, pot, out=dp)
            idx = int(dp.argmax())
    else:
        chosen[:] = start
        for j in range(m):
            fill(chosen[j], cols[j])
            pot += cols[j]
        free_drive[chosen] = -np.inf
        np.subtract(free_drive, pot, out=dp)

    # a window is the cyclic slot range first, ..., first + width - 1; when it
    # wraps past the last slot, its slots 0, ..., split - 1 are scored first,
    # so it is always scanned in increasing slot order
    half = -(-_WINDOW_SPACINGS * grid_n // m)
    width = 2 * half + 1
    slots = chosen.tolist()

    def window_of(j):
        """(first, split, out_max, dp view, column view) of atom j's window.
        out_max is inf when the window covers the grid; the views, kept so a
        visit slices nothing, are None when it wraps."""
        if width >= grid_n:
            return 0, 0, np.inf, None, None
        first = (slots[j] - half) % grid_n
        split = first + width - grid_n
        if split > 0:
            return first, split, float(cols[j, split:first].max()), None, None
        off = max(cols[j, :first].max(initial=-np.inf),
                  cols[j, first + width:].max(initial=-np.inf))
        return first, 0, float(off), dp[first:first + width], cols[j, first:first + width]

    windows = [window_of(j) for j in range(m)]
    dpmax = float(dp.max())
    rng = np.random.default_rng(seed)
    score = np.empty(grid_n)
    window = score[:width]
    passes = moves = full_scans = 0
    converged = False
    while not converged and passes < max_passes:
        passes += 1
        moves_before = moves
        for i in rng.permutation(m).tolist():
            pos = slots[i]
            stay = drive.item(pos) - pot.item(pos) + 1e-12
            first, split, out_max, dp_win, col_win = windows[i]
            bound = dpmax + out_max
            best = -1
            if bound < np.inf:
                if split:
                    np.add(dp[:split], cols[i, :split], window[:split])
                    np.add(dp[first:], cols[i, first:], window[split:])
                else:
                    np.add(dp_win, col_win, window)
                k = int(window.argmax())
                top = window.item(k)
                if top > bound:
                    best = k if k < split else first + k - split
            if best < 0:
                full_scans += 1
                np.add(dp, cols[i], score)
                best = int(score.argmax())
                top = score.item(best)
            # strict improvement with a drift guard so float noise cannot cycle
            if top > stay:
                pot -= cols[i]
                fill(best, cols[i])
                pot += cols[i]
                free_drive[pos] = drive[pos]
                free_drive[best] = -np.inf
                np.subtract(free_drive, pot, out=dp)
                dpmax = float(dp.max())
                slots[i] = best
                windows[i] = window_of(i)
                moves += 1
        converged = moves == moves_before
    return ExchangeRun(np.array(slots), passes, moves, full_scans, converged, cols)


def _halves(grid_n: int, m: int) -> bool:
    """Whether a coarse-to-fine solve of m atoms on grid_n slots first solves
    the halved grid."""
    return (grid_n + 1) // 2 >= _COARSE_SLOTS * m


def _coarse_to_fine(phi_grid, g_inf, m, field_coeff, seed) -> ExchangeRun:
    """The exchange run on the full grid, started from the run on the halved
    grid (every other slot, solved the same way) while that grid keeps at
    least _COARSE_SLOTS * m slots; coarse slot k starts fine slot 2k.

    Only the full-grid run decides convergence; a coarse run is a start, and
    its columns are freed before the next level allocates its own.
    """
    start = None
    if _halves(phi_grid.size, m):
        start = 2 * _coarse_to_fine(np.ascontiguousarray(phi_grid[::2]),
                                    np.ascontiguousarray(g_inf[::2]),
                                    m, field_coeff, seed).chosen
    return _exchange_maximize(phi_grid, g_inf, m, field_coeff, seed, start=start)


def _density_cdf(c: Condenser, theta: float, params: np.ndarray):
    """(k0, cdf) of the exact equilibrium lambda_theta of a disk plate inside a
    circle on the curve grid, for theta <= theta*; None for other pairs and
    above theta*.

    Scaled to the unit plate and rotated so the circle's centre lies on the
    positive real axis, the circle meets that axis at x1 < -1 < 1 < x2.  The
    Moebius map w = (z - a)/(1 - a z), a the root in (-1, 1) of
    q a^2 - 2p a + q with p = 1 + x1 x2 and q = x1 + x2, keeps the unit
    circle and takes the circle to |w| = R.  While the support is the whole
    curve, lambda_theta = omega_inf - theta nu: omega_inf (the harmonic
    measure of infinity) is uniform in the grid parameter t, nu (the
    condenser measure) uniform in s = arg w.  That holds up to
    theta* = (1 - r)/(1 + r), r = R |a|.  Slot k0 is the one nearest the
    density peak, the point of the circle farthest from the plate centre
    (parameter 0 for a concentric pair), and cdf[j] = lambda_theta of the
    arc from t0 = params[k0] to params[k0 + j] over 1 - theta:
    ((t - t0) - theta (s - s0)) / (2 pi (1 - theta)).
    """
    e, gamma = c.e_domain, c.gamma
    if e.kind != "disk" or gamma.kind != "circle":
        return None
    centre = (gamma.center - e.center) / e.radius
    d, rot, rad = abs(centre), float(np.angle(centre)), gamma.radius / e.radius
    x1, x2 = d - rad, d + rad
    p, q = 1.0 + x1 * x2, x1 + x2
    # the roots multiply to 1 and p < 0, so this is the one inside (-1, 1)
    a = q / (p - np.sqrt((1.0 - x1 * x1) * (1.0 - x2 * x2)))
    r = abs((x2 - a) / (1.0 - a * x2) * a)
    if theta > (1.0 - r) / (1.0 + r):
        return None
    k0 = int(np.rint(rot / TWO_PI * params.size)) % params.size
    t = np.roll(params, -k0)
    z = d + rad * np.exp(1j * (t - rot))
    s = np.angle((z - a) / (1.0 - a * z))
    cdf = (np.mod(t - t[0], TWO_PI) - theta * np.mod(s - s[0], TWO_PI)) / (TWO_PI * (1.0 - theta))
    return k0, cdf


def _density_start(c: Condenser, theta: float, m: int, params: np.ndarray):
    """m distinct grid slots at the quantiles of _density_cdf, or None where
    it gives no density.

    Atom i goes to the slot nearest where the cdf reaches i/m, counted from
    the peak slot; a slot already taken bumps it forward (and the last atoms
    back from the end of the grid), so the slots are distinct.
    """
    found = _density_cdf(c, theta, params)
    if found is None:
        return None
    k0, cdf = found
    n, i = params.size, np.arange(m)
    j = np.rint(np.interp(i / m, np.append(cdf, 1.0), np.arange(n + 1))).astype(int)
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
    grid, with U^{lambda_n} as the field; each atom carries mass theta / m.

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
    u_ext = np.atleast_1d(log_potential(lambda_n, grid))
    return DiscreteMeasure(grid[_leja_indices(grid, m, u_ext, theta)], np.full(m, theta / m))


def _leja_indices(pts: np.ndarray, m: int, u_ext=0.0, theta: float = 1.0) -> list:
    """Indices of m greedy weighted Leja points of pts.

    Point j+1 maximizes sum_{i <= j} log|z - z_i| - (j / theta) u_ext(z); the
    first point maximizes -u_ext.  Ties go to the lowest index.  The default
    zero field gives plain Leja (greedy max-product) points.
    """
    if m == 0:
        return []
    chosen = [int(np.argmax(-u_ext))]
    acc = log_abs(pts - pts[chosen[0]])
    for j in range(1, m):
        idx = int(np.argmax(acc - (j / theta) * u_ext))
        chosen.append(idx)
        acc = acc + log_abs(pts - pts[idx])
    return chosen


# ---------------------------------------------------------------------------
# the curve field U_D^{lambda_n} - g(., inf)


def _grid_support_mask(grid_pts: np.ndarray, lam: DiscreteMeasure) -> np.ndarray:
    index = {z: i for i, z in enumerate(grid_pts.tolist())}
    mask = np.zeros(grid_pts.size, dtype=bool)
    if not lam.is_zero:
        for z in lam.points.tolist():
            i = index.get(z)
            if i is not None:
                mask[i] = True
    return mask


def gamma_field(c: Condenser, lam: DiscreteMeasure, grid_n: int = 4096):
    """(params, field values, support mask) of U_D^{lam} - g(., inf) on the curve grid.

    The independent reference for a Fekete stage's field: the rows g(., x_i)
    are rebuilt from the atoms with kernel_from_phi (in blocks of _ROW_BLOCK
    atoms) into an atoms x grid_n store, 0 at each atom's own grid slot, and
    the field is the same product as the stage's, w @ store - g(., inf).  The
    store holds len(lam) * grid_n floats (128 MiB at 1024 atoms on 16384
    slots).  Grid slots occupied by atoms of lam carry the field minimum over
    the free slots (the discrete potential is infinite there; the continuum
    field attains its minimum on the support).
    """
    samples, phi_g, g_inf = _curve_grid(c, grid_n)
    mask = _grid_support_mask(samples.points, lam)
    phi_atoms = phi_exterior(c.e_domain, lam.points)
    store = np.empty((len(lam), grid_n))
    for lo in range(0, len(lam), _ROW_BLOCK):
        rows = kernel_from_phi(phi_g[None, :], phi_atoms[lo:lo + _ROW_BLOCK, None])
        rows[np.isinf(rows)] = 0.0  # an atom's own slot, the only off-plate coincidence
        store[lo:lo + _ROW_BLOCK] = rows
    vals = lam.weights @ store - g_inf
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
    curve field and its support on the stage's curve grid (parameters and phi
    at the samples), with the full-grid exchange's counts, converged flag and
    start: "density", "coarse_to_fine", "greedy", or "none" at theta = 1."""

    lam: DiscreteMeasure
    m_energy: float
    m_field: float
    params: np.ndarray
    phi: np.ndarray
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

    The full-grid exchange starts at _density_start's slots where the exact
    density is known, and otherwise solves coarse to fine.  A single atom has
    no pair term, so it sits at the grid maximum of g(., inf).  Then
    u = w @ run.cols - g(., inf) over the run's own columns: the field route
    is the minimum of u over the free slots, the energy route the
    lambda_n-average of u at the atoms over 1 - theta.  The atom slots then
    carry the field minimum, as in gamma_field, and the support is the field
    within _support_tol of it.  theta = 1 runs no exchange, for any m.

    The record keeps no kernel columns: they are freed on return, before the
    Leja stage or the next theta allocates its own.
    """
    if theta >= 1.0 - _ENDPOINT_TOL:
        # theta = 1 leaves the field -g(., inf), whose minimum is -max g(., inf)
        samples, phi_g, g_inf = _curve_grid(c, grid_n)
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
        slots = None if m == 1 else _density_start(c, theta, m, samples.params)
        if m == 1:
            idx = int(np.argmax(g_inf))
            cols = np.empty((1, grid_n))
            _column_fill(phi_g)(idx, cols[0])
            run, start = ExchangeRun(np.array([idx]), 0, 0, 0, True, cols), "greedy"
        elif slots is not None:
            run, start = _exchange_maximize(phi_g, g_inf, m, coeff, seed, start=slots), "density"
        else:
            run = _coarse_to_fine(phi_g, g_inf, m, coeff, seed)
            start = "coarse_to_fine" if _halves(grid_n, m) else "greedy"
        _warn_unconverged(run, m, grid_n)
        lam = DiscreteMeasure(samples.points[run.chosen], np.full(m, (1.0 - theta) / m))
        vals = lam.weights @ run.cols - g_inf
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
    return ThetaStage(lam, m_energy, m_field, samples.params, phi_g, vals, field_min, support,
                      *counts)


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


def condenser_capacity(c: Condenser, m: int = 256, grid_n: int = 4096,
                       seed: int = 0) -> float:
    """Condenser (Green) capacity of the curve against the plate.

    A circle or ellipse takes spectral_capacity's Nystrom solve, exact to
    rounding; m, grid_n and seed are ignored there.  A polar curve is only
    piecewise smooth, and takes _capacity's two-level fit of m and m/2
    equal atoms on the grid_n-slot curve grid (seed orders the exchange),
    good to about 1e-3 with a few hundred points.
    """
    return _curve_capacity(c, m, grid_n, seed).cap


def _curve_capacity(c: Condenser, m: int, grid_n: int, seed: int) -> CapacitySolve:
    """condenser_capacity with its solve's converged flag."""
    if c.gamma.kind == "polar":
        return _capacity(_curve_grid(c, grid_n)[1], m, seed)
    return spectral_capacity(c)


def _support_capacity(c: Condenser, stage: ThetaStage, seed: int) -> CapacitySolve:
    """Capacity of a stage's support short of the whole curve.  On a circle
    or ellipse each run of support slots is the parameter arc from half a
    slot before its first slot to half a slot after its last; a polar curve
    fits the capacity on the stage's phi at the support slots."""
    if c.gamma.kind == "polar":
        return _capacity(stage.phi[stage.support], 256, seed)
    runs = _slot_runs(stage.support)
    if not runs:
        # only a NaN field leaves no slot within tol of its minimum
        return CapacitySolve(float("nan"), False)
    n = stage.support.size
    step = TWO_PI / n
    return spectral_capacity(c, [(stage.params[a] - 0.5 * step, ((b - a) % n + 1) * step)
                                 for a, b in runs])


def _capacity(phi_g: np.ndarray, m: int, seed: int) -> CapacitySolve:
    """The two-level capacity fit on the curve slots given by phi there: the
    whole curve grid, or a sweep's support mask of it.

    Minimizes the pure pairwise Green energy of m1 = min(m, slots // 16) and
    m1 // 2 equal atoms on the slots and removes the leading (log m + b)/m
    defect of the diagonal-excluded sum by fitting it through both levels.
    It has converged when both levels' exchanges have."""
    if m < 8:
        raise ValueError("condenser_capacity needs m >= 8")
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
    minimizing the sum on the slots, from the run's own columns; they are
    freed on return, before the next level allocates its own."""
    run = _coarse_to_fine(phi_g, g_inf, m, 0.0, seed)
    _warn_unconverged(run, m, phi_g.size)
    w = np.full(m, 1.0 / m)
    return float(w @ (w @ run.cols)[run.chosen]), run.converged


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

    cap_full = _curve_capacity(c, 256, grid_n, seed)
    m_e_list, m_f_list, m_hat_list, caps, arcs_list, converged = [], [], [], [], [], []
    for theta in thetas:
        stage = _theta_stage(c, theta, n_points, grid_n, seed)
        cap_tau = cap_full if stage.support.all() else _support_capacity(c, stage, seed)

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
