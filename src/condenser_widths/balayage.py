"""Sweeping measures onto circular boundaries with exact Poisson-kernel cell
masses, plus the polynomial counting measures built from swept parts.

For a point b relative to the unit circle, the harmonic-measure density on the
circle is (1 - |a|^2) / (2 pi |e^{it} - a|^2) with a = b for an interior point
and a = 1 / conj(b) for an exterior one (the two kernels coincide under that
substitution).  Its antiderivative is closed form,

    psi(t) = t + 2 Im log(1 - a e^{-it}),

so cell masses are exact and total mass is preserved to roundoff.

A measure sum_j w_j delta_{b_j} is swept in one pass.  The cell edges and
their rotations e^{-it} are the same for every atom, and differencing is
linear, so with W = sum_j w_j and s_j = w_j / W

    sum_j w_j diff(psi_j) = W diff(t + 2 A(t)),  A(t) = sum_j s_j arg(1 - a_j e^{-it}).

With rho = max_j |a_j| < 1, log(1 - x) = -sum_k x^k / k gives the Fourier
series of the Poisson kernel's antiderivative,

    A(t) = -Im sum_{k >= 1} (c_k / k) e^{-ikt},  c_k = sum_j s_j a_j^k,

whose tail past K terms is at most rho^(K+1) / ((K+1)(1 - rho)).  K is the
fewest terms that bring it below 2^-53 (geometry.series_terms).  The edges
t_m = h m - h/2, h = 2 pi / n, are equispaced, so A on edges 0..n-1 is the
length-n FFT of (c_k / k) e^{ikh/2}, k = 1..K, and edge n, one period on,
takes edge 0's value.  The c_k come from one atoms-length power vector,
multiplied by a once per term.

Where the series does not converge (rho >= 1, an atom on the circle) or is
no cheaper (K >= n), A comes directly: one (block x cells) arctan2 and one
matrix-vector product per fixed block of atoms, with buffers allocated once
per sweep.  There a single atom reproduces the one-atom formula bit for bit,
and several atoms agree with the atom-by-atom sum up to the order of the
additions.  On either path the masses sum to W up to roundoff.

Cell masses being exact, the only approximation is representing each cell by
an atom at its center.  Potentials of the swept measure are good to about
1e-6 with 4096 cells when sources keep distance >= 0.1 from the target
boundary and evaluation points stay a few cells away from it; the error grows
roughly like 1/cells as sources (or evaluation points) approach the boundary
layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCurve, UnsupportedDomain
from .geometry import (Condenser, CurveSpec, EDomain, TWO_PI, green_exterior_gamma,
                       green_pole_infinity, sample_curve, series_terms)
from .measure import DiscreteMeasure

_SWEEP_BLOCK = 16  # atoms per block of the sweep; buffers of 24 B x block x (cells + 1)


@dataclass(frozen=True)
class BalayageResult:
    """Swept measure on a boundary grid plus the Green-mass shift constant."""

    swept: DiscreteMeasure
    shift_constant: float


def _sweep_to_circle(points, weights, center: complex, radius: float, grid_n: int):
    """Sweep atoms (all off the circle) onto cell centers of the circle grid.

    Cells are centered at angles 2 pi k / n.  With |a| < 1 the map
    1 - a e^{-it} stays in the right half plane, so the principal branch of
    the argument is smooth and the masses sum to the total weight up to
    roundoff.  The weighted angle sum comes from the power series where
    series_terms gives it terms, and from the blocked arctan2 otherwise.
    """
    total = float(np.sum(weights))
    share = weights / total
    b = (points - center) / radius
    a = b.copy()
    outside = np.abs(b) >= 1.0
    a[outside] = 1.0 / np.conj(b[outside])
    h = TWO_PI / grid_n
    edges = h * np.arange(grid_n + 1) - 0.5 * h
    terms = series_terms(float(np.max(np.abs(a))), grid_n)
    acc = (_angle_series(a, share, terms, h, grid_n) if terms
           else _angle_direct(a, share, edges))
    return total * (np.diff(edges + 2.0 * acc) / TWO_PI)


def _angle_series(a, share, terms: int, h: float, grid_n: int) -> np.ndarray:
    """sum_j share_j arg(1 - a_j e^{-it}) on the grid_n + 1 cell edges, from
    the first terms of its Fourier series and one FFT."""
    coef = np.zeros(grid_n, dtype=complex)
    pw = share.astype(complex)
    for k in range(1, terms + 1):
        pw *= a
        coef[k] = pw.sum()
    k = np.arange(1, terms + 1)
    coef[1:terms + 1] *= np.exp(0.5j * h * k) / k
    acc = -np.fft.fft(coef).imag
    return np.append(acc, acc[0])


def _angle_direct(a, share, edges) -> np.ndarray:
    """sum_j share_j arg(1 - a_j e^{-it}) at the edges, _SWEEP_BLOCK atoms at
    a time."""
    rot = np.exp(-1j * edges)
    block = min(_SWEEP_BLOCK, a.size)
    z = np.empty((block, edges.size), dtype=complex)
    ang = np.empty((block, edges.size))
    acc = np.zeros(edges.size)
    for lo in range(0, a.size, block):
        ab = a[lo:lo + block]
        zb, tb = z[:ab.size], ang[:ab.size]
        np.multiply(ab[:, None], rot, out=zb)
        np.subtract(1.0, zb, out=zb)
        np.arctan2(zb.imag, zb.real, out=tb)
        acc += share[lo:lo + block] @ tb
    return acc


def _sweep_part(points, weights, sweep, center: complex, radius: float,
                grid_n: int) -> DiscreteMeasure:
    """Atoms where sweep holds moved onto the circle grid (empty cells
    dropped); the other atoms pass through unchanged."""
    out = DiscreteMeasure.zero()
    if np.any(sweep):
        masses = _sweep_to_circle(points[sweep], weights[sweep], center, radius, grid_n)
        keep = masses > 0.0
        grid = sample_curve(CurveSpec.circle(center, radius), grid_n).points
        out = DiscreteMeasure(grid[keep], masses[keep])
    if np.any(~sweep):
        out = out + DiscreteMeasure(points[~sweep], weights[~sweep])
    return out


def _balayage_outside(nu: DiscreteMeasure, center: complex, radius: float, green,
                      grid_n: int) -> BalayageResult:
    """Sweep the atoms of nu outside the closed disk onto its boundary circle;
    the shift constant is sum of w * green(z0) over the swept atoms."""
    if nu.is_zero:
        return BalayageResult(DiscreteMeasure.zero(), 0.0)
    outside = np.abs(nu.points - center) / radius > 1.0 + 1e-12
    shift = float(np.sum(nu.weights[outside] * np.atleast_1d(green(nu.points[outside]))))
    return BalayageResult(_sweep_part(nu.points, nu.weights, outside, center, radius, grid_n),
                          shift)


def balayage_to_E(nu: DiscreteMeasure, e: EDomain, boundary_grid_n: int = 4096) -> BalayageResult:
    """Sweep the part of nu outside the plate onto the plate boundary grid.

    Atoms inside or on the plate pass through unchanged.  The shift constant
    accumulates w * g(z0, inf) over the swept atoms, so that
    U^{swept} = U^{nu} + shift on E.
    """
    if e.kind != "disk":
        raise UnsupportedDomain("balayage onto the plate is implemented for disk plates only")
    return _balayage_outside(nu, e.center, e.radius, lambda z: green_pole_infinity(e, z),
                             boundary_grid_n)


def balayage_to_gamma(nu: DiscreteMeasure, gamma: CurveSpec,
                      boundary_grid_n: int = 4096) -> BalayageResult:
    """Sweep the part of nu outside the closed curve region onto the curve grid.

    Atoms inside or on the curve pass through unchanged.  The shift constant
    accumulates w * g_ext(z0, inf) of the curve exterior, so that
    U^{swept} = U^{nu} + shift on the closed region bounded by the curve.
    """
    if gamma.kind != "circle":
        raise UnsupportedCurve("balayage onto the curve is implemented for circles only")
    return _balayage_outside(nu, gamma.center, gamma.radius,
                             lambda z: green_exterior_gamma(gamma, z), boundary_grid_n)


def _alpha_measure(p_zeros: np.ndarray, c: Condenser, n: int,
                   boundary_grid_n: int) -> DiscreteMeasure:
    """Zeros of p weighted 1/n with the strict plate interior swept onto its boundary."""
    if p_zeros.size == 0:
        return DiscreteMeasure.zero()
    weights = np.full(p_zeros.size, 1.0 / n)
    e = c.e_domain
    if e.kind != "disk":
        # a segment has empty planar interior: nothing to sweep
        return DiscreteMeasure(p_zeros, weights)
    inside = np.abs(p_zeros - e.center) / e.radius < 1.0 - 1e-12
    return _sweep_part(p_zeros, weights, inside, e.center, e.radius, boundary_grid_n)


def _beta_measure(q_zeros: np.ndarray, c: Condenser, n: int, k: int,
                  boundary_grid_n: int) -> DiscreteMeasure:
    """Zeros of q weighted 1/n, the part outside the closed curve region swept
    onto the curve, plus a uniform curve term for the missing degree."""
    defect = (n - k - q_zeros.size) / n
    if c.gamma.kind == "circle":
        beta = DiscreteMeasure.zero()
        if q_zeros.size:
            res = balayage_to_gamma(DiscreteMeasure(q_zeros, np.full(q_zeros.size, 1.0 / n)),
                                    c.gamma, boundary_grid_n)
            beta = res.swept
        if defect > 0:
            beta = beta + DiscreteMeasure(sample_curve(c.gamma, boundary_grid_n).points,
                                          np.full(boundary_grid_n, defect / boundary_grid_n))
        return beta
    if defect > 0 or not np.all(c.gamma.contains(q_zeros)):
        raise UnsupportedCurve(
            "beta needs balayage onto the curve or a uniform curve term; "
            "both are implemented for circles only")
    return (DiscreteMeasure(q_zeros, np.full(q_zeros.size, 1.0 / n))
            if q_zeros.size else DiscreteMeasure.zero())


def counting_alpha_beta(p_zeros, q_zeros, c: Condenser, n: int, k: int,
                        boundary_grid_n: int = 4096):
    """Counting measures (alpha, beta) of a polynomial pair, normalized by 1/n.

    alpha sweeps the part of the p zeros strictly inside the plate onto the
    plate boundary; beta sweeps the part of the q zeros outside the closed
    curve region onto the curve and adds a uniform curve term of mass
    (n - k - deg q) / n for the missing degree.
    """
    p_zeros = np.asarray(p_zeros, dtype=complex)
    q_zeros = np.asarray(q_zeros, dtype=complex)
    if p_zeros.size > k:
        raise ValueError(f"p has {p_zeros.size} zeros but degree bound k = {k}")
    if q_zeros.size > n - k:
        raise ValueError(f"q has {q_zeros.size} zeros but degree bound n - k = {n - k}")
    return (_alpha_measure(p_zeros, c, n, boundary_grid_n),
            _beta_measure(q_zeros, c, n, k, boundary_grid_n))

