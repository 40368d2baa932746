"""Spectral condenser capacities, on every curve kind, and the weighted
equilibrium on the whole curve.

The condenser capacity of a compact part S of the curve against the plate is
1/V, where the unit measure nu on S has constant Green potential
V = int g(., s) dnu(s) on S.  The kernel g(z(t), z(s)) of the curve's
parameterization splits into a logarithmic singularity and a remainder, and
each part gets the quadrature that converges spectrally for it where the
remainder is smooth:

  closed curve (Nystrom; R. Kress, Linear Integral Equations, 3rd ed.,
  2014, Sec. 12.3):  the density at N equispaced parameters.  The singular
                part -log|2 sin((t - s)/2)| = sum_k cos(k (t - s)) / k is
                integrated exactly against the trigonometric interpolant,
                a circulant whose Fourier multipliers are pi/|k| (0 at
                k = 0).  The smooth part
                  log|2 sin((t - s)/2)| - log|phi_t - phi_s| + log|1 - phi_t conj(phi_s)|,
                with -log|d phi/dt| + log(|phi|^2 - 1) on the diagonal, is
                summed by the trapezoid rule.
  parameter arcs (Chebyshev collocation; S. Olver, "Computation of
  equilibrium measures", J. Approx. Theory 163, 2011):  on the arc
                t = c + h y, y in [-1, 1], the density is f(y) / (pi sqrt(1 - y^2))
                with f at the n Gauss-Chebyshev nodes.  The singular part
                -log|x - y| is integrated exactly through its Chebyshev
                moments (T_k(x) / k for k >= 1, log 2 for k = 0); the smooth
                part g + log|x - y|, with -log|h d phi/dt| + log(|phi|^2 - 1)
                on the diagonal, and the kernel between different arcs take
                the Gauss-Chebyshev rule.

Either way the system A f = 1, collocated at the nodes, is the
unit-mass system rescaled: f / mass(f) has potential 1 / mass(f), so the
capacity is the mass of f.  |d phi/dt| is the curve's velocity times phi'
(1/r on a disk, 4 phi^2 / ((b - a)(phi^2 - 1)) on a segment).  A polar
curve's velocity jumps at its table angles, so its capacity converges only
algebraically.

The weighted equilibrium lambda_theta (mass 1 - theta; Saff and Totik, 1997,
Ch. IV) takes the closed curve's Nystrom matrix on _EQ_NODES parameters and
a primal active set for its support, as in Olver (2011).

Node counts double, from _FIRST_NODES per arc (twice that on the closed
curve), until the capacity moves by at most _REL_TOL relative; a solve whose
next doubling would pass _MAX_UNKNOWNS keeps its last value and reports
converged = False; a support of more than _MAX_UNKNOWNS / _FIRST_NODES
arcs gets a single solve, below _FIRST_NODES nodes per arc.  The budget
bounds memory: the LU solve copies the matrix and works in BLAS buffers
besides, so a solve holds a few times the matrix's 2 MiB.  The kernel part
of the matrix is geometry.green_matrix over the nodes, scaled in place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GeometryValidationError
from .geometry import Condenser, green_matrix, green_pole_infinity, phi_exterior

_FIRST_NODES = 16     # Chebyshev nodes per arc of the first solve
_MAX_UNKNOWNS = 512   # the largest solve: a 2 MiB matrix, which the LU copies once more
_REL_TOL = 1e-9       # relative change of the capacity between doublings
_EQ_NODES = 128       # equispaced nodes of the weighted-equilibrium solve
_FIELD_SLACK = 1e-12  # how far below m the field must fall to add a free node back


class CapacitySolve(NamedTuple):
    """A capacity and whether its solve settled: False when the node
    doubling reached the unknown budget first, the usual outcome on a polar
    curve, whose corners make the convergence algebraic."""

    cap: float
    converged: bool


def _nodes(c: Condenser, t: np.ndarray):
    """(phi, log|d phi/dt| - log(|phi|^2 - 1)) at the curve parameters t."""
    phi = phi_exterior(c.e_domain, c.gamma.point(t))
    e = c.e_domain
    if e.kind == "disk":
        dphi_dz = np.full(phi.shape, 1.0 / e.radius)
    else:
        dphi_dz = 4.0 * phi * phi / ((e.b - e.a) * (phi * phi - 1.0))
    speed = np.abs(dphi_dz * c.gamma.velocity(t))
    return phi, np.log(speed) - np.log(np.abs(phi) ** 2 - 1.0)


def _solution_mass(a: np.ndarray) -> float:
    """The sum of the solution of a f = 1; NaN where the kernel overflowed
    (a curve or plate whose |phi|^2 leaves the float range)."""
    if not np.isfinite(a.sum()):
        return float("nan")
    return float(np.sum(np.linalg.solve(a, np.ones(a.shape[0]))))


def _closed_matrix(c: Condenser, n: int) -> np.ndarray:
    """The Nystrom matrix of the whole curve on n equispaced parameters:
    (a s)_i is the Green potential at node i of the density s per unit
    parameter, whose mass is h sum s with h = 2 pi / n."""
    t = 2.0 * np.pi * np.arange(n) / n
    phi, diag = _nodes(c, t)
    h = 2.0 * np.pi / n
    k = np.minimum(np.arange(n), n - np.arange(n))
    multipliers = np.where(k > 0, np.pi / np.maximum(k, 1), 0.0)
    with np.errstate(divide="ignore"):
        log_sine = np.log(np.abs(2.0 * np.sin(np.pi * np.arange(n) / n)))
    log_sine[0] = 0.0
    # the circulant's first column: exact singular weights plus h log|2 sin|
    circ = np.fft.ifft(multipliers).real + h * log_sine
    a = green_matrix(phi, phi)
    a *= h
    a += circ[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    a[np.diag_indices(n)] -= h * diag
    return a


def _closed_solve(c: Condenser, n: int) -> float:
    """Nystrom capacity of the whole curve on n equispaced parameters."""
    return 2.0 * np.pi / n * _solution_mass(_closed_matrix(c, n))


def spectral_equilibrium(c: Condenser, theta: float):
    """(density, m) of lambda_theta: its density per unit parameter at the
    _EQ_NODES equispaced parameters, 0 off the support, and its constant m.

    Solve A s - m = g(., inf) on the active nodes with h sum s = 1 - theta,
    drop the nodes where s < 0 and add back the free nodes where the field
    A s - g(., inf) falls below m, until neither happens.  Some node keeps
    s > 0, as the mass is positive: as theta -> 1 the set shrinks onto the
    largest g(., inf).  A non-finite solution raises GeometryValidationError.
    """
    n, h = _EQ_NODES, 2.0 * np.pi / _EQ_NODES
    a = _closed_matrix(c, n)
    g = green_pole_infinity(c.e_domain, c.gamma.point(h * np.arange(n)))
    active = np.ones(n, dtype=bool)
    for _ in range(n):
        idx = np.flatnonzero(active)
        system = np.zeros((idx.size + 1, idx.size + 1))
        system[:-1, :-1], system[:-1, -1], system[-1, :-1] = a[np.ix_(idx, idx)], -1.0, h
        sol = np.linalg.solve(system, np.append(g[idx], 1.0 - theta))
        if not np.all(np.isfinite(sol)):
            raise GeometryValidationError("the weighted-equilibrium density is not finite")
        s, m = np.zeros(n), float(sol[-1])
        s[idx] = sol[:-1]
        low = ~active & (a @ s - g < m - _FIELD_SLACK)
        if np.all(s >= 0) and not low.any():
            break
        active = (s > 0) | low
    return s, m


def _arcs_solve(c: Condenser, arcs, n: int) -> float:
    """Chebyshev collocation capacity of the parameter arcs (start, length),
    n Gauss-Chebyshev nodes on each."""
    angles = (2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n)
    y = np.cos(angles)
    k = np.arange(1, n)
    cheb = np.cos(np.outer(k, angles))  # T_k at the nodes
    # exact moments of -log|x - y| against the Chebyshev interpolant, over n
    moments = (np.log(2.0) + 2.0 * (cheb.T / k) @ cheb) / n
    with np.errstate(divide="ignore"):
        log_gap = np.log(np.abs(np.subtract.outer(y, y)))
    np.fill_diagonal(log_gap, 0.0)
    halves = [0.5 * length for _, length in arcs]
    t = np.concatenate([start + h * (1.0 + y) for (start, _), h in zip(arcs, halves)])
    phi, diag = _nodes(c, t)
    a = green_matrix(phi, phi)
    a *= 1.0 / n
    for p, h in enumerate(halves):
        block = slice(p * n, (p + 1) * n)
        a[block, block] += moments + log_gap / n
        a[block, block][np.diag_indices(n)] -= (diag[block] + np.log(h)) / n
    return _solution_mass(a) / n


def spectral_capacity(c: Condenser, arcs=None) -> CapacitySolve:
    """Condenser capacity of the whole curve (arcs None), or of its parameter
    arcs (start, length), against the plate."""
    def solve(nodes):
        return _closed_solve(c, nodes) if arcs is None else _arcs_solve(c, arcs, nodes)

    if arcs is None:
        n, per = 2 * _FIRST_NODES, 1
    else:
        per = len(arcs)
        n = max(1, min(_FIRST_NODES, _MAX_UNKNOWNS // per))
    cap = solve(n)
    while 2 * n * per <= _MAX_UNKNOWNS:
        n *= 2
        last, cap = cap, solve(n)
        if abs(cap - last) <= _REL_TOL * abs(cap):
            return CapacitySolve(cap, True)
    return CapacitySolve(cap, False)
