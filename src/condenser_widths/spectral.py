"""Spectral condenser capacities on smooth curves.

The condenser capacity of a compact part S of the curve against the plate is
1/V, where the unit measure nu on S has constant Green potential
V = int g(., s) dnu(s) on S.  On a circle or ellipse the kernel
g(z(t), z(s)) of the curve's parameterization splits into a logarithmic
singularity and a smooth remainder, and each part gets the quadrature that
converges spectrally for it:

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
capacity is the mass of f.  |d phi/dt| is the curve's analytic velocity
times phi' (1/r on a disk, 4 phi^2 / ((b - a)(phi^2 - 1)) on a segment).

Node counts double, from _FIRST_NODES per arc (twice that on the closed
curve), until the capacity moves by at most _REL_TOL relative; a solve whose
next doubling would pass _MAX_UNKNOWNS keeps its last value and reports
converged = False; a support of more than _MAX_UNKNOWNS / _FIRST_NODES
arcs gets a single solve, below _FIRST_NODES nodes per arc.  The budget
bounds memory: the LU solve copies the matrix and works in BLAS buffers
besides, so a solve holds a few times the matrix's 2 MiB, no more than the
two-level fit's kernel columns.  The matrix is assembled _ROW_BLOCK rows at
a time, so no kernel temporary outgrows a row block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import Condenser, kernel_from_phi, phi_exterior

_FIRST_NODES = 16     # Chebyshev nodes per arc of the first solve
_MAX_UNKNOWNS = 512   # the largest solve: a 2 MiB matrix, which the LU copies once more
_REL_TOL = 1e-9       # relative change of the capacity between doublings
_ROW_BLOCK = 128      # matrix rows whose kernel is built at a time


class CapacitySolve(NamedTuple):
    """A capacity and whether its solve settled: for spectral_capacity,
    False when the node doubling reached the unknown budget first; for the
    two-level fit of a polar curve, whether both exchange runs converged."""

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


def _kernel_matrix(phi: np.ndarray, scale: float) -> np.ndarray:
    """scale * g(z_i, z_j) over all node pairs, 0 on the diagonal."""
    a = np.empty((phi.size, phi.size))
    for lo in range(0, phi.size, _ROW_BLOCK):
        rows = a[lo:lo + _ROW_BLOCK]
        rows[:] = kernel_from_phi(phi[lo:lo + _ROW_BLOCK, None], phi[None, :])
        np.fill_diagonal(rows[:, lo:], 0.0)
        rows *= scale
    return a


def _solution_mass(a: np.ndarray) -> float:
    """The sum of the solution of a f = 1; NaN where the kernel overflowed
    (a curve or plate whose |phi|^2 leaves the float range)."""
    if not np.isfinite(a.sum()):
        return float("nan")
    return float(np.sum(np.linalg.solve(a, np.ones(a.shape[0]))))


def _closed_solve(c: Condenser, n: int) -> float:
    """Nystrom capacity of the whole curve on n equispaced parameters."""
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
    a = _kernel_matrix(phi, h)
    a += circ[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    a[np.diag_indices(n)] -= h * diag
    return h * _solution_mass(a)


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
    a = _kernel_matrix(phi, 1.0 / n)
    for p, h in enumerate(halves):
        block = slice(p * n, (p + 1) * n)
        a[block, block] += moments + log_gap / n
        a[block, block][np.diag_indices(n)] -= (diag[block] + np.log(h)) / n
    return _solution_mass(a) / n


def spectral_capacity(c: Condenser, arcs=None) -> CapacitySolve:
    """Condenser capacity of the whole curve (arcs None), or of the parameter
    arcs (start, length) of a circle or ellipse curve, against the plate."""
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
