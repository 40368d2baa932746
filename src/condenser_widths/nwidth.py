"""Rate predictors for the polynomial-class width problem, wired to the chi
machinery as the computable lower-bound handle.

Direct computation of optimal approximating subspaces is out of scope; the
module reports the theta-rate (the curve constant), the small-theta rate
(minus the reciprocal condenser capacity), and chi-based lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import _ENDPOINT_TOL, ThetaStage, m_theta
from .errors import GridTooClose
from .extremal import _SCAN_CAP, chi_estimate
from .geometry import Condenser, green_pole_infinity
from .measure import DiscreteMeasure, FieldGrid, green_potential
from .spectral import spectral_capacity


@dataclass(frozen=True)
class WidthReport:
    """Predicted n-th root rate, the small-theta rate, and chi lower bounds."""

    theta: float
    predicted_rate: float       # the curve constant at theta (field route)
    widom_rate: float           # -1 / cp(E, Gamma), the per-k rate as theta -> 0
    chi_lower_bounds: list      # (n, k, (1/n) log chi_lower) triples; descent
                                # estimates of lower bounds, not certified
    normalization: str = "per-n"


def width_rate_predict(c: Condenser, theta: float, n_points: int = 256,
                       grid_n: int = 4096, seed: int = 0,
                       stage: ThetaStage | None = None) -> WidthReport:
    """Rate report at one theta.

    predicted_rate is the field-route curve constant; at theta = 0 the
    meaningful statement is per-k, so the report is flagged accordingly and
    the headline number is the widom_rate.  A caller that already ran the
    Fekete stage at (theta, n_points, grid_n, seed) passes it as stage, and
    its constant is used instead of a second stage.
    """
    if stage is None:
        _, m_field = m_theta(c, theta, n_points, grid_n, seed)
    else:
        m_field = stage.m_field
    cap = spectral_capacity(c).cap
    normalization = "per-k for theta=0" if theta <= _ENDPOINT_TOL else "per-n"
    return WidthReport(theta=float(theta), predicted_rate=m_field,
                       widom_rate=-1.0 / cap, chi_lower_bounds=[],
                       normalization=normalization)


def width_lower_bound(c: Condenser, n: int, k: int, grid_n: int = _SCAN_CAP,
                      seed: int = 0) -> float:
    """chi_lower of chi_estimate's "auto" method at (n, k), a lower bound for
    the width: any q gives inf over p of the norm ratio <= chi <= width.  It
    is a descent estimate, not a certified bound: a descent over p can stop
    above the infimum over p."""
    return chi_estimate(c, n, k, grid_n=grid_n, seed=seed).chi_lower


def g_theta_field(c: Condenser, lambda_n: DiscreteMeasure, grid) -> FieldGrid:
    """Values of U_D^{lambda_n} - g(., inf) on a caller grid.

    Thresholding the values at the curve constant draws the level region used
    by the width theorems.  The grid must stay 1e-3 away from the atoms.
    """
    pts = np.asarray(grid, dtype=complex).ravel()
    if not lambda_n.is_zero and pts.size:
        d = np.min(np.abs(pts[:, None] - lambda_n.points[None, :]), axis=1)
        if np.min(d) < 1e-3:
            raise GridTooClose("field grid comes within 1e-3 of the measure support")
    vals = green_potential(lambda_n, c.e_domain, pts) - green_pole_infinity(c.e_domain, pts)
    return FieldGrid(grid_points=pts, values=vals)
