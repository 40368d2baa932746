"""Discrete measures, logarithmic and Green potentials, energies, and the
minimax functional M(sigma) = min over the curve of U^sigma minus min over the
plate of U^sigma.  to_json is the one output format of every result record."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import parallel
from .errors import CoincidentPole, EmptyMeasure, InvalidArgument, MassMismatch
from .geometry import (Condenser, EDomain, boundary_samples, green_matrix,
                       green_pole_infinity, interior_spots, kernel_from_phi, phi_exterior,
                       sample_curve)

# distance clamp under the log; prevents -inf without disturbing any tested digit
LOG_CLAMP = 1e-300
_CHUNK_ENTRIES = 2 ** 16  # points x atoms entries of one potential-scan chunk
_SPOTS = 64  # interior spot checks in the plate's scan set


def log_abs(diff):
    """log|diff| with the LOG_CLAMP distance clamp."""
    return np.log(np.maximum(np.abs(diff), LOG_CLAMP))


class DiscreteMeasure:
    """A finite positive measure given by weighted atoms.

    Exact duplicate atoms are merged at construction (weights summed, first
    occurrence keeps its slot).  The zero measure (no atoms) is legal.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        pts = np.asarray(points, dtype=complex).ravel()
        wts = np.asarray(weights, dtype=float).ravel()
        if pts.shape != wts.shape:
            raise InvalidArgument("points and weights must have the same length")
        if pts.size and (not np.all(np.isfinite(wts)) or not np.all(np.isfinite(pts.view(float)))):
            raise InvalidArgument("points and weights must be finite")
        if np.any(wts <= 0):
            raise InvalidArgument("weights must be positive")
        if pts.size:
            merged: dict[complex, float] = {}
            for p, w in zip(pts.tolist(), wts.tolist()):
                merged[p] = merged.get(p, 0.0) + w
            pts = np.array(list(merged.keys()), dtype=complex)
            wts = np.array(list(merged.values()), dtype=float)
        self.points = pts
        self.weights = wts

    @staticmethod
    def zero() -> "DiscreteMeasure":
        return DiscreteMeasure(np.empty(0, dtype=complex), np.empty(0))

    @staticmethod
    def atom(point: complex, weight: float = 1.0) -> "DiscreteMeasure":
        return DiscreteMeasure([point], [weight])

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def is_zero(self) -> bool:
        return self.points.size == 0

    def __len__(self) -> int:
        return int(self.points.size)

    def scaled(self, c: float) -> "DiscreteMeasure":
        if self.is_zero:
            return DiscreteMeasure.zero()
        return DiscreteMeasure(self.points, c * self.weights)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return DiscreteMeasure(np.concatenate([self.points, other.points]),
                               np.concatenate([self.weights, other.weights]))

    def to_json_dict(self):
        return {"points": to_json(self.points.tolist()), "weights": self.weights.tolist()}

    @staticmethod
    def from_json_dict(d) -> "DiscreteMeasure":
        pts = [complex(re, im) for re, im in d["points"]]
        return DiscreteMeasure(pts, d["weights"])


def to_json(obj):
    """JSON-ready form of a result record: a dataclass maps each of its fields,
    a complex number becomes [re, im], a list or tuple a list, a dict a dict,
    and an object with its own to_json_dict (a measure, a condenser) uses it."""
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class FieldGrid:
    """Values of a scalar field on a list of grid points."""

    grid_points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.grid_points) != np.shape(self.values):
            raise InvalidArgument("grid_points and values must have the same length")


# ---------------------------------------------------------------------------
# potentials


def _row_scan(mu: DiscreteMeasure, z, make_block):
    """Row sums of a points x atoms kernel over the atoms of mu, at z: the
    zero measure gives 0, a scalar z a float, and an array z an array of its
    shape (the points are scanned raveled).  make_block(zs, rows, out)
    returns block(lo, hi), which writes the sums at zs[lo:hi] to out[lo:hi],
    for chunks of at most rows points: about _CHUNK_ENTRIES entries and at
    least one row, so a chunk stays in cache.  A row sum does not depend on its
    chunk, so neither does a value.
    """
    if mu.is_zero:
        return 0.0 if np.ndim(z) == 0 else np.zeros(np.shape(z))
    zs = np.ravel(np.asarray(z, dtype=complex))
    out = np.empty(zs.shape)
    rows = max(1, min(_CHUNK_ENTRIES // len(mu), zs.size))
    parallel.run_chunked(make_block(zs, rows, out), zs.size, chunk=rows)
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def log_potential(mu: DiscreteMeasure, z):
    """U^mu(z) = -sum_i w_i log|z - x_i|, with a 1e-300 distance clamp."""
    def make_block(zs, rows, out):
        # one pair of chunk buffers per call: fresh megabyte temporaries per chunk
        # made the allocator hand pages back and fault them in again every chunk
        diff, mag = np.empty((rows, len(mu)), dtype=complex), np.empty((rows, len(mu)))

        def block(lo, hi):
            d, a = diff[:hi - lo], mag[:hi - lo]
            np.subtract(zs[lo:hi, None], mu.points[None, :], out=d)
            # log_abs, then the weights, in place
            np.abs(d, out=a)
            np.maximum(a, LOG_CLAMP, out=a)
            np.log(a, out=a)
            np.multiply(mu.weights, a, out=a)
            out[lo:hi] = -np.sum(a, axis=1)

        return block

    return _row_scan(mu, z, make_block)


def green_potential(mu: DiscreteMeasure, e: EDomain, z):
    """Green potential sum_i w_i g(z, x_i); zero on E, nonnegative on D.

    Raises CoincidentPole when z coincides with a support atom outside E.
    """
    def make_block(zs, rows, out):
        pz, pt = phi_exterior(e, zs), phi_exterior(e, mu.points)

        def block(lo, hi):
            k = kernel_from_phi(pz[lo:hi, None], pt[None, :])
            if np.any(np.isinf(k)):
                raise CoincidentPole("green_potential evaluated at a support atom")
            out[lo:hi] = np.sum(mu.weights * k, axis=1)

        return block

    return _row_scan(mu, z, make_block)


def nearest_atom_distance(mu: DiscreteMeasure, z):
    """min_i |z - x_i|, the distance from z to the nearest atom of mu, in
    _row_scan's chunks, so no points x atoms matrix is built; the zero
    measure gives 0."""
    def make_block(zs, rows, out):
        def block(lo, hi):
            out[lo:hi] = np.min(np.abs(zs[lo:hi, None] - mu.points[None, :]), axis=1)

        return block

    return _row_scan(mu, z, make_block)


# ---------------------------------------------------------------------------
# energies


def _check_mass(total: float, required: float):
    if abs(total - required) > 1e-9:
        raise MassMismatch(f"measure mass {total!r} does not match required {required!r}")


def energy_J(lam: DiscreteMeasure, e: EDomain, theta: float) -> float:
    """Discrete weighted Green energy

        J(lam) = sum_{i != j} w_i w_j g(x_i, x_j) - 2 sum_i w_i g(x_i, inf).

    The diagonal is excluded (point atoms have infinite self-energy).  The mass
    of lam must equal 1 - theta; theta = 1 pairs with the zero measure.
    """
    _check_mass(lam.total_mass, 1.0 - theta)
    if lam.is_zero:
        return 0.0
    pair = green_pair_energy(phi_exterior(e, lam.points), lam.weights)
    g_inf = green_pole_infinity(e, lam.points)
    return pair - 2.0 * float(np.sum(lam.weights * g_inf))


def green_pair_energy(phi_pts, weights) -> float:
    """sum_{i != j} w_i w_j g(x_i, x_j) from phi at the atoms, diagonal excluded.

    geometry.green_matrix gives the atoms x atoms kernel with a zero diagonal;
    it and its fill's scratch hold two atoms x atoms arrays (8 MiB each at
    1024 atoms).
    """
    return float(weights @ (green_matrix(phi_pts) @ weights))


def energy_I(mu: DiscreteMeasure, lambda_theta: DiscreteMeasure, theta: float) -> float:
    """Discrete logarithmic energy with the external field of lambda_theta:

        I(mu) = -sum_{i != j} w_i w_j log|x_i - x_j| + 2 sum_i w_i U^lambda(x_i).
    """
    _check_mass(mu.total_mass, theta)
    if mu.is_zero:
        return 0.0
    logd = log_abs(mu.points[:, None] - mu.points[None, :])
    np.fill_diagonal(logd, 0.0)
    pair = -float(mu.weights @ logd @ mu.weights)
    ext = log_potential(lambda_theta, mu.points)
    return pair + 2.0 * float(np.sum(mu.weights * np.atleast_1d(ext)))


# ---------------------------------------------------------------------------
# minimax functional


def minimax_scan_sets(c: Condenser, grid_n: int = 4096):
    """Evaluation sets used by M and by polynomial norm ratios.

    Returns (curve samples, plate samples), grid_n of each, where the plate
    set is the boundary grid plus _SPOTS interior spot checks.  Both
    M_functional and the norm-ratio evaluation scan exactly these sets, which
    keeps the two sides of the log-norm identity in exact agreement.
    """
    gamma_pts = sample_curve(c.gamma, grid_n).points
    e_pts = boundary_samples(c.e_domain, grid_n)
    sp = interior_spots(c.e_domain, _SPOTS)
    if sp.size:
        e_pts = np.concatenate([e_pts, sp])
    return gamma_pts, e_pts


def M_functional(sigma: DiscreteMeasure, c: Condenser, grid_n: int = 4096) -> float:
    """M(sigma) = min over curve samples of U^sigma - min over plate samples.

    U^sigma is superharmonic, so its minimum over the plate sits on the
    boundary; the interior spot checks in the plate set only guard against
    implementation bugs.
    """
    if sigma.is_zero:
        raise EmptyMeasure("M is undefined for the zero measure")
    gamma_pts, e_pts = minimax_scan_sets(c, grid_n)
    u_gamma = log_potential(sigma, gamma_pts)
    u_e = log_potential(sigma, e_pts)
    return float(np.min(u_gamma) - np.min(u_e))
