"""Oracle for the blocked circle sweep: the original per-atom loop, kept
verbatim, must give the same cell masses up to the reordered sum, and a
single atom must give them bit for bit."""

import numpy as np
import pytest

from condenser_widths.balayage import _SWEEP_BLOCK, _sweep_to_circle
from condenser_widths.geometry import TWO_PI


def _cell_masses(a: complex, grid_n: int) -> np.ndarray:
    """Exact harmonic-measure masses of the grid cells seen from unit-disk point a.

    Cells are centered at angles 2 pi k / n.  With |a| < 1 the map
    1 - a e^{-it} stays in the right half plane, so the principal branch of
    the argument is smooth and the masses sum to 1 exactly up to roundoff.
    """
    h = TWO_PI / grid_n
    edges = h * np.arange(grid_n + 1) - 0.5 * h
    psi = edges + 2.0 * np.angle(1.0 - a * np.exp(-1j * edges))
    return np.diff(psi) / TWO_PI


def reference_sweep(points, weights, center: complex, radius: float, grid_n: int):
    """Sweep atoms (all off the circle) onto cell centers of the circle grid."""
    masses = np.zeros(grid_n)
    for z, w in zip(points, weights):
        b = (z - center) / radius
        a = b if abs(b) < 1.0 else 1.0 / np.conj(b)
        masses += w * _cell_masses(a, grid_n)
    return masses


CIRCLES = [(0j, 1.0), (0.7 - 1.3j, 2.5)]
GRIDS = [256, 1024, 4096]
COUNTS = [1, _SWEEP_BLOCK - 1, _SWEEP_BLOCK, _SWEEP_BLOCK + 1, 37]
# moduli relative to the circle: deep inside, near it on both sides, far outside
MODULI = np.array([0.0, 0.5, 0.999, 1.001, 3.0])


def _atoms(count, center, radius, seed):
    rng = np.random.default_rng(seed)
    r = MODULI[np.arange(count) % MODULI.size]
    pts = center + radius * r * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
    return pts, rng.uniform(0.1, 2.0, count)


@pytest.mark.parametrize("center,radius", CIRCLES)
@pytest.mark.parametrize("grid_n", GRIDS)
@pytest.mark.parametrize("count", COUNTS)
def test_blocked_sweep_matches_per_atom_loop(center, radius, grid_n, count):
    pts, wts = _atoms(count, center, radius, seed=count + grid_n)
    got = _sweep_to_circle(pts, wts, center, radius, grid_n)
    ref = reference_sweep(pts, wts, center, radius, grid_n)
    total = float(np.sum(wts))
    assert got.shape == (grid_n,)
    assert np.max(np.abs(got - ref)) <= 1e-15 * total
    assert abs(np.sum(got) - total) <= 1e-12 * total
    assert np.all(got >= 0.0)


@pytest.mark.parametrize("center,radius", CIRCLES)
@pytest.mark.parametrize("grid_n", GRIDS)
@pytest.mark.parametrize("r", MODULI)
@pytest.mark.parametrize("w", [1.0, 0.3, 1.0 / 7.0])
def test_single_atom_is_bit_identical(center, radius, grid_n, r, w):
    pts = np.array([center + radius * r * np.exp(0.9j)])
    wts = np.array([w])
    got = _sweep_to_circle(pts, wts, center, radius, grid_n)
    assert np.array_equal(got, reference_sweep(pts, wts, center, radius, grid_n))
