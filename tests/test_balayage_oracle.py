"""Oracles for the circle sweep.

The original per-atom loop, kept verbatim, must give the same cell masses as
the sweep up to the reordered sum; where the sweep takes the blocked arctan2
path, a single atom must give them bit for bit.  The power-series path is
held against a per-atom arctan2 loop in extended precision.
"""

import numpy as np
import pytest

from condenser_widths import balayage
from condenser_widths.balayage import _SWEEP_BLOCK, _sweep_to_circle
from condenser_widths.geometry import TWO_PI, series_terms


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
    # bit for bit where the blocked arctan2 runs (moduli 0.999 and 1.001 need
    # more series terms than there are cells) and at a = 0, whose series is 0;
    # moduli 0.5 and 3 take the series path, which agrees to the reordered sum
    pts = np.array([center + radius * r * np.exp(0.9j)])
    wts = np.array([w])
    got = _sweep_to_circle(pts, wts, center, radius, grid_n)
    ref = reference_sweep(pts, wts, center, radius, grid_n)
    if r in (0.0, 0.999, 1.001):
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-15 * w


# ---------------------------------------------------------------------------
# the series path against an extended-precision per-atom loop


def longdouble_sweep(points, weights, center: complex, radius: float, grid_n: int):
    """Cell masses at the exact cell edges 2 pi (m - 1/2) / n, from the sweep's
    own reflected points and one arctan2 per atom per edge in np.longdouble."""
    total = float(np.sum(weights))
    b = (points - center) / radius
    a = b.copy()
    outside = np.abs(b) >= 1.0
    a[outside] = 1.0 / np.conj(b[outside])
    two_pi = 8.0 * np.arctan(np.longdouble(1.0))
    edges = two_pi * (np.arange(grid_n + 1, dtype=np.longdouble) - 0.5) / grid_n
    cos, sin = np.cos(edges), np.sin(edges)
    acc = np.zeros(grid_n + 1, dtype=np.longdouble)
    for aj, sj in zip(a, (weights / total).astype(np.longdouble)):
        ar, ai = np.longdouble(aj.real), np.longdouble(aj.imag)
        # 1 - a e^{-it} = (1 - ar cos t - ai sin t) + i (ar sin t - ai cos t)
        acc += sj * np.arctan2(ar * sin - ai * cos, 1.0 - ar * cos - ai * sin)
    return np.longdouble(total) * np.diff(edges + 2.0 * acc) / two_pi


# moduli relative to the circle, inside and outside: rho = 0.5, 0.8, 0.9,
# 0.95, 0.95 and 1/3; each case puts every atom at one of them, and keeps
# the grids where the series needs fewer terms than there are cells
SERIES_CASES = [(grid_n, r) for grid_n in GRIDS
                for r in (0.5, 0.8, 0.9, 0.95, 1.0 / 0.95, 3.0)
                if series_terms(min(r, 1.0 / r), grid_n)]


@pytest.mark.parametrize("center,radius", CIRCLES)
@pytest.mark.parametrize("grid_n,r", SERIES_CASES)
@pytest.mark.parametrize("count", [1, 37, 4096])
def test_series_sweep_matches_longdouble_loop(center, radius, grid_n, r, count):
    rng = np.random.default_rng(count + grid_n)
    pts = center + radius * r * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
    wts = rng.uniform(0.1, 2.0, count)
    total = float(np.sum(wts))
    got = _sweep_to_circle(pts, wts, center, radius, grid_n)
    ref = longdouble_sweep(pts, wts, center, radius, grid_n)
    assert np.max(np.abs(got - ref)) <= 1e-15 * total
    assert abs(np.sum(got) - total) <= 1e-12 * total
    assert np.all(got >= 0.0)


def _tail(rho, terms):
    return rho ** (terms + 1) / ((terms + 1) * (1.0 - rho))


def test_direct_path_runs_exactly_when_the_terms_reach_the_grid(monkeypatch):
    # series_terms gives the fewest terms whose tail bound falls below 2^-53
    eps = 2.0 ** -53
    for rho in (0.0, 0.3, 0.9, 0.99, 0.999):
        terms = series_terms(rho, 10 ** 5)
        assert _tail(rho, terms) <= eps and (terms == 1 or _tail(rho, terms - 1) > eps)
    assert series_terms(1.0, 4096) == series_terms(1.5, 4096) == 0

    calls = []
    for name in ("_angle_series", "_angle_direct"):
        fn = getattr(balayage, name)
        monkeypatch.setattr(balayage, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    for grid_n in (64, 256, 1024, 4096):
        # bracket the modulus at which the term count reaches grid_n
        lo, hi = 0.5, 1.0 - 1e-9
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if series_terms(mid, grid_n) else (lo, mid)
        for rho in (0.5, lo, hi, 0.9999):
            calls.clear()
            masses = _sweep_to_circle(np.array([rho, -0.1j]), np.array([0.7, 0.3]),
                                      0j, 1.0, grid_n)
            direct = _tail(rho, grid_n - 1) > eps  # grid_n - 1 terms do not suffice
            assert calls == ["_angle_direct" if direct else "_angle_series"]
            assert abs(np.sum(masses) - 1.0) <= 1e-12
        assert _tail(lo, grid_n - 1) <= eps < _tail(lo, grid_n - 2)
