"""Oracle for the one-log Green kernel and the blocked pair energy.

The reference reads the float phi values as exact rationals (fractions), so
s = |phi|^2 - 1 and |phi_z - phi_t|^2 are exact, and evaluates
g = log(1 + s_z * s_t / |phi_z - phi_t|^2) / 2 with decimal at 40 digits.
"""

import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from condenser_widths.equilibrium import _column_fill
from condenser_widths.geometry import (CurveSpec, EDomain, kernel_from_phi, phi_exterior,
                                       sample_curve)
from condenser_widths.measure import green_pair_energy

EPS = np.finfo(float).eps
PLATES = {"disk": EDomain.disk(0.5 + 0.25j, 1.5), "segment": EDomain.segment(-1.0, 2.0)}


def reference_kernel(pz, pt):
    xz, yz, xt, yt = (Fraction(float(v)) for v in (pz.real, pz.imag, pt.real, pt.imag))
    sz = max(xz * xz + yz * yz - 1, Fraction(0))
    st = max(xt * xt + yt * yt - 1, Fraction(0))
    d2 = (xz - xt) ** 2 + (yz - yt) ** 2
    ratio = (d2 + sz * st) / d2
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln() / 2)


def from_phi(e, w):
    """The points z with phi(z) = w, by the inverse of the plate's map."""
    if e.kind == "disk":
        return e.center + e.radius * w
    return 0.5 * (e.a + e.b) + 0.25 * (e.b - e.a) * (w + 1.0 / w)


def off_plate_pairs(e, rng, lo, hi, n):
    """n point pairs whose phi moduli are log-uniform in [lo, hi]: a third of
    them 1e-8 apart, the rest independent, which makes far-apart pairs."""
    mods = np.exp(rng.uniform(np.log(lo), np.log(hi), (n, 2)))
    z = from_phi(e, mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, 2))))
    near = np.arange(n) % 3 == 0
    z[near, 1] = z[near, 0] + 1e-8 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, near.sum()))
    p = phi_exterior(e, z)
    keep = np.all(np.abs(p) >= lo, axis=1)
    return p[keep, 0], p[keep, 1]


@pytest.mark.parametrize("plate", PLATES)
def test_kernel_matches_exact_reference(plate):
    # |phi| >= 1.25 on both sides: s = |phi|^2 - 1 is then well conditioned
    pz, pt = off_plate_pairs(PLATES[plate], np.random.default_rng(1), 1.25, 60.0, 300)
    got = kernel_from_phi(pz, pt)
    want = np.array([reference_kernel(a, b) for a, b in zip(pz, pt)])
    assert pz.size > 250
    assert np.all(np.abs(got - want) <= 4 * EPS * want)


@pytest.mark.parametrize("plate", PLATES)
def test_kernel_near_plate_error_follows_s(plate):
    # close to the unit circle, s = |phi|^2 - 1 cancels in floating point, so
    # the relative error grows like |phi|^2 / s and no further
    pz, pt = off_plate_pairs(PLATES[plate], np.random.default_rng(2), 1.0 + 1e-3, 1.25, 300)
    got = kernel_from_phi(pz, pt)
    want = np.array([reference_kernel(a, b) for a, b in zip(pz, pt)])

    def cond(p):
        m2 = np.abs(p) ** 2
        return m2 / (m2 - 1.0)

    assert np.all(np.abs(got - want) <= 4 * EPS * want * np.maximum(cond(pz), cond(pt)))


def test_kernel_matrix_bitwise_symmetric():
    e = PLATES["segment"]
    rng = np.random.default_rng(3)
    z = np.concatenate([from_phi(e, np.exp(rng.uniform(0.0, 3.0, 60)
                                           + 1j * rng.uniform(0.0, 2.0 * np.pi, 60))),
                        rng.uniform(e.a, e.b, 8).astype(complex)])
    p = phi_exterior(e, z)
    k = kernel_from_phi(p[:, None], p[None, :])
    assert np.array_equal(k.view(np.uint64), k.T.view(np.uint64))


@pytest.mark.parametrize("plate", PLATES)
def test_kernel_plate_and_coincidence_values(plate):
    e = PLATES[plate]
    if e.kind == "disk":
        on = e.center + e.radius * np.array([0.0, 0.5, 1.0j, -1.0, 0.3 - 0.3j])
    else:
        on = np.array([e.a, e.b, 0.5 * (e.a + e.b), e.a + 0.1 * (e.b - e.a)], dtype=complex)
    off = from_phi(e, np.array([1.5, 3.0j, -2.0 + 2.0j]))
    p_on, p_off = phi_exterior(e, on), phi_exterior(e, off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(kernel_from_phi(p_on[:, None], p_off[None, :]) == 0.0)
        assert np.all(kernel_from_phi(p_off[:, None], p_on[None, :]) == 0.0)
        assert np.all(kernel_from_phi(p_on[:, None], p_on[None, :]) == 0.0)
        assert np.all(kernel_from_phi(p_off, p_off) == np.inf)
        assert np.all(np.isfinite(kernel_from_phi(p_off, np.roll(p_off, 1))))


def test_column_fill_raises_no_floating_point_error():
    grid = phi_exterior(PLATES["disk"], sample_curve(CurveSpec.circle(0.5, 4.0), 256).points)
    grid[7] = 0.25  # one slot on the plate: a zero column and a zero entry
    fill = _column_fill(grid)
    out = np.empty(grid.size)
    with np.errstate(all="raise"):
        for idx in range(grid.size):
            fill(idx, out)
            assert out[idx] == 0.0 and out[7] == 0.0 and np.all(np.isfinite(out))
    fill(7, out)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
def test_blocked_pair_energy_matches_dense(m):
    phi_g = phi_exterior(PLATES["disk"], sample_curve(CurveSpec.circle(1.0, 4.0), 4096).points)
    rng = np.random.default_rng(m)
    p = phi_g[rng.choice(phi_g.size, m, replace=False)]
    w = rng.uniform(0.5, 1.5, m) / m
    k = kernel_from_phi(p[:, None], p[None, :])
    np.fill_diagonal(k, 0.0)
    want = float(w @ k @ w)
    assert abs(green_pair_energy(p, w) - want) <= 1e-14 * abs(want)
