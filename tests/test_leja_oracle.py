"""Oracle for the weighted Leja stage: the original per-pick loop, with the
field from the direct log_potential sum and one complex log_abs row per pick,
kept verbatim, against leja_weighted's exterior-map series field and shifted
log-distance row.

On the offset pair the two must choose the same slots, in the same order.  On
the level and segment/ellipse pairs the plate grid's symmetry makes exact
ties, which last-bit differences may break the other way (a rotated or
mirrored point set), so there the two must give the same discrete energy.
"""

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, DiscreteMeasure, EDomain
from condenser_widths import equilibrium
from condenser_widths.equilibrium import _leja_indices, _plate_field, fekete_green, leja_weighted
from condenser_widths.geometry import boundary_samples, log_capacity, phi_exterior
from condenser_widths.measure import energy_I, log_abs, log_potential

OFFSET = Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(1 + 0j, 3.0))
LEVEL = Condenser(EDomain.disk(0j, 1.0), CurveSpec.circle(0j, float(np.e)))
SEGMENT_ELLIPSE = Condenser(EDomain.segment(-1.0, 1.0), CurveSpec.ellipse(0j, (2.0, 1.5)))


def reference_leja(c, lam, theta, m, grid_n):
    """The weighted Leja stage as first written: point j+1 maximizes
    sum_{i <= j} log|z - z_i| - (j / theta) U^lam(z) over the plate grid."""
    grid = boundary_samples(c.e_domain, grid_n)
    u_ext = np.atleast_1d(log_potential(lam, grid))
    chosen = [int(np.argmax(-u_ext))]
    acc = log_abs(grid - grid[chosen[0]])
    for j in range(1, m):
        idx = int(np.argmax(acc - (j / theta) * u_ext))
        chosen.append(idx)
        acc = acc + log_abs(grid - grid[idx])
    return DiscreteMeasure(grid[chosen], np.full(m, theta / m))


def direct_sum_calls(monkeypatch):
    """A list that grows by one at each call of the stage's direct sum,
    equilibrium.log_potential, which _plate_field takes where its series
    does not run."""
    calls = []
    direct = equilibrium.log_potential

    def spy(*args, **kw):
        calls.append(args)
        return direct(*args, **kw)

    monkeypatch.setattr(equilibrium, "log_potential", spy)
    return calls


@pytest.mark.parametrize("m, grid_n, theta", [(1024, 16384, 0.05), (1024, 16384, 0.1),
                                              (256, 4096, 0.25), (256, 4096, 0.5),
                                              (256, 4096, 0.9)])
def test_offset_pair_matches_reference_slot_for_slot(m, grid_n, theta, monkeypatch):
    calls = direct_sum_calls(monkeypatch)
    for seed in (0, 1, 2):
        lam = fekete_green(OFFSET, theta, m, grid_n, seed)
        mu = leja_weighted(OFFSET, lam, theta, m, grid_n)
        assert not calls  # the series field ran
        assert mu.points.tolist() == reference_leja(OFFSET, lam, theta, m, grid_n).points.tolist()


@pytest.mark.parametrize("c", [LEVEL, SEGMENT_ELLIPSE], ids=["level", "segment-ellipse"])
@pytest.mark.parametrize("theta", [0.1, 0.5])
def test_symmetric_pairs_match_reference_energy(c, theta):
    for seed in (0, 1):
        lam = fekete_green(c, theta, 256, 4096, seed)
        mu = leja_weighted(c, lam, theta, 256, 4096)
        want = energy_I(reference_leja(c, lam, theta, 256, 4096), lam, theta)
        assert abs(energy_I(mu, lam, theta) - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# the series field against the direct sum


def _cloud(e, rng, n=300, mass=0.7):
    """n atoms with |phi| in [1.5, 4], mapped back through the exterior map."""
    w = rng.uniform(1.5, 4.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    if e.kind == "disk":
        pts = e.center + e.radius * w
    else:
        pts = 0.5 * (e.a + e.b) + log_capacity(e) * (w + 1.0 / w)
    wts = rng.uniform(0.5, 1.5, n)
    return DiscreteMeasure(pts, mass * wts / wts.sum())


@pytest.mark.parametrize("e", [EDomain.disk(0j, 1.0), EDomain.disk(0.5 - 0.3j, 0.8),
                               EDomain.segment(-1.0, 1.0)],
                         ids=["unit-disk", "off-centre-disk", "segment"])
def test_series_field_matches_log_potential(e, monkeypatch):
    rng = np.random.default_rng(7)
    calls = direct_sum_calls(monkeypatch)
    for grid_n in (1024, 4097):
        grid = boundary_samples(e, grid_n)
        lam = _cloud(e, rng)
        field = _plate_field(e, lam, grid)
        assert not calls  # the series field ran
        assert np.max(np.abs(field - log_potential(lam, grid))) <= 1e-14


def test_series_field_falls_back_to_the_direct_sum(monkeypatch):
    unit, seg = EDomain.disk(0j, 1.0), EDomain.segment(-1.0, 1.0)
    thin = Condenser(seg, CurveSpec.ellipse(0j, (2.0, 0.3))).validate()
    near = 1.0000001 * np.exp(2j * np.pi * np.arange(256) / 256)
    cases = [
        # rho < 1, but the series needs at least as many terms as there are atoms
        (seg, fekete_green(thin, 0.3, 64, 1024, seed=0), True),
        (unit, DiscreteMeasure(near, np.full(256, 1.0 / 256)), True),
        # an atom inside the plate: rho > 1
        (unit, DiscreteMeasure([0.3 + 0.2j, 2.0, -3.0j], [0.2, 0.3, 0.5]), False),
        (unit, DiscreteMeasure.zero(), False),
    ]
    calls = direct_sum_calls(monkeypatch)
    for e, lam, outside in cases:
        grid = boundary_samples(e, 1024)
        if outside:
            assert np.max(1.0 / np.abs(phi_exterior(e, lam.points))) < 1.0
        want = np.atleast_1d(log_potential(lam, grid))
        calls.clear()
        assert _plate_field(e, lam, grid).tolist() == want.tolist()
        assert len(calls) == 1  # the direct sum ran


def test_shifted_row_matches_the_generic_rows():
    # the equispaced rows are slices of one row; on these grids and fields
    # the picks agree with those of the complex rows
    for e in (EDomain.disk(0.5 - 0.3j, 0.8), EDomain.segment(-1.0, 2.0)):
        pts = boundary_samples(e, 1024)
        field = np.cos(np.linspace(0.0, 3.0, pts.size))
        for m in (1, 2, 17, 40):
            assert (_leja_indices(pts, m, field, 0.5, equispaced=True)
                    == _leja_indices(pts, m, field, 0.5))
