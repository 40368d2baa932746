import numpy as np
import pytest

from condenser_widths import (CurveSpec, DiscreteMeasure, ZeroConfig,
                              chi_asymptotic_pair, chi_bruteforce, ratio_norms,
                              sample_curve, zero_distribution_diag)
from condenser_widths.errors import BudgetExceeded, GridTooClose, GridTooCoarse
from condenser_widths.extremal import NormRatioScorer, log_ratio_norms


def test_ratio_norms_monomial(concentric):
    zc = ZeroConfig((0j, 0j), (), 2, 2)
    assert ratio_norms(zc, concentric) == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_ratio_norms_single_curve_zero(concentric):
    zc = ZeroConfig((), (np.e + 0j,), 1, 0)
    expect = (1 + np.e) / (2 * np.e)
    assert ratio_norms(zc, concentric) == pytest.approx(expect, rel=1e-9)


def test_ratio_norms_empty_config_is_one(concentric):
    assert ratio_norms(ZeroConfig((), (), 3, 1), concentric) == 1.0


def test_ratio_is_scale_invariant(concentric):
    # the ratio is built from zero locations alone, so any leading coefficient
    # cancels; doubling every weight of the counting measure doubles log-ratio
    zc = ZeroConfig((0.5 + 0.1j,), (3j,), 2, 1)
    v1 = log_ratio_norms(zc, concentric)
    zc2 = ZeroConfig((0.5 + 0.1j, 0.5 + 0.1j), (3j, 3j), 4, 2)
    assert log_ratio_norms(zc2, concentric) == pytest.approx(2 * v1, rel=1e-12)


def test_zero_config_validation():
    with pytest.raises(ValueError):
        ZeroConfig((0j, 0j), (), 2, 1)
    with pytest.raises(ValueError):
        ZeroConfig((), (0j,), 2, 3)


def test_chi_bruteforce_k0_is_exactly_one(concentric, offset):
    for c in (concentric, offset):
        for n in (2, 5):
            est = chi_bruteforce(c, n, 0, seed=1)
            assert est.chi_upper == 1.0 and est.chi_lower == 1.0


def test_chi_bruteforce_offset_full_theta_pins(offset):
    for n in (2, 3, 4, 5):
        est = chi_bruteforce(offset, n, n, seed=1)
        exact = 4.0 ** (-n)
        assert abs(est.chi_upper - exact) <= 0.01 * exact
        assert abs(est.chi_lower - exact) <= 0.01 * exact
        assert est.chi_lower <= est.chi_upper + 1e-9


def test_chi_bruteforce_concentric_record(concentric):
    est = chi_bruteforce(concentric, 4, 2, seed=1)
    assert est.chi_lower <= est.chi_upper + 1e-9
    assert -1.0 <= est.log_rate_upper <= 0.0
    # frozen record: the nested search lands on the exact value exp(-k) for the
    # level-curve pair (||z^k q||_curve = e^k ||q||_curve for every q there)
    assert est.chi_upper == pytest.approx(np.exp(-2.0), rel=1e-6)
    # cross-check against the asymptotic-pair sandwich at the same (n, k)
    ap = chi_asymptotic_pair(concentric, 4, 2, seed=0)
    assert ap.chi_lower - 1e-9 <= est.chi_upper <= ap.chi_upper + 1e-9


def test_chi_bruteforce_rejects_large_n(concentric):
    with pytest.raises(ValueError):
        chi_bruteforce(concentric, 7, 3, seed=0)


def test_chi_bruteforce_budget(concentric, monkeypatch):
    from condenser_widths import extremal as ex
    monkeypatch.setattr(ex, "_BRUTEFORCE_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        chi_bruteforce(concentric, 5, 3, seed=0)


def test_chi_bruteforce_starts_bound(concentric, monkeypatch):
    # each of the 2 + restarts p starts scores a proxy move over the plate
    # candidates; the search refuses up front only when those alone pass the
    # budget, and otherwise runs until the budget itself runs out
    from condenser_widths import extremal as ex
    cands = NormRatioScorer(concentric, grid_n=2048, gamma_cand_n=256, e_cand_n=160).cands["e"]
    monkeypatch.setattr(ex, "_BRUTEFORCE_BUDGET", 3 * len(cands) - 1)
    with pytest.raises(BudgetExceeded, match="p starts score at least"):
        chi_bruteforce(concentric, 5, 3, restarts=1, seed=0)
    monkeypatch.setattr(ex, "_BRUTEFORCE_BUDGET", 3 * len(cands))
    with pytest.raises(BudgetExceeded, match="budget of .* exhausted"):
        chi_bruteforce(concentric, 5, 3, restarts=1, seed=0)


@pytest.fixture
def scorers(monkeypatch):
    """Every NormRatioScorer built while the test runs, in order."""
    made = []
    init = NormRatioScorer.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(NormRatioScorer, "__init__", spy)
    return made


# the nested search at the default grid: (condenser, n, k, seed, log chi_upper,
# log chi_lower, scored configurations); all six converge
BRUTEFORCE_RECORDS = [
    ("concentric", 6, 3, 0, -2.9999999999999996, -2.9999999999999996, 85223),
    ("concentric", 6, 3, 1, -2.9999999999999996, -2.9999999999999996, 89623),
    ("offset", 5, 1, 0, -1.2433843110557374, -1.4580214277020653, 160894),
    ("offset", 4, 2, 0, -2.313823884883392, -2.351505233035267, 115448),
    ("offset", 6, 1, 1, -1.3261369179019784, -1.6424890572448856, 132533),
    ("offset", 5, 5, 1, -6.931471805599452, -6.931471805599452, 8801),
]


@pytest.mark.parametrize("name,n,k,seed,log_upper,log_lower,evals", BRUTEFORCE_RECORDS,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}-seed{r[3]}" for r in BRUTEFORCE_RECORDS])
def test_chi_bruteforce_records(request, scorers, name, n, k, seed, log_upper, log_lower, evals):
    # the breadth of the search shows in these: trying fewer proxy moves per
    # visit, or skipping the charge of a re-check sup, moves a value or a count
    est = chi_bruteforce(request.getfixturevalue(name), n, k, seed=seed)
    assert np.log(est.chi_upper) == pytest.approx(log_upper, abs=1e-12)
    assert np.log(est.chi_lower) == pytest.approx(log_lower, abs=1e-12)
    assert est.converged
    assert [s.evals_used for s in scorers] == [evals]


# the equilibrium pair at the default grid: (condenser, n, k, seed, log chi_upper,
# log chi_lower, scored configurations); all seven converge
ASYMPTOTIC_RECORDS = [
    ("concentric", 16, 8, 0, -7.999999999999998, -8.692811774187051, 26526),
    ("concentric", 64, 32, 0, -31.999999999999993, -32.693147180559926, 81798),
    ("concentric", 48, 16, 0, -15.999999999999996, -16.693147180559933, 73702),
    ("offset", 16, 8, 0, -7.757822143980917, -7.888294371138578, 65502),
    ("offset", 64, 32, 0, -31.378442629902956, -31.404496569215368, 376582),
    ("offset", 48, 16, 0, -16.299436239967328, -16.338653813082935, 249846),
    ("offset", 16, 8, 1, -7.756108994784002, -7.891804903234389, 57302),
]


@pytest.mark.parametrize("name,n,k,seed,log_upper,log_lower,evals", ASYMPTOTIC_RECORDS,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}-seed{r[3]}" for r in ASYMPTOTIC_RECORDS])
def test_chi_asymptotic_pair_records(request, scorers, name, n, k, seed, log_upper, log_lower,
                                     evals):
    # the q ascent, the p descent and the re-run sup all show in these
    est = chi_asymptotic_pair(request.getfixturevalue(name), n, k, seed=seed)
    assert np.log(est.chi_upper) == pytest.approx(log_upper, abs=1e-12)
    assert np.log(est.chi_lower) == pytest.approx(log_lower, abs=1e-12)
    assert est.converged
    assert [s.evals_used for s in scorers] == [evals]


def test_chi_bruteforce_budget_counts_every_recheck(concentric, monkeypatch):
    # level (6, 3) at seed 1 scores exactly 89623 configurations, repeated
    # re-check sups included: one fewer must run out, and that many must not
    from condenser_widths import extremal as ex
    monkeypatch.setattr(ex, "_BRUTEFORCE_BUDGET", 89622)
    with pytest.raises(BudgetExceeded, match="budget of 89622 exhausted"):
        chi_bruteforce(concentric, 6, 3, seed=1)
    monkeypatch.setattr(ex, "_BRUTEFORCE_BUDGET", 89623)
    est = chi_bruteforce(concentric, 6, 3, seed=1)
    assert np.log(est.chi_upper) == pytest.approx(-2.9999999999999996, abs=1e-12)


def test_chi_asymptotic_concentric_rate(concentric):
    prev = None
    for n in (16, 32, 64):
        est = chi_asymptotic_pair(concentric, n, n // 2, seed=0)
        assert est.chi_lower <= est.chi_upper + 1e-9
        if prev is not None:
            assert est.log_rate_upper <= prev + 0.01
        prev = est.log_rate_upper
    assert abs(prev - (-0.5)) <= 0.1


def test_chi_asymptotic_offset_theta_one(offset):
    est = chi_asymptotic_pair(offset, 8, 8, seed=0)
    exact = 4.0 ** (-8)
    assert abs(est.chi_upper - exact) <= 0.01 * exact
    assert abs(est.chi_lower - exact) <= 0.01 * exact


def test_chi_asymptotic_single_curve_zero(offset):
    # k = n - 1 runs the one-atom Fekete stage
    est = chi_asymptotic_pair(offset, 8, 7, seed=0)
    assert est.chi_lower <= est.chi_upper


def test_chi_asymptotic_reported_pair_reaches_upper(concentric):
    # the empty q strictly beats the descended Fekete q here, so the reported
    # pair must be (p, []) for its objective to equal chi_upper
    n, k = 16, 8
    est = chi_asymptotic_pair(concentric, n, k, seed=0)
    assert log_ratio_norms(est.config, concentric, 2048) == pytest.approx(
        n * est.log_rate_upper, abs=1e-9)


def test_descent_budget_exhaustion_warns(concentric, offset, monkeypatch):
    import warnings
    from condenser_widths import extremal as ex
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # converged descents stay silent
        assert chi_asymptotic_pair(offset, 16, 8, seed=0).converged
        assert chi_bruteforce(concentric, 4, 2, seed=0).converged
    monkeypatch.setattr(ex, "_MAX_SWEEPS", 1)
    with pytest.warns(RuntimeWarning, match=r"max_sweeps = 1 .*n = 16, k = 8"):
        assert not chi_asymptotic_pair(offset, 16, 8, seed=0).converged
    with pytest.warns(RuntimeWarning, match=r"max_sweeps = 1 .*n = 4, k = 2"):
        assert not chi_bruteforce(concentric, 4, 2, seed=0).converged


def test_leja_indices_zero_field_is_greedy_max_product(concentric, offset):
    # the unweighted Leja points of the bruteforce starts, against the plain
    # greedy max-product loop
    from condenser_widths.equilibrium import _leja_indices
    from condenser_widths.geometry import boundary_samples
    for cands in (boundary_samples(concentric.e_domain, 128), sample_curve(offset.gamma, 256).points):
        for m in (0, 1, 2, 7, 39):
            chosen = [0] if m else []
            acc = np.log(np.maximum(np.abs(cands - cands[0]), 1e-300))
            for _ in range(1, m):
                chosen.append(int(np.argmax(acc)))
                acc = acc + np.log(np.maximum(np.abs(cands - cands[chosen[-1]]), 1e-300))
            assert _leja_indices(cands, m) == chosen


def test_chi_envelope(concentric):
    # coarse envelope: between half the full-mass floor and 1 + tolerance
    for n, k in ((4, 2), (6, 3)):
        est = chi_bruteforce(concentric, n, k, seed=2)
        floor = np.exp(n * (-1.0)) * 0.5  # m at full mass is -1 for this pair
        assert floor <= est.chi_lower <= est.chi_upper <= 1.000001


def test_chi_deterministic(concentric):
    a = chi_bruteforce(concentric, 4, 2, seed=9)
    b = chi_bruteforce(concentric, 4, 2, seed=9)
    assert a.chi_upper == b.chi_upper and a.chi_lower == b.chi_lower
    assert a.config == b.config


def make_test_grid(exclude_radii, half_width=2.0, n=24):
    xs = np.linspace(-half_width, half_width, n)
    grid = np.array([complex(x, y) for x in xs for y in xs])
    for r in exclude_radii:
        grid = grid[np.abs(np.abs(grid) - r) >= 0.06]
    return grid


def test_zero_diag_monomial_pin(concentric):
    n, k = 128, 64
    egrid = sample_curve(CurveSpec.circle(0j, 1.0), 4096).points
    ref = DiscreteMeasure(egrid, np.full(4096, (k / n) / 4096))
    zc = ZeroConfig((0j,) * k, (), n, k)
    grid = make_test_grid([1.0, np.e])
    assert zero_distribution_diag(zc, concentric, ref, grid) <= 1e-6


def test_zero_diag_asymptotic_pair(concentric, concentric_lambda_256):
    from condenser_widths import leja_weighted
    n, k = 128, 64
    mu = leja_weighted(concentric, concentric_lambda_256, 0.5, k, 4096)
    egrid = sample_curve(CurveSpec.circle(0j, 1.0), 4096).points
    ref = DiscreteMeasure(egrid, np.full(4096, 0.5 / 4096))
    zc = ZeroConfig(tuple(mu.points.tolist()), (), n, k)
    grid = make_test_grid([1.0, np.e])
    # frozen fixture threshold (first verified run measured 1.2e-5)
    assert zero_distribution_diag(zc, concentric, ref, grid) <= 1e-3


def test_zero_diag_negative_control(concentric):
    n, k = 128, 64
    egrid = sample_curve(CurveSpec.circle(0j, 1.0), 4096).points
    ref = DiscreteMeasure(egrid, np.full(4096, 0.5 / 4096))
    zc = ZeroConfig((6.0 + 0j,) * k, (), n, k)
    grid = make_test_grid([1.0, np.e])
    grid = grid[np.abs(grid - 6.0) >= 0.5]
    assert zero_distribution_diag(zc, concentric, ref, grid) >= 0.1


def test_zero_diag_grid_too_close(concentric):
    ref = DiscreteMeasure.atom(1.0 + 0j, 0.5)
    zc = ZeroConfig((0j,), (), 2, 1)
    with pytest.raises(GridTooClose):
        zero_distribution_diag(zc, concentric, ref, np.array([1.0 + 0.01j]))


def test_scorer_budget_accounting(concentric):
    scorer = NormRatioScorer(concentric, grid_n=256, gamma_cand_n=64, e_cand_n=48,
                             budget=10)
    from condenser_widths.extremal import _Config
    cfg = _Config(scorer, scorer.column_sums([0j]), [np.e + 0j], "gamma")
    with pytest.raises(BudgetExceeded):
        for _ in range(100):
            cfg.objective()


def test_config_sums_follow_moves_and_drops(concentric):
    from condenser_widths.extremal import _Config
    scorer = NormRatioScorer(concentric, grid_n=256, gamma_cand_n=64, e_cand_n=48)
    fixed = [0j, 0.3j]
    every = len(scorer.cands["gamma"])
    cfg = _Config(scorer, scorer.column_sums(fixed), list(scorer.cands["gamma"][:3]), "gamma")
    cfg.objective()
    cfg.apply_move(1, 10)
    cfg.best_moves(0, -np.inf, every)
    cfg.apply_drop(0)
    fresh = _Config(scorer, scorer.column_sums(fixed), cfg.zeros, "gamma")
    assert cfg.objective() == fresh.objective()
    for got, want in zip(cfg.best_moves(0, -np.inf, every), fresh.best_moves(0, -np.inf, every)):
        assert np.array_equal(got, want)
    assert cfg.drop_score(1) == fresh.drop_score(1)


def test_disk_plate_candidates_need_17(concentric):
    # a boundary ring of 16, the center and interior rings: fewer than 17
    # candidates cannot be laid out on a disk plate
    with pytest.raises(GridTooCoarse, match="e_cand_n = 3"):
        NormRatioScorer(concentric, grid_n=5, gamma_cand_n=4, e_cand_n=3)
    with pytest.raises(GridTooCoarse, match="e_cand_n = 16"):
        NormRatioScorer(concentric, grid_n=5, gamma_cand_n=4, e_cand_n=16)
    assert NormRatioScorer(concentric, grid_n=5, gamma_cand_n=4, e_cand_n=17).cands["e"].size == 17
