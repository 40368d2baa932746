"""Oracle for the floor-pruned move scoring: the dense column maximum over the
eval-major score matrices, kept verbatim, is the reference.  Every live score
must be bit-identical to it, and no pruned candidate may clear the floor."""

import tracemalloc

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, EDomain, concentric_condenser, offset_condenser
from condenser_widths import extremal
from condenser_widths.extremal import (_IMPROVE_EPS, _ROW_BLOCK, NormRatioScorer, _Config,
                                       _candidate_rows, _coordinate_descent, _row_bounds,
                                       chi_asymptotic_pair, chi_bruteforce)
from condenser_widths.measure import log_abs

CONDENSERS = {
    "level": concentric_condenser,
    "offset": offset_condenser,
    "segment-ellipse": lambda: Condenser(EDomain.segment(-1.0, 1.0),
                                         CurveSpec.ellipse(0.2j, (3.0, 2.0), 0.3)).validate(),
}
# (grid_n, gamma_cand_n, e_cand_n): eval counts off the row block size, one
# exact fit, and a curve eval set smaller than one row block
GRIDS = [(100, 70, 37), (64, 64, 48), (77, 129, 65), (5, 4, 20)]
# the direction of a move: q zeros (curve candidates) ascend, p zeros descend
SIGN = {"gamma": 1.0, "e": -1.0}


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_bit_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(bits(a), bits(b))


def eval_major(scorer):
    """The score matrices in the layout the dense formula used: rows are eval
    points, columns candidates."""
    mats = {}
    for kind, pts in scorer.cands.items():
        mats[("e", kind)] = log_abs(scorer.e_eval[:, None] - pts[None, :])
        mats[("gamma", kind)] = log_abs(scorer.gamma_eval[:, None] - pts[None, :])
    return mats


def dense_move_scores(cfg, i, mats):
    """The dense move scoring, verbatim."""
    me = mats[("e", cfg.kind)]
    mg = mats[("gamma", cfg.kind)]
    cfg.scorer._charge(me.shape[1])
    le, lg = cfg._totals()
    base_e = le - cfg.cols[i][0]
    base_g = lg - cfg.cols[i][1]
    tops_e = np.max(base_e[:, None] + me, axis=0)
    tops_g = np.max(base_g[:, None] + mg, axis=0)
    return tops_e - tops_g


class DenseConfig(_Config):
    """A configuration scored and moved through the eval-major matrices."""

    def __init__(self, scorer, fixed_zeros, movable_zeros, kind, mats):
        super().__init__(scorer, fixed_zeros, movable_zeros, kind)
        self.mats = mats

    def move_scores(self, i, floor):
        return dense_move_scores(self, i, self.mats)

    def apply_move(self, i, cand_idx):
        self.zeros[i] = complex(self.scorer.cands[self.kind][cand_idx])
        self.cols[i] = (self.mats[("e", self.kind)][:, cand_idx].copy(),
                        self.mats[("gamma", self.kind)][:, cand_idx].copy())
        self._sums = None


def restrict(scorer, kind, idx):
    """Keep only the candidates idx of one kind, with their row bounds and
    their rows in the candidate index."""
    scorer.cands[kind] = scorer.cands[kind][idx]
    for side in ("e", "gamma"):
        m = np.ascontiguousarray(scorer.mats[(side, kind)][idx])
        scorer.mats[(side, kind)] = m
        scorer.bounds[(side, kind)] = _row_bounds(m)
    scorer.cand_rows = _candidate_rows(scorer.cands)


@pytest.fixture(scope="module", params=[(c, g) for c in CONDENSERS for g in GRIDS],
                ids=lambda p: f"{p[0]}-{'x'.join(map(str, p[1]))}")
def scorer(request):
    name, (grid_n, gamma_cand_n, e_cand_n) = request.param
    return NormRatioScorer(CONDENSERS[name](), grid_n=grid_n, gamma_cand_n=gamma_cand_n,
                           e_cand_n=e_cand_n)


def check_pruned(out, dense, sign, floor):
    """Live scores are the dense ones; a pruned score cannot clear the floor."""
    live = out != -sign * np.inf
    assert_bit_equal(out[live], dense[live])
    assert np.all(sign * dense[~live] <= floor)
    return live


def check_floors(scores, dense, kind):
    """scores(floor) against the dense scores of a kind: all live at floor
    -inf, none at +inf, and the pruning contract at random floors in between."""
    rng = np.random.default_rng(11)
    sign = SIGN[kind]
    assert_bit_equal(scores(-np.inf), dense)
    assert np.all(scores(np.inf) == -sign * np.inf)
    signed = sign * dense
    ties = signed[rng.integers(0, signed.size, size=2)]
    floors = [*np.quantile(signed, [0.0, 0.5, 0.99]), *ties, *(ties + _IMPROVE_EPS),
              np.max(signed), np.max(signed) + rng.uniform(-1.0, 1.0)]
    for floor in floors:
        check_pruned(scores(floor), dense, sign, floor)


def check_visits(cfg, mats):
    assert cfg.sign == SIGN[cfg.kind]
    for i in range(len(cfg.zeros)):
        dense = dense_move_scores(cfg, i, mats)
        check_floors(lambda floor: cfg.move_scores(i, floor), dense, cfg.kind)


def check_bases(scorer, mats, bases):
    """Per pair of bases on the two eval sets: both stages of attained lower
    bounds stay at or below the dense maxima (the base-row stage also on a
    subset of candidates), and the scores obey check_floors."""
    for kind in scorer.cands:
        me, mg = mats[("e", kind)], mats[("gamma", kind)]
        for base_e, base_g in zip(bases(me.shape[0], "e", kind), bases(mg.shape[0], "gamma", kind)):
            tops_e = np.max(base_e[:, None] + me, axis=0)
            tops_g = np.max(base_g[:, None] + mg, axis=0)
            for side, base, tops in (("e", base_e, tops_e), ("gamma", base_g, tops_g)):
                every = np.arange(tops.size)
                assert np.all(scorer._block_tops(side, kind, base) <= tops)
                lower = scorer._lower_tops(side, kind, base, every)
                assert np.all(lower <= tops)
                assert_bit_equal(scorer._lower_tops(side, kind, base, every[1::3]), lower[1::3])
            check_floors(lambda floor: scorer.move_scores(kind, base_e, base_g, floor),
                         tops_e - tops_g, kind)


def test_stored_matrices_are_the_transpose(scorer):
    for key, m in eval_major(scorer).items():
        assert scorer.mats[key].flags.c_contiguous
        assert_bit_equal(scorer.mats[key], m.T)


def test_row_bounds_are_first_block_argmax(scorer):
    """Each block row is the first row where a candidate peaks in its eval
    block, the ragged tail included, and its entry is the block maximum.
    The bounds are block-major: [b, c] is block b of candidate c."""
    for key, m in scorer.mats.items():
        block_max, block_row = scorer.bounds[key]
        starts = np.arange(0, m.shape[1], _ROW_BLOCK)
        assert block_row.shape == block_max.shape == (starts.size, m.shape[0])
        for b, lo in enumerate(starts):
            block = m[:, lo:lo + _ROW_BLOCK]
            cols = np.arange(lo, lo + block.shape[1])
            first = np.min(np.where(block == np.max(block, axis=1, keepdims=True), cols, m.shape[1]),
                           axis=1)
            assert np.array_equal(block_row[b], first)
        assert_bit_equal(m[np.arange(m.shape[0]), block_row], block_max)
        assert_bit_equal(block_max, np.maximum.reduceat(m, starts, axis=1).T)


@pytest.mark.parametrize("entries", [1, 100, 1000])
def test_chunked_build_matches_one_pass(monkeypatch, entries):
    """Chunks of one row, of a few rows with a ragged last chunk, and of many
    rows build the same matrices and bounds as one chunk."""
    args = dict(grid_n=100, gamma_cand_n=131, e_cand_n=70)
    whole = NormRatioScorer(offset_condenser(), **args)
    monkeypatch.setattr(extremal, "_CHUNK_ENTRIES", entries)
    chunked = NormRatioScorer(offset_condenser(), **args)
    for key, m in whole.mats.items():
        assert_bit_equal(chunked.mats[key], m)
        assert_bit_equal(chunked.bounds[key][0], whole.bounds[key][0])
        assert np.array_equal(chunked.bounds[key][1], whole.bounds[key][1])


def test_scorer_build_peak_memory():
    """The asymptotic_pair scorer at n = 256 builds its matrices in chunks:
    no temporary of the matrices' size exists while it is made."""
    c = concentric_condenser()
    tracemalloc.start()
    try:
        scorer = NormRatioScorer(c, grid_n=2048, gamma_cand_n=1024, e_cand_n=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = (sum(m.nbytes for m in scorer.mats.values())
            + sum(a.nbytes for bound in scorer.bounds.values() for a in bound))
    assert peak <= 1.25 * held


def test_config_takes_candidate_rows(scorer):
    """A zero on a candidate shares that candidate's rows of mats, and any
    zero's columns are log_abs of the eval sets minus it, bit for bit: a
    zero from .tolist(), a numpy zero, the plate centre with a -0.0 part
    and zeros off the candidates."""
    e_cands, g_cands = scorer.cands["e"], scorer.cands["gamma"]
    mid = scorer.condenser.e_domain.midpoint
    centre = complex(mid.real, -0.0)
    at_centre = np.flatnonzero(e_cands == mid)[:1]
    assert at_centre.size or scorer.condenser.e_domain.kind != "disk"
    cases = [(e_cands.tolist()[-1], ("e", len(e_cands) - 1)),
             (g_cands[len(g_cands) // 2], ("gamma", len(g_cands) // 2)),
             (centre, ("e", at_centre[0]) if at_centre.size else None),
             (0.5 * (g_cands[0] + g_cands[1]), None), (0.123 + 0.0456j, None), (mid + 1e-17j, None)]
    zeros = [z for z, _ in cases]
    expected = [(log_abs(scorer.e_eval - z), log_abs(scorer.gamma_eval - z)) for z in zeros]
    cfg = _Config(scorer, [], zeros, "e")
    for (_, hit), cols, want in zip(cases, cfg.cols, expected):
        for side, col, x in zip(("e", "gamma"), cols, want):
            assert_bit_equal(col, x)
            if hit is None:
                assert not any(np.shares_memory(col, m) for m in scorer.mats.values())
            else:
                assert np.shares_memory(col, scorer.mats[(side, hit[0])][hit[1]])
    fixed = _Config(scorer, zeros, [], "gamma")
    total_e, total_g = np.zeros(scorer.e_eval.size), np.zeros(scorer.gamma_eval.size)
    for xe, xg in expected:
        total_e += xe
        total_g += xg
    assert_bit_equal(fixed.fixed_le, total_e)
    assert_bit_equal(fixed.fixed_lg, total_g)


def test_moves_match_dense_scores(scorer):
    mats = eval_major(scorer)
    p = list(scorer.cands["e"][::5][:4])
    q = list(scorer.cands["gamma"][1::7][:5])
    check_visits(_Config(scorer, p, q, "gamma"), mats)
    check_visits(_Config(scorer, q, p, "e"), mats)


def test_flat_base_all_p_at_center(scorer):
    mats = eval_major(scorer)
    center = scorer.condenser.e_domain.midpoint
    cfg = _Config(scorer, [center] * 4, list(scorer.cands["gamma"][:3]), "gamma")
    check_visits(cfg, mats)
    # exactly flat: every row ties
    check_bases(scorer, mats, lambda n, side, kind: [np.zeros(n), np.full(n, -3.25)])


def test_clamped_dips_on_eval_points(scorer):
    mats = eval_major(scorer)
    on_eval = [scorer.e_eval[0], scorer.e_eval[-1], scorer.gamma_eval[len(scorer.gamma_eval) // 2]]
    # movable zeros on candidates that can coincide with eval points
    check_visits(_Config(scorer, on_eval, list(scorer.cands["gamma"][:4]), "gamma"), mats)
    check_visits(_Config(scorer, on_eval, list(scorer.cands["e"][:3]), "e"), mats)
    assert np.min(_Config(scorer, on_eval, [], "gamma")._totals()[0]) < -600.0


def test_random_bases(scorer):
    mats = eval_major(scorer)
    rng = np.random.default_rng(7)

    def bases(n_rows, side, kind):
        yield from (scale * rng.standard_normal(n_rows) for scale in (1e-12, 1.0, 50.0))
        # sums of random candidate columns, clamped dips included
        cols = mats[(side, kind)]
        for size in (1, 3, 9):
            yield cols[:, rng.integers(0, cols.shape[1], size=size)].sum(axis=1)

    check_bases(scorer, mats, bases)


@pytest.mark.parametrize("keep", [slice(0, 1), slice(0, 63), slice(1, 66), slice(None, None, 2)],
                         ids=["one", "63", "65", "odd-count"])
def test_candidate_counts_off_the_tile_size(keep):
    scorer = NormRatioScorer(offset_condenser(), grid_n=100, gamma_cand_n=131, e_cand_n=70)
    for kind in ("gamma", "e"):
        restrict(scorer, kind, np.arange(len(scorer.cands[kind]))[keep])
    mats = eval_major(scorer)
    for key in mats:
        assert_bit_equal(scorer.mats[key], mats[key].T)
    p = [complex(scorer.cands["e"][0])] * 2
    q = [complex(scorer.cands["gamma"][-1]), 2.5 + 0.5j]
    check_visits(_Config(scorer, p, q, "gamma"), mats)
    check_visits(_Config(scorer, q, p, "e"), mats)


@pytest.mark.parametrize("kind", ["gamma", "e"])
def test_descent_matches_dense_descent(kind):
    c = offset_condenser()
    args = dict(grid_n=256, gamma_cand_n=96, e_cand_n=70)
    tiled, dense = NormRatioScorer(c, **args), NormRatioScorer(c, **args)
    p0 = [0.3 + 0.1j, -0.5j, 0.0j]
    q0 = [complex(z) for z in tiled.cands["gamma"][::20]]
    fixed, movable = (p0, q0) if kind == "gamma" else (q0, p0)
    a = _Config(tiled, fixed, movable, kind)
    b = DenseConfig(dense, fixed, movable, kind, eval_major(dense))
    assert _coordinate_descent(a) == _coordinate_descent(b)
    assert a.zeros == b.zeros
    assert tiled.evals_used == dense.evals_used > 0


def checked_scores(monkeypatch):
    """Patch the scorer so every move scoring is checked against the dense
    maximum; returns the list of (live, candidates) counts per call."""
    pruned_scores = NormRatioScorer.move_scores
    visits = []

    def checked(self, kind, base_e, base_g, floor):
        out = pruned_scores(self, kind, base_e, base_g, floor)
        dense = (np.max(base_e[:, None] + self.mats[("e", kind)].T, axis=0)
                 - np.max(base_g[:, None] + self.mats[("gamma", kind)].T, axis=0))
        live = check_pruned(out, dense, SIGN[kind], floor)
        visits.append((int(np.count_nonzero(live)), out.size))
        return out

    monkeypatch.setattr(extremal.NormRatioScorer, "move_scores", checked)
    return visits


@pytest.mark.parametrize("name,n,k", [("level", 16, 8), ("offset", 16, 8), ("offset", 12, 3)])
def test_every_visit_of_a_chi_run_matches(monkeypatch, name, n, k):
    visits = checked_scores(monkeypatch)
    est = chi_asymptotic_pair(CONDENSERS[name](), n, k, grid_n=512, seed=0)
    assert est.chi_lower <= est.chi_upper
    assert len(visits) > n  # one move scoring per visit


def test_every_visit_of_a_bruteforce_run_matches(monkeypatch):
    visits = checked_scores(monkeypatch)
    est = chi_bruteforce(offset_condenser(), 3, 2, grid_n=512, restarts=1, seed=0)
    assert est.chi_lower <= est.chi_upper
    assert len(visits) > 6


def proxy_walk(scores, val):
    """The moves chi_bruteforce's proxy loop reads, in order."""
    walk = []
    for j in np.argsort(scores, kind="stable")[:4]:
        if scores[j] >= val - _IMPROVE_EPS:
            break
        walk.append(int(j))
    return walk


def test_bruteforce_proxy_walk_matches_dense(scorer):
    mats = eval_major(scorer)
    center = scorer.condenser.e_domain.midpoint
    q = list(scorer.cands["gamma"][1::9][:4])
    cfg = _Config(scorer, q, [center, complex(scorer.cands["e"][-1])], "e")
    rng = np.random.default_rng(5)
    for i in range(len(cfg.zeros)):
        dense = dense_move_scores(cfg, i, mats)
        ordered = np.sort(dense)
        # vals around the 1st, 3rd and 5th smallest scores, ties included
        vals = [*ordered[[0, 2, min(4, dense.size - 1)]], ordered[0] + _IMPROVE_EPS,
                ordered[min(4, dense.size - 1)] + rng.uniform(0.0, 1e-3), np.inf, -np.inf]
        for val in vals:
            pruned = cfg.move_scores(i, -val + _IMPROVE_EPS)
            assert proxy_walk(pruned, val) == proxy_walk(dense, val)


def test_level_descent_scores_few_candidates_exactly(monkeypatch):
    visits = checked_scores(monkeypatch)
    chi_asymptotic_pair(concentric_condenser(), 64, 32, seed=0)
    live, total = np.sum(visits, axis=0)
    assert live < 0.05 * total
