"""Oracle for the best-first move scoring: the dense column maximum over the
eval-major score matrices, kept verbatim, is the reference.  best_moves must
return the first count entries of the dense stable ranking (best first, ties
to the lowest index) that clear the floor, with scores bit-identical to the
dense ones."""

import tracemalloc

import numpy as np
import pytest

from condenser_widths import Condenser, CurveSpec, EDomain, concentric_condenser, offset_condenser
from condenser_widths import extremal
from condenser_widths.extremal import (_IMPROVE_EPS, _MAX_SWEEPS, _PROXY_MOVES, _ROW_BLOCK,
                                       NormRatioScorer, _Config, _candidate_rows,
                                       _coordinate_descent, _multistart, _row_bounds,
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


def config(scorer, fixed_zeros, movable_zeros, kind):
    return _Config(scorer, scorer.column_sums(fixed_zeros), movable_zeros, kind)


def dense_ranking(dense, sign):
    """Every candidate, best sign * score first and ties to the lowest index."""
    return np.array(sorted(range(dense.size), key=lambda c: (-sign * dense[c], c)),
                    dtype=np.intp)


class DenseConfig(_Config):
    """A configuration moved through the eval-major matrices."""

    def __init__(self, scorer, fixed_zeros, movable_zeros, kind, mats):
        super().__init__(scorer, scorer.column_sums(fixed_zeros), movable_zeros, kind)
        self.mats = mats

    def apply_move(self, i, cand_idx):
        self.zeros[i] = complex(self.scorer.cands[self.kind][cand_idx])
        self.cols[i] = (self.mats[("e", self.kind)][:, cand_idx].copy(),
                        self.mats[("gamma", self.kind)][:, cand_idx].copy())
        self._sums = None


def dense_descent(cfg, mats):
    """The reference cyclic descent: it scores every move densely and takes
    the argmax of sign * score."""
    sign = cfg.sign
    best = cfg.objective()
    for _ in range(_MAX_SWEEPS):
        improved = False
        i = 0
        while i < len(cfg.zeros):
            scores = dense_move_scores(cfg, i, mats)
            j = int(np.argmax(sign * scores))
            if sign * scores[j] > sign * best + _IMPROVE_EPS:
                cfg.apply_move(i, j)
                best = float(scores[j])
                improved = True
            dropped = cfg.drop_score(i)
            if sign * dropped > sign * best + _IMPROVE_EPS:
                cfg.apply_drop(i)
                best = dropped
                improved = True
                continue
            i += 1
        if not improved:
            return best, True
    return best, False


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


def check_best(out, dense, ranked, sign, floor, count):
    """out = (indices, scores) is the first count candidates of the dense
    ranking that clear the floor, and its scores are the dense ones, bit for
    bit."""
    moves, scores = out
    want = ranked[sign * dense[ranked] > floor][:count]
    assert np.array_equal(moves, want)
    assert_bit_equal(scores, dense[want])


def check_floors(best, dense, kind):
    """best(floor, count) against the dense scores of a kind, for count 1, 4
    and every candidate: all candidates in order at floor -inf, none at +inf,
    and the same at random floors, at ties with random scores and with each
    dense score, and just above them."""
    rng = np.random.default_rng(11)
    sign = SIGN[kind]
    signed = sign * dense
    ties = signed[rng.integers(0, signed.size, size=2)]
    floors = [-np.inf, np.inf, *np.quantile(signed, [0.0, 0.5, 0.99]), *ties,
              *(ties + _IMPROVE_EPS), np.max(signed), np.max(signed) + rng.uniform(-1.0, 1.0),
              *np.unique(signed)]
    ranked = dense_ranking(dense, sign)
    for floor in floors:
        for count in (1, 4, dense.size):
            check_best(best(floor, count), dense, ranked, sign, floor, count)
    moves, _ = best(-np.inf, dense.size)
    assert moves.size == dense.size


def check_visits(cfg, mats):
    assert cfg.sign == SIGN[cfg.kind]
    for i in range(len(cfg.zeros)):
        dense = dense_move_scores(cfg, i, mats)
        check_floors(lambda floor, count: cfg.best_moves(i, floor, count), dense, cfg.kind)


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
            check_floors(lambda floor, count: scorer.best_moves(kind, base_e, base_g, floor, count),
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
    cfg = _Config(scorer, scorer.column_sums([]), zeros, "e")
    for (_, hit), cols, want in zip(cases, cfg.cols, expected):
        for side, col, x in zip(("e", "gamma"), cols, want):
            assert_bit_equal(col, x)
            if hit is None:
                assert not any(np.shares_memory(col, m) for m in scorer.mats.values())
            else:
                assert np.shares_memory(col, scorer.mats[(side, hit[0])][hit[1]])
    fixed = _Config(scorer, scorer.column_sums(zeros), [], "gamma")
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
    check_visits(config(scorer, p, q, "gamma"), mats)
    check_visits(config(scorer, q, p, "e"), mats)


def test_flat_base_all_p_at_center(scorer):
    mats = eval_major(scorer)
    center = scorer.condenser.e_domain.midpoint
    cfg = config(scorer, [center] * 4, list(scorer.cands["gamma"][:3]), "gamma")
    check_visits(cfg, mats)
    # exactly flat: every row ties
    check_bases(scorer, mats, lambda n, side, kind: [np.zeros(n), np.full(n, -3.25)])


def test_clamped_dips_on_eval_points(scorer):
    mats = eval_major(scorer)
    on_eval = [scorer.e_eval[0], scorer.e_eval[-1], scorer.gamma_eval[len(scorer.gamma_eval) // 2]]
    # movable zeros on candidates that can coincide with eval points
    check_visits(config(scorer, on_eval, list(scorer.cands["gamma"][:4]), "gamma"), mats)
    check_visits(config(scorer, on_eval, list(scorer.cands["e"][:3]), "e"), mats)
    assert np.min(config(scorer, on_eval, [], "gamma")._totals()[0]) < -600.0


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
    check_visits(config(scorer, p, q, "gamma"), mats)
    check_visits(config(scorer, q, p, "e"), mats)


@pytest.mark.parametrize("kind", ["gamma", "e"])
def test_descent_matches_dense_descent(kind):
    c = offset_condenser()
    args = dict(grid_n=256, gamma_cand_n=96, e_cand_n=70)
    tiled, dense = NormRatioScorer(c, **args), NormRatioScorer(c, **args)
    p0 = [0.3 + 0.1j, -0.5j, 0.0j]
    q0 = [complex(z) for z in tiled.cands["gamma"][::20]]
    fixed, movable = (p0, q0) if kind == "gamma" else (q0, p0)
    a = config(tiled, fixed, movable, kind)
    mats = eval_major(dense)
    b = DenseConfig(dense, fixed, movable, kind, mats)
    assert _coordinate_descent(a) == dense_descent(b, mats)
    assert a.zeros == b.zeros
    assert tiled.evals_used == dense.evals_used > 0


def counted_rows(monkeypatch):
    """Patch the scorer to count the exact row maxima it takes; returns the
    one-entry list that holds the count."""
    row_tops = NormRatioScorer._row_tops
    rows = [0]

    def counted(self, side, kind, idx, base):
        rows[0] += idx.size
        return row_tops(self, side, kind, idx, base)

    monkeypatch.setattr(extremal.NormRatioScorer, "_row_tops", counted)
    return rows


def checked_scores(monkeypatch):
    """Patch the scorer so every best_moves call is checked against the dense
    ranking; returns the list of (exact row maxima, dense row maxima) per
    call, the dense scoring taking two per candidate."""
    best_moves = NormRatioScorer.best_moves
    rows = counted_rows(monkeypatch)
    visits = []

    def checked(self, kind, base_e, base_g, floor, count):
        before = rows[0]
        out = best_moves(self, kind, base_e, base_g, floor, count)
        visits.append((rows[0] - before, 2 * len(self.cands[kind])))
        dense = (np.max(base_e[:, None] + self.mats[("e", kind)].T, axis=0)
                 - np.max(base_g[:, None] + self.mats[("gamma", kind)].T, axis=0))
        check_best(out, dense, dense_ranking(dense, SIGN[kind]), SIGN[kind], floor, count)
        return out

    monkeypatch.setattr(extremal.NormRatioScorer, "best_moves", checked)
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
    """The reference proxy walk: the first 4 moves of the stable ascending
    sort of the dense scores, up to the first that does not beat val."""
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
    cfg = config(scorer, q, [center, complex(scorer.cands["e"][-1])], "e")
    rng = np.random.default_rng(5)
    for i in range(len(cfg.zeros)):
        dense = dense_move_scores(cfg, i, mats)
        ordered = np.sort(dense)
        # vals around the 1st, 3rd and 5th smallest scores, ties included
        vals = [*ordered[[0, 2, min(4, dense.size - 1)]], ordered[0] + _IMPROVE_EPS,
                ordered[min(4, dense.size - 1)] + rng.uniform(0.0, 1e-3), np.inf, -np.inf]
        for val in vals:
            moves, _ = cfg.best_moves(i, -val + _IMPROVE_EPS, _PROXY_MOVES)
            assert moves.tolist() == proxy_walk(dense, val)


def test_level_descent_scores_few_candidates_exactly(monkeypatch):
    visits = checked_scores(monkeypatch)
    chi_asymptotic_pair(concentric_condenser(), 64, 32, seed=0)
    rows, dense_rows = np.sum(visits, axis=0)
    assert rows < 0.05 * dense_rows


def test_bruteforce_best_moves_take_few_exact_rows(monkeypatch):
    """The nested search of the chi benchmark's level (6, 3) run at seed 1
    makes 252 move scorings.  Scoring every candidate that clears the floor
    took 21545 exact row maxima there (14369 on the added side, 7176 on the
    subtracted side); scoring only the moves the search reads takes at most
    half of that."""
    rows = counted_rows(monkeypatch)
    chi_bruteforce(concentric_condenser(), 6, 3, grid_n=4096, restarts=2, seed=1)
    assert rows[0] <= 21545 // 2


@pytest.mark.parametrize("kind", ["gamma", "e"])
def test_multistart_sums_the_fixed_zeros_once(monkeypatch, kind):
    """Every start of a multistart reads one pair of fixed sums, bit-identical
    to summing the fixed zeros' log_abs columns in order."""
    scorer = NormRatioScorer(offset_condenser(), grid_n=100, gamma_cand_n=70, e_cand_n=37)
    p = [0.3 + 0.1j, complex(scorer.cands["e"][5]), -0.5j]
    q = [complex(z) for z in scorer.cands["gamma"][::9]] + [2.5 + 0.5j]
    fixed, movable = (p, q) if kind == "gamma" else (q, p)
    built = []

    class Recorded(_Config):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(extremal, "_Config", Recorded)
    _multistart(scorer, fixed, [movable, movable[:1], []], kind)
    want_e, want_g = np.zeros(scorer.e_eval.size), np.zeros(scorer.gamma_eval.size)
    for z in fixed:
        want_e += log_abs(scorer.e_eval - z)
        want_g += log_abs(scorer.gamma_eval - z)
    assert len(built) == 3
    for cfg in built:
        assert cfg.fixed_le is built[0].fixed_le and cfg.fixed_lg is built[0].fixed_lg
    assert_bit_equal(built[0].fixed_le, want_e)
    assert_bit_equal(built[0].fixed_lg, want_g)
