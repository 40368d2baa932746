"""Estimation of the extremal norm-ratio constant over polynomial pairs.

Everything runs in the log domain on fixed scan grids: a configuration of
zeros is scored by

    obj = max over plate scan of sum_j log|z - a_j|
        - max over curve scan of sum_j log|z - a_j|,

which is the log of ||pq||_plate / ||pq||_curve and, after dividing by n,
exactly the minimax functional of the combined counting measure on the same
scan sets.  Cyclic coordinate descent moves one zero at a time to the best
candidate of a grid, and the zero's kind sets the direction: a q zero moves
on the curve candidates and ascends toward the sup over q, a p zero moves on
the plate candidates and descends toward the inf over p.  A visit passes the
floor its move must clear, and the candidates are pruned against it in
stages.  The side a move's score adds (the other kind's eval set) is bounded
above by block maxima; the side it subtracts (its own kind's) is bounded
below by attained sums, first for every candidate at its own block rows (the
first row where it peaks in each eval block, read next to the block maxima),
then for the survivors at the largest base row of every eval block.  A candidate
whose bound still clears the floor gets the exact maximum of the added side,
is pruned again with that value, and only a survivor sums the other side.
Float addition, subtraction and maximum are monotone, so each prune drops
only candidates whose score cannot clear the floor, and a survivor's score
is bit-identical to the dense maximum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .balayage import _alpha_measure
from .errors import BudgetExceeded, GridTooClose, GridTooCoarse
from .equilibrium import _leja_indices, exchange_allocation, fekete_green, leja_weighted
from .geometry import Condenser, boundary_samples, interior_spots, sample_curve
from .measure import (_CHUNK_ENTRIES, _SPOTS, DiscreteMeasure, M_functional, log_abs,
                      log_potential, minimax_scan_sets)

_IMPROVE_EPS = 1e-13
_MAX_SWEEPS = 40  # coordinate-descent budget of the chi estimators
_BRUTEFORCE_BUDGET = 10 ** 6  # scored configurations of chi_bruteforce
_PAIR_BUDGET = 10 ** 8  # scored configurations of chi_asymptotic_pair
_SCAN_CAP = 2048  # largest scan grid of a chi estimator's scorer
BRUTEFORCE_MAX_N = 6  # the nested search runs at n <= 6 only
CHI_METHODS = ("auto", "bruteforce", "asymptotic_pair")
# eval rows per block of the move-score bounds: block maxima bound one side
# from above, and each block's largest base row gives attained sums below
_ROW_BLOCK = 64


@dataclass(frozen=True)
class ZeroConfig:
    """Zero multiset of a monic polynomial pair (p, q) with degree bounds."""

    p_zeros: tuple
    q_zeros: tuple
    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        if len(self.p_zeros) > self.k:
            raise ValueError("too many p zeros for the degree bound k")
        if len(self.q_zeros) > self.n - self.k:
            raise ValueError("too many q zeros for the degree bound n - k")


@dataclass(frozen=True)
class ChiEstimate:
    """Sandwich estimate of the extremal constant at one (n, k)."""

    n: int
    k: int
    chi_upper: float
    chi_lower: float
    log_rate_upper: float  # (1/n) log chi_upper
    log_rate_lower: float
    method: str
    config: ZeroConfig
    converged: bool  # every coordinate descent stopped on a clean sweep


def ratio_norms(zc: ZeroConfig, c: Condenser, grid_n: int = 4096) -> float:
    """||pq||_plate / ||pq||_curve by log-domain evaluation on the scan grids."""
    return float(np.exp(log_ratio_norms(zc, c, grid_n)))


def log_ratio_norms(zc: ZeroConfig, c: Condenser, grid_n: int = 4096) -> float:
    """log of the norm ratio; stays finite where the ratio itself underflows.

    It is M of the unit-weight counting measure of the zeros, on the same scan
    sets (log|pq| = -U^sigma), so the empty configuration gives 0.
    """
    zeros = list(zc.p_zeros) + list(zc.q_zeros)
    if not zeros:
        return 0.0
    return M_functional(DiscreteMeasure(zeros, np.ones(len(zeros))), c, grid_n)


# ---------------------------------------------------------------------------
# incremental scorer


class NormRatioScorer:
    """Batched incremental evaluation of the log norm-ratio objective.

    Candidate grids: curve samples for q zeros, plate boundary plus interior
    rings (with the exact plate center) for p zeros.  A budget on the number
    of scored configurations guards runaway searches.
    """

    def __init__(self, c: Condenser, grid_n: int = 2048, gamma_cand_n: int = 512,
                 e_cand_n: int = 192, budget: int = 10 ** 9):
        self.condenser = c
        self.gamma_eval, self.e_eval = minimax_scan_sets(c, grid_n)
        self.cands = {"gamma": sample_curve(c.gamma, gamma_cand_n).points,
                      "e": _plate_candidates(c, e_cand_n)}
        # candidate-major: row c holds log|cand_c - eval| over one eval set,
        # so a move copies a contiguous row
        self.mats, self.bounds = {}, {}
        for kind, pts in self.cands.items():
            for side, ev in (("e", self.e_eval), ("gamma", self.gamma_eval)):
                self.mats[(side, kind)], self.bounds[(side, kind)] = _log_distance_rows(pts, ev)
        self.cand_rows = _candidate_rows(self.cands)
        self.budget = budget
        self.evals_used = 0

    def _charge(self, n: int):
        self.evals_used += n
        if self.evals_used > self.budget:
            raise BudgetExceeded(
                f"ratio evaluation budget of {self.budget} exhausted")

    def columns(self, z: complex):
        """Log-distance columns of a single zero over both eval sets.  A zero
        on a candidate shares that candidate's rows of mats: |a - b| and
        |b - a| are the same float, so are their logs."""
        hit = self.cand_rows.get(z)
        if hit is None:
            return (log_abs(self.e_eval - z), log_abs(self.gamma_eval - z))
        kind, i = hit
        return self.mats[("e", kind)][i], self.mats[("gamma", kind)][i]

    def move_scores(self, kind: str, base_e: np.ndarray, base_g: np.ndarray,
                    floor: float) -> np.ndarray:
        """max_r (base_e[r] + M_e[c, r]) - max_r (base_g[r] + M_g[c, r]) for each
        candidate c of a kind whose sign * score can exceed floor, else -sign * inf.

        sign is +1 for q zeros (kind "gamma") and -1 for p: sign * score adds
        the maximum over the other eval set and subtracts the one over the
        candidates' own.  Its upper bound is the largest sum of candidate and
        base block maxima minus a lower bound of the subtracted maximum, which
        tightens in two stages.  Every candidate is pruned first with the
        attained sums of _block_tops, read from contiguous bounds; only the
        survivors take the base-row sums of _lower_tops, and are pruned again
        with the better of the two.  A survivor then gets its exact maximum on
        the added side, is pruned once more with that value minus the same
        lower bound, and only what is left sums the subtracted side.  Float
        arithmetic is monotone, so a pruned sign * score is at most floor, and
        a live score takes both exact maxima: it is bit-identical to the dense one.
        """
        bases = {"e": base_e, "gamma": base_g}
        up, down = ("e", "gamma") if kind == "gamma" else ("gamma", "e")
        blocks = np.maximum.reduceat(bases[up], np.arange(0, bases[up].size, _ROW_BLOCK))
        upper = np.max(self.bounds[(up, kind)][0] + blocks[:, None], axis=0)
        lower = self._block_tops(down, kind, bases[down])
        live = np.flatnonzero(upper - lower > floor)
        lower = np.maximum(lower[live], self._lower_tops(down, kind, bases[down], live))
        keep = upper[live] - lower > floor
        live, lower = live[keep], lower[keep]
        tops = {up: np.max(self.mats[(up, kind)][live] + bases[up], axis=1)}
        keep = tops[up] - lower > floor
        live, tops[up] = live[keep], tops[up][keep]
        tops[down] = np.max(self.mats[(down, kind)][live] + bases[down], axis=1)
        scores = np.full(upper.size, -np.inf if kind == "gamma" else np.inf)
        scores[live] = tops["e"] - tops["gamma"]
        return scores

    def _block_tops(self, side: str, kind: str, base: np.ndarray) -> np.ndarray:
        """Attained sums base[r] + M[c, r] of every candidate c, each at most its
        exact maximum over r: the best of those at c's own block rows, the
        first row where M[c] peaks in every _ROW_BLOCK eval block.  One of
        them is c's largest entry."""
        block_max, block_row = self.bounds[(side, kind)]
        return np.max(block_max + np.take(base, block_row), axis=0)

    def _lower_tops(self, side: str, kind: str, base: np.ndarray,
                    live: np.ndarray) -> np.ndarray:
        """Attained sums base[r] + M[c, r] of the candidates c in live, each at
        most its exact maximum over r: the best of those at the first largest
        row of base in every _ROW_BLOCK eval block.  Those rows spread over the
        whole eval set; the few largest rows of base can all sit in one spot."""
        rows = _block_rows(base)
        return np.max(self.mats[(side, kind)][np.ix_(live, rows)] + base[rows], axis=1)


def _candidate_rows(cands: dict) -> dict:
    """Candidate value -> (kind, row): a zero on a candidate takes its rows."""
    return {z: (kind, i) for kind, pts in cands.items() for i, z in enumerate(pts.tolist())}


def _block_rows(a: np.ndarray) -> np.ndarray:
    """Index of the first largest entry of a in every _ROW_BLOCK block along
    its last axis (the ragged tail is a block of its own)."""
    n = a.shape[-1]
    n_blocks = -(-n // _ROW_BLOCK)
    padded = np.full((*a.shape[:-1], n_blocks * _ROW_BLOCK), -np.inf)
    padded[..., :n] = a
    blocks = padded.reshape(*a.shape[:-1], n_blocks, _ROW_BLOCK)
    return np.arange(0, n, _ROW_BLOCK) + np.argmax(blocks, axis=-1)


def _row_bounds(m: np.ndarray):
    """(block maxima, block rows) of a candidate-major matrix, both
    block-major: entry [b, c] is candidate c's largest entry over the b-th
    _ROW_BLOCK eval rows (the ragged tail is a block of its own), and the
    first row where it is attained.  A bound over the blocks is then a
    reduction of whole contiguous rows of candidates."""
    block_row = _block_rows(m).T
    return m[np.arange(m.shape[0]), block_row], block_row


def _log_distance_rows(pts: np.ndarray, ev: np.ndarray):
    """(M, _row_bounds(M)) of M[c, r] = log|pts[c] - ev[r]|, built in chunks
    of about measure._CHUNK_ENTRIES entries (at least one row) written into
    preallocated arrays, so no temporary grows with the matrix.  Each entry
    is computed on its own, so it does not depend on its chunk."""
    m = np.empty((pts.size, ev.size))
    n_blocks = -(-ev.size // _ROW_BLOCK)
    block_max = np.empty((n_blocks, pts.size))
    block_row = np.empty((n_blocks, pts.size), dtype=np.intp)
    rows = max(1, _CHUNK_ENTRIES // ev.size)
    for lo in range(0, pts.size, rows):
        chunk = m[lo:lo + rows]
        chunk[...] = log_abs(pts[lo:lo + rows, None] - ev)
        block_max[:, lo:lo + rows], block_row[:, lo:lo + rows] = _row_bounds(chunk)
    return m, (block_max, block_row)


def _plate_candidates(c: Condenser, n: int) -> np.ndarray:
    """Plate candidates for a count of n: on a disk, a boundary ring of at
    least 16 samples, the center and interior rings (at most n in all, so n
    must be at least 17); on a segment, the boundary grid."""
    e = c.e_domain
    if e.kind != "disk":
        return boundary_samples(e, n)
    n_boundary = max(16, (2 * n) // 3)
    if n < n_boundary + 1:
        raise GridTooCoarse(f"e_cand_n = {n} < 17 on a disk plate")
    pts = [boundary_samples(e, n_boundary), np.array([e.center], dtype=complex)]
    rings = interior_spots(e, n - n_boundary - 1)
    if rings.size:
        pts.append(rings)
    return np.concatenate(pts)


class _Config:
    """A zero configuration with running log sums over the eval sets.

    fixed zeros never move; movable zeros share one kind: q ascends, p descends.
    """

    def __init__(self, scorer: NormRatioScorer, fixed_zeros, movable_zeros, kind: str):
        self.scorer = scorer
        self.kind = kind
        self.sign = 1.0 if kind == "gamma" else -1.0
        self.fixed_le = np.zeros(scorer.e_eval.size)
        self.fixed_lg = np.zeros(scorer.gamma_eval.size)
        for z in fixed_zeros:
            ce, cg = scorer.columns(complex(z))
            self.fixed_le += ce
            self.fixed_lg += cg
        self.zeros = [complex(z) for z in movable_zeros]
        self.cols = [scorer.columns(z) for z in self.zeros]
        self._sums = None

    def _totals(self):
        """(le, lg) summed over all zeros; cached until the next move or drop.
        Callers must not write to the returned arrays."""
        if self._sums is None:
            le = self.fixed_le.copy()
            lg = self.fixed_lg.copy()
            for ce, cg in self.cols:
                le += ce
                lg += cg
            self._sums = (le, lg)
        return self._sums

    def objective(self) -> float:
        self.scorer._charge(1)
        le, lg = self._totals()
        return float(np.max(le) - np.max(lg))

    def move_scores(self, i: int, floor: float) -> np.ndarray:
        """Objective after moving zero i to each candidate of its kind whose
        sign * objective can exceed floor; -sign * inf for the others."""
        self.scorer._charge(len(self.scorer.cands[self.kind]))
        le, lg = self._totals()
        return self.scorer.move_scores(self.kind, le - self.cols[i][0],
                                       lg - self.cols[i][1], floor)

    def drop_score(self, i: int) -> float:
        self.scorer._charge(1)
        le, lg = self._totals()
        return float(np.max(le - self.cols[i][0]) - np.max(lg - self.cols[i][1]))

    def apply_move(self, i: int, cand_idx: int):
        self.zeros[i] = complex(self.scorer.cands[self.kind][cand_idx])
        self.cols[i] = self.scorer.columns(self.zeros[i])
        self._sums = None

    def apply_drop(self, i: int):
        del self.zeros[i]
        del self.cols[i]
        self._sums = None


def _coordinate_descent(cfg: _Config):
    """Cyclic single-zero improvement until a clean sweep; returns
    (final objective, converged).

    cfg.sign = +1 maximizes, -1 minimizes; every accepted step strictly
    improves.  The loop stops at _MAX_SWEEPS sweeps, read when it runs, and
    converged is False when the last of them still improved.
    """
    sign = cfg.sign
    best = cfg.objective()
    for _ in range(_MAX_SWEEPS):
        improved = False
        i = 0
        while i < len(cfg.zeros):
            scores = cfg.move_scores(i, sign * best + _IMPROVE_EPS)
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
                continue  # indices shifted; do not advance
            i += 1
        if not improved:
            return best, True
    return best, False


def _warn_unconverged(converged: bool, n: int, k: int):
    if not converged:
        warnings.warn(f"coordinate descent stopped at max_sweeps = {_MAX_SWEEPS} before "
                      f"converging (n = {n}, k = {k})", RuntimeWarning, stacklevel=2)


def _multistart(scorer: NormRatioScorer, fixed, starts, kind: str):
    """Best objective over the movable zeros of a kind at fixed zeros: a
    coordinate descent from each start, where a later start wins only if
    strictly better.  Returns (value, zeros, every descent converged); kind
    "gamma" gives the sup over q, kind "e" the inf over p."""
    best_val, best, converged = None, [], True
    for z0 in starts:
        cfg = _Config(scorer, fixed, z0, kind)
        val, ok = _coordinate_descent(cfg)
        converged = converged and ok
        if best_val is None or cfg.sign * val > cfg.sign * best_val:
            best_val, best = val, list(cfg.zeros)
    return best_val, best, converged


def _sup_over_q(scorer: NormRatioScorer, p_zeros, starts):
    """sup over q of the objective at fixed p zeros: the ascent multistart
    with the empty q as its last start."""
    return _multistart(scorer, p_zeros, [*starts, []], "gamma")


def _leja_points(cands: np.ndarray, m: int) -> list:
    return [complex(z) for z in cands[_leja_indices(cands, m)]]


# ---------------------------------------------------------------------------
# chi estimators


def chi_bruteforce(c: Condenser, n: int, k: int, grid_n: int = 2048,
                   restarts: int = 2, seed: int = 0) -> ChiEstimate:
    """Nested minimax search at small n: outer inf over p zeros, inner sup
    over q zeros, both by multistart cyclic coordinate descent on candidate
    grids, with lower degrees explored through zero-dropping moves.

    k = 0 is exact: the constant polynomial is the inner maximizer (the
    maximum principle caps the ratio at 1), so chi = 1.  Every descent, the
    outer search over p and the inner sups that re-check a trial p included,
    stops at _MAX_SWEEPS sweeps; converged is False when any of them stopped
    there still improving.  A later sweep can re-try a trial p at the same
    q_star: its re-check sup is taken from a memo, and charged to the budget
    as if it ran again.
    """
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"chi_bruteforce is restricted to n <= {BRUTEFORCE_MAX_N}")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return _estimate(n, k, 0.0, 0.0, "bruteforce", ZeroConfig((), (), n, k), True)

    scorer = NormRatioScorer(c, grid_n=min(grid_n, _SCAN_CAP), gamma_cand_n=256,
                             e_cand_n=160, budget=_BRUTEFORCE_BUDGET)
    rng = np.random.default_rng(seed)
    e_cands = scorer.cands["e"]
    g_cands = scorer.cands["gamma"]
    # each p start scores at least one proxy move (p has k >= 1 zeros), which
    # charges len(e_cands) configurations: past this the budget must run out
    starts = 2 + max(0, restarts)
    if starts * len(e_cands) > _BRUTEFORCE_BUDGET:
        raise BudgetExceeded(f"{starts} p starts score at least {starts * len(e_cands)} "
                             f"configurations, over the budget of {_BRUTEFORCE_BUDGET}")

    p_starts = [_leja_points(boundary_samples(c.e_domain, 128), k),
                [c.e_domain.midpoint] * k]
    for _ in range(max(0, restarts)):
        p_starts.append([complex(e_cands[i]) for i in rng.integers(0, len(e_cands), size=k)])
    q_leja = _leja_points(g_cands, n - k)
    memo = {}  # (trial p, q start) -> (value, q, converged, configurations scored)

    def recheck(trial, q_start):
        """The sup over q at a trial p from q_start and q_leja.  It is a
        deterministic descent, so a repeat returns the first run's result
        and charges the configurations that run scored."""
        key = (tuple(trial), tuple(q_start))
        if key in memo:
            *result, cost = memo[key]
            scorer._charge(cost)
            return result
        used = scorer.evals_used
        result = _sup_over_q(scorer, trial, [q_start, q_leja])
        memo[key] = (*result, scorer.evals_used - used)
        return result

    best = None  # (value, p_zeros, q_zeros)
    converged = True
    for p0 in p_starts:
        q_starts = [q_leja]
        if n - k > 0:
            q_starts.append([complex(g_cands[i])
                             for i in rng.integers(0, len(g_cands), size=n - k)])
        val, q_star, ok = _sup_over_q(scorer, p0, q_starts)
        converged = converged and ok
        p_cur = list(p0)
        for _ in range(_MAX_SWEEPS):  # outer sweeps
            improved = False
            i = 0
            while i < len(p_cur):
                proxy_cfg = _Config(scorer, q_star, p_cur, "e")
                scores = proxy_cfg.move_scores(i, -val + _IMPROVE_EPS)
                order = np.argsort(scores, kind="stable")[:4]  # most promising moves
                for j in order:
                    if scores[j] >= val - _IMPROVE_EPS:
                        break
                    trial = list(p_cur)
                    trial[i] = complex(e_cands[j])
                    tv, tq, ok = recheck(trial, q_star)
                    converged = converged and ok
                    if tv < val - _IMPROVE_EPS:
                        p_cur, val, q_star = trial, tv, tq
                        improved = True
                        break
                # degree reduction on p
                trial = p_cur[:i] + p_cur[i + 1:]
                tv, tq, ok = recheck(trial, q_star)
                converged = converged and ok
                if tv < val - _IMPROVE_EPS:
                    p_cur, val, q_star = trial, tv, tq
                    improved = True
                    continue
                i += 1
            if not improved:
                break
        else:
            converged = False
        if best is None or val < best[0]:
            best = (val, list(p_cur), list(q_star))

    log_upper, p_best, q_best = best
    log_lower, _, ok = _multistart(scorer, q_best, [p_best], "e")
    converged = converged and ok
    _warn_unconverged(converged, n, k)
    return _estimate(n, k, log_upper, log_lower, "bruteforce",
                     ZeroConfig(tuple(p_best), tuple(q_best), n, k), converged)


def _pair_grid(m: int) -> int:
    """Grid size of an m-atom stage of chi_asymptotic_pair: 16 slots per
    atom, and at least 4096."""
    return max(4096, 16 * m)


def chi_asymptotic_pair(c: Condenser, n: int, k: int, grid_n: int = 2048,
                        seed: int = 0) -> ChiEstimate:
    """Sandwich from the equilibrium discretizations: p from the plate Leja
    points, q from the curve Fekete points, polished by coordinate descent.

    chi_upper is the inner sup over q at the better of the two p configs;
    chi_lower descends p at the fixed Fekete q.  Both descents start from the
    shared pair, which forces chi_lower <= chi_upper.  k = n and k = 0 need no
    branch: theta = k / n is then exactly 1 or 0, where the stage solvers
    return the zero measure.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    theta = k / n
    lam = fekete_green(c, theta, n - k, _pair_grid(n - k), seed)
    mu = leja_weighted(c, lam, theta, k, _pair_grid(k))
    q0 = [complex(z) for z in lam.points]
    p0 = [complex(z) for z in mu.points]

    scorer = NormRatioScorer(c, grid_n=min(grid_n, _SCAN_CAP), gamma_cand_n=min(1024, grid_n),
                             e_cand_n=256, budget=_PAIR_BUDGET)

    log_upper, q_star, converged = _sup_over_q(scorer, p0, [q0])

    # the inf side descends from the Leja start and from the all-at-center
    # start (the config whose swept counting measure is the plate equilibrium
    # distribution); single-zero moves cannot cross between the two basins
    log_lower, p_star, ok = _multistart(scorer, q0, [p0, [c.e_domain.midpoint] * k], "e")
    converged = converged and ok

    if p_star != p0:
        # re-run the sup at the improved p, again from the Fekete start so the
        # sandwich ordering is preserved by construction
        polished, q_polished, ok = _sup_over_q(scorer, p_star, [q0])
        converged = converged and ok
        if polished < log_upper:
            log_upper, q_star = polished, q_polished
    _warn_unconverged(converged, n, k)

    return _estimate(n, k, log_upper, log_lower, "asymptotic_pair",
                     ZeroConfig(tuple(p_star), tuple(q_star), n, k), converged)


def chi_estimate(c: Condenser, n: int, k: int, method: str = "auto", grid_n: int = 2048,
                 restarts: int = 2, seed: int = 0) -> ChiEstimate:
    """chi by one of CHI_METHODS; "auto" runs the nested search for n <=
    BRUTEFORCE_MAX_N and the equilibrium pair otherwise.  restarts applies to
    the nested search only; both cap their scan grids at _SCAN_CAP."""
    if method == "auto":
        method = "bruteforce" if n <= BRUTEFORCE_MAX_N else "asymptotic_pair"
    if method == "bruteforce":
        return chi_bruteforce(c, n, k, grid_n=grid_n, restarts=restarts, seed=seed)
    if method == "asymptotic_pair":
        return chi_asymptotic_pair(c, n, k, grid_n=grid_n, seed=seed)
    raise ValueError(f"unknown chi method {method!r}; choose one of {CHI_METHODS}")


def chi_allocation(n: int, k: int, grid_n: int) -> int:
    """Float64 entries of the largest array chi_estimate plans at (n, k,
    grid_n), by either method, with scan = min(grid_n, _SCAN_CAP):

      - the equilibrium pair's exchange run of n - k atoms on
        _pair_grid(n - k) slots (equilibrium.exchange_allocation; none when
        k = n) and its complex Leja grid of 2 _pair_grid(k);
      - the scorer's largest candidate x eval matrix.  A kind has at most
        min(1024, grid_n) curve or 257 plate candidates (256, made odd on a
        segment), and an eval set at most scan + _SPOTS points;
      - the descents' log columns: n zeros, each over both scan sets,
        n x (2 scan + _SPOTS).
    """
    scan = min(grid_n, _SCAN_CAP)
    return max(exchange_allocation(n - k, _pair_grid(n - k)) if n > k else 0, 2 * _pair_grid(k),
               max(257, min(1024, grid_n)) * (scan + _SPOTS), n * (2 * scan + _SPOTS))


def _estimate(n, k, log_upper, log_lower, method, config, converged) -> ChiEstimate:
    return ChiEstimate(n=n, k=k,
                       chi_upper=float(np.exp(log_upper)),
                       chi_lower=float(np.exp(log_lower)),
                       log_rate_upper=log_upper / n,
                       log_rate_lower=log_lower / n,
                       method=method, config=config, converged=converged)


# ---------------------------------------------------------------------------
# zero distribution diagnostics


def zero_distribution_diag(zc: ZeroConfig, c: Condenser, reference: DiscreteMeasure,
                           test_grid, boundary_grid_n: int = 4096) -> float:
    """Weak-star proxy: max over the test grid of |U^{alpha(p)} - U^{reference}|.

    The test grid must keep distance >= 0.05 from both supports.
    """
    pts = np.asarray(test_grid, dtype=complex)
    alpha = _alpha_measure(np.asarray(zc.p_zeros, dtype=complex), c, zc.n, boundary_grid_n)
    for supp in (alpha.points, reference.points):
        if supp.size and pts.size:
            d = np.min(np.abs(pts[:, None] - supp[None, :]), axis=1)
            if np.min(d) < 0.05:
                raise GridTooClose("test grid comes within 0.05 of a measure support")
    ua = np.atleast_1d(log_potential(alpha, pts))
    ur = np.atleast_1d(log_potential(reference, pts))
    return float(np.max(np.abs(ua - ur)))
