"""Univariate local-interpolation inconsistency experiments.

A local interpolation rule fits every training label and keeps a constant
sign between adjacent same-labeled points.  On noisy data such rules pay a
nonvanishing excess zero-one risk: adjacent pairs of points that both carry
the minority (wrong) label force the rule to predict against the Bayes
label on the whole gap between them.  The 1-nearest-neighbor classifier is
the canonical member; k-NN with k growing like ln(n) smooths the noise away
and is the contrast case.

Population zero-one risks of the piecewise-constant rules are computed
exactly: the excess equals the integral of |2 p(x) - 1| over the decision
cells that disagree with the Bayes sign, and that integral is evaluated
cell by cell with Gauss-Legendre panels split at every cut of p, so there
is no Monte Carlo noise in the reported numbers.

The pipeline sorts each sample once (``sorted_sample``) and is linear in n
after that.  The rules' edges come out of the sorted points already sorted,
which ``PiecewiseConstantRule`` checks; ``excess_zero_one_exact`` walks them
in order and integrates the wrong pieces in blocks of ``_GL_BLOCK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import _GL_WEIGHTS, Distribution, derived_seed, gauss_legendre
from .distributions import sample as draw_sample
from .metrics import spread

__all__ = [
    "PiecewiseConstantRule",
    "SortedSample1D",
    "WrongPairReport",
    "default_k",
    "excess_risk_comparison",
    "excess_zero_one_exact",
    "knn_rule",
    "one_nn_rule",
    "sorted_sample",
    "wrong_pairs",
]


@dataclass
class SortedSample1D:
    """Sample sorted by abscissa."""

    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)


def sorted_sample(points, labels) -> SortedSample1D:
    """Sort a labeled 1-d sample by abscissa; the one sort of the pipeline.

    The unstable default sort is used, since distinct keys have only one
    sorted order.  When two adjacent sorted keys compare equal the stable
    sort is made instead, so tied points keep their input order.
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=float).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("need a nonempty 1-d sample with one label per point")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample points must be finite")
    order = np.argsort(x)
    xs = x[order]
    if np.any(xs[1:] == xs[:-1]):
        order = np.argsort(x, kind="stable")
        xs = x[order]
    return SortedSample1D(x=xs, y=y[order])


@dataclass
class PiecewiseConstantRule:
    """Sign rule that is constant on the cells of an edge partition.

    Cells are (-inf, e_0], (e_0, e_1], ..., (e_last, inf): a query exactly
    on an edge belongs to the cell on its left, which realizes the
    midpoint-tie-goes-left convention of the neighbor rules.  Edges must be
    sorted (ties allowed) and free of NaN: ``predict`` binary-searches them
    and ``excess_zero_one_exact`` walks them in order.
    """

    edges: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.signs = np.asarray(self.signs)
        if len(self.signs) != len(self.edges) + 1:
            raise ValueError("need exactly one sign per cell")
        if np.any(np.isnan(self.edges)) or np.any(self.edges[1:] < self.edges[:-1]):
            raise ValueError("rule edges must be sorted and free of NaN")

    def predict(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        idx = np.searchsorted(self.edges, q, side="left")
        out = self.signs[idx]
        return float(out) if out.ndim == 0 else out


def one_nn_rule(s: SortedSample1D) -> PiecewiseConstantRule:
    """Nearest-neighbor sign rule; ties at midpoints go to the left point."""
    edges = (s.x[:-1] + s.x[1:]) / 2.0
    return PiecewiseConstantRule(edges=edges, signs=s.y.copy())


def default_k(n: int) -> int:
    """Odd k of order ln(n): 2 ceil(ln(n)/2) + 1."""
    return 2 * math.ceil(math.log(max(n, 2)) / 2.0) + 1


def knn_rule(s: SortedSample1D, k: int) -> PiecewiseConstantRule:
    """Majority vote over the k nearest points (k odd, so never tied).

    On a sorted sample the k nearest points of any query form a contiguous
    window, and the window in force changes exactly at the midpoints
    between x_i and x_(i+k); those midpoints are the cell edges.
    """
    n = s.n
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    edges = (s.x[: n - k] + s.x[k:]) / 2.0
    csum = np.concatenate([[0.0], np.cumsum(s.y)])
    window_sums = csum[k:] - csum[:-k]
    signs = np.where(window_sums > 0, 1.0, -1.0)
    return PiecewiseConstantRule(edges=edges, signs=signs)


# Wrong pieces are integrated this many at a time, so the node arrays stay
# at _GL_BLOCK x 16 whatever the number of pieces.
_GL_BLOCK = 4096


def _pieces(rule: PiecewiseConstantRule, dist: Distribution):
    """Ends, midpoints and rule signs of the support's pieces, in order.

    The pieces are the gaps between the distinct values of the support
    ends, the rule's edges and the distribution's cuts, all clipped to the
    support.  The rule's bounds ``[lo, *edges, hi]`` are already sorted and
    bound its cells in order; the few cuts are inserted into the cell each
    one splits and take that cell's sign.  A piece [a, b] of cell j has
    e_(j-1) <= a < mid <= b <= e_j, so ``predict`` would give it sign j,
    unless a and b are adjacent doubles and the midpoint rounds down onto
    a: those pieces are looked up with ``predict``.
    """
    if dist.support is None:
        raise ValueError(f"exact integration needs a 1-d uniform marginal, not {dist.name}")
    lo, hi = dist.support
    bounds = np.clip(np.concatenate([[lo], rule.edges, [hi]]), lo, hi)
    cuts = np.sort(np.clip(np.asarray(dist.cuts, dtype=float), lo, hi))
    signs = rule.signs
    # Each insert or mask below copies n-long arrays, so it is made only
    # when it changes something; a rule with no cut to insert and no
    # zero-width piece to drop is the common case.
    if len(cuts):
        at = np.searchsorted(bounds[1:-1], cuts, side="right") + 1
        bounds = np.insert(bounds, at, cuts)
        signs = np.insert(signs, at, signs[at - 1])
    a, b = bounds[:-1], bounds[1:]
    keep = b > a
    if not np.all(keep):
        a, b, signs = a[keep], b[keep], signs[keep]
    mids = (a + b) / 2.0
    tie = mids == a
    if np.any(tie):
        signs = signs.copy()
        signs[tie] = rule.predict(mids[tie])
    return a, b, mids, signs


def excess_zero_one_exact(rule: PiecewiseConstantRule, dist: Distribution) -> float:
    """Exact excess zero-one population risk of a piecewise-constant rule.

    Integrates |2 p(x) - 1| over the cells whose sign disagrees with the
    Bayes sign.  Piece boundaries include every rule edge and every cut of
    p (a discontinuity or 1/2-crossing), so the integrand is smooth
    on each piece and the Gauss-Legendre panels are exact for the
    piecewise-constant built-ins.  The work is linear in the number of
    edges: the pieces come from one walk over the sorted edges (no sort,
    no search per piece), and the wrong pieces are integrated in blocks of
    ``_GL_BLOCK`` whose nodes share one buffer.  A block turns its
    conditional probabilities in place into |p - 1/2|, and a product with
    the rule's weights and half-widths gives each piece's value; the
    constant 2 pdf, as |2p - 1| = 2 |p - 1/2|, multiplies the pieces' sum
    once at the end.
    """
    a, b, mids, rule_sign = _pieces(rule, dist)
    # One statement, so each n-long temporary is freed before the next.
    wrong = rule_sign != np.where(dist.cond_prob(mids[:, None]) >= 0.5, 1.0, -1.0)
    del mids
    if not np.any(wrong):
        return 0.0
    aw, bw = a[wrong], b[wrong]
    piece_vals = np.empty(len(aw))
    buffer = np.empty((min(len(aw), _GL_BLOCK), len(_GL_WEIGHTS)))
    for start in range(0, len(aw), _GL_BLOCK):
        blk = slice(start, start + _GL_BLOCK)
        lo, hi = aw[blk], bw[blk]
        nodes, half = gauss_legendre(lo, hi, out=buffer[: len(lo)])
        dev = dist.cond_prob(nodes.reshape(-1, 1)).reshape(nodes.shape)
        dev -= 0.5
        np.abs(dev, out=dev)
        # einsum, not BLAS: a row's sum keeps its bits in any block and
        # under any BLAS thread count.
        piece_vals[blk] = np.einsum("ij,j->i", dev, _GL_WEIGHTS) * half
    return float(2.0 * dist.pdf * piece_vals.sum())


@dataclass
class WrongPairReport:
    interval: tuple[float, float]
    pair_indices: list
    covered_mass: float
    bayes_label: float
    min_margin_from_half: float
    merged_hulls: list = field(default_factory=list)


def wrong_pairs(s: SortedSample1D, dist: Distribution) -> WrongPairReport:
    """Adjacent same-wrong-label pairs inside the distribution's declared
    interval, with the exact marginal mass of the union of their hulls."""
    if dist.wrong_pair_interval is None:
        raise ValueError(f"{dist.name} declares no interval with p bounded away from 1/2")
    lo, hi = dist.wrong_pair_interval
    grid = np.linspace(lo, hi, 4097)
    p_grid = dist.cond_prob(grid[:, None])
    c1 = float(np.min(np.abs(p_grid - 0.5)))
    bayes = 1.0 if p_grid[len(grid) // 2] >= 0.5 else -1.0

    wrong = (s.x >= lo) & (s.x <= hi) & (s.y == -bayes)
    pair_idx = np.flatnonzero(wrong[:-1] & wrong[1:])
    # Pairs i and i + 1 share point i + 1, so runs of consecutive pair
    # indices merge into one hull from the run's first point to its last.
    first = np.ones(len(pair_idx), dtype=bool)
    first[1:] = np.diff(pair_idx) != 1
    last = np.ones(len(pair_idx), dtype=bool)
    last[:-1] = first[1:]
    a, b = s.x[pair_idx[first]], s.x[pair_idx[last] + 1]
    mass = float(np.sum(dist.cdf(b) - dist.cdf(a)))
    return WrongPairReport(
        interval=(lo, hi),
        pair_indices=pair_idx.tolist(),
        covered_mass=mass,
        bayes_label=bayes,
        min_margin_from_half=c1,
        merged_hulls=list(zip(a.tolist(), b.tolist())),
    )


def excess_risk_comparison(
    dist: Distribution,
    n_grid,
    trials: int,
    seed: int = 0,
    k_for_n=default_k,
) -> tuple[list[dict], dict]:
    """Exact excess zero-one risk of 1-NN vs k-NN across sample sizes.

    Returns (rows, summary): one row per (n, trial, rule) with the exact
    excess and, for 1-NN, the wrong-pair covered mass; the summary holds
    per-cell medians and quartiles.  Per-trial seeds are derived from the
    root seed through ``SeedSequence((seed, n_index, trial))``.  The whole
    grid is checked before any trial runs: ``trials`` and every n must be at
    least 1, no n may repeat (rows and summary keys would collide), and
    ``k_for_n(n)`` must be odd and at most n.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(n_grid) == 0:
        raise ValueError("n_grid must name at least one sample size")
    if len({int(n) for n in n_grid}) != len(n_grid):
        raise ValueError(f"n_grid names a sample size twice: {list(n_grid)}")
    ks = []
    for n in n_grid:
        if int(n) < 1:
            raise ValueError(f"sample size n={n} must be at least 1")
        k = k_for_n(int(n))
        if k % 2 == 0 or not 1 <= k <= int(n):
            raise ValueError(f"k={k} for n={n} must be odd and lie in [1, n]")
        ks.append(k)
    rows = []
    track_pairs = dist.wrong_pair_interval is not None
    for n_idx, (n, k) in enumerate(zip(n_grid, ks)):
        for trial in range(trials):
            samp = draw_sample(dist, int(n), derived_seed(seed, n_idx, trial))
            s = sorted_sample(samp.points[:, 0], samp.labels)
            ex_1nn = excess_zero_one_exact(one_nn_rule(s), dist)
            covered = float("nan")
            if track_pairs:
                report = wrong_pairs(s, dist)
                covered = report.covered_mass
                floor = 2.0 * report.min_margin_from_half * covered
                if ex_1nn < floor - 1e-10:
                    raise AssertionError(
                        f"1-NN excess {ex_1nn} below wrong-pair floor {floor}"
                    )
            ex_knn = excess_zero_one_exact(knn_rule(s, k), dist)
            rows.append(
                {"n": int(n), "trial": trial, "rule": "1nn",
                 "excess_z": ex_1nn, "covered_mass": covered}
            )
            rows.append(
                {"n": int(n), "trial": trial, "rule": f"knn(k={k})",
                 "excess_z": ex_knn, "covered_mass": float("nan")}
            )
    summary = {}
    for n in n_grid:
        for rule in dict.fromkeys(r["rule"] for r in rows if r["n"] == n):
            summary[f"n={n},rule={rule}"] = spread(
                [r["excess_z"] for r in rows if r["n"] == n and r["rule"] == rule]
            )
    return rows, summary
