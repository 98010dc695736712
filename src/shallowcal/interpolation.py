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
which ``PiecewiseConstantRule`` checks.  ``excess_zero_one_exact`` splits
the support once at the cuts of p and walks each segment's cells in blocks
of ``_WALK_BLOCK``, then integrates the wrong pieces in blocks of
``_GL_BLOCK``.

The n-long arrays of a trial of ``excess_risk_comparison`` are the drawn
sample (until it is sorted), the sorted sample's points and labels (and the
sort order while they are gathered), one rule's edges and signs (the 1-NN
rule's signs are the sorted labels themselves; the k-NN rule's prefix sums
live while it is built) and the array of the rule's wrong-piece values.
Every other pass works in blocks, so its temporaries reuse memory the
allocator already holds.  A fresh n-long temporary is not free: at
n = 10^6 its first write faults in 1954 pages, and filling a fresh 8 MB
mapping took 3.1 ms against 0.4 ms for an array already held (2-vCPU
x86_64 Xeon VM, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _GL_WEIGHTS, Distribution, derived_seed, gauss_legendre
from .distributions import sample as draw_sample
from .metrics import check, spread

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
    xs = x.take(order)
    if np.any(xs[1:] == xs[:-1]):
        order = np.argsort(x, kind="stable")
        xs = x.take(order)
    return SortedSample1D(x=xs, y=y.take(order))


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
    """Nearest-neighbor sign rule; ties at midpoints go to the left point.

    The rule's signs are the sample's labels themselves, not a copy.
    """
    edges = s.x[:-1] + s.x[1:]
    edges /= 2.0
    return PiecewiseConstantRule(edges=edges, signs=s.y)


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
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(s.y, out=csum[1:])
    # csum[i + k] > csum[i] is the window sum's sign: a difference of two
    # doubles is positive exactly when the first is larger.
    signs = np.where(csum[k:] > csum[:-k], 1.0, -1.0)
    del csum
    edges = s.x[: n - k] + s.x[k:]
    edges /= 2.0
    return PiecewiseConstantRule(edges=edges, signs=signs)


# The rule's cells are walked _WALK_BLOCK at a time and their wrong pieces
# integrated _GL_BLOCK at a time, so every temporary of the walk is one
# block long (the node arrays _GL_BLOCK x 16) whatever the number of cells.
_WALK_BLOCK = 1 << 15
_GL_BLOCK = 4096


def _pieces(rule: PiecewiseConstantRule, dist: Distribution):
    """Ends, midpoints and rule signs of the support's pieces, in order, one
    block of at most ``_WALK_BLOCK`` cells at a time.

    The pieces are the gaps between the distinct support ends, rule edges
    and cuts of p, all clipped to the support.  The support is split once
    at the cuts; a segment (s, e) meets cells ``first`` (the number of
    edges at or below s) to ``last`` (the number below e), whose edges in
    between lie strictly inside it, so a block's bounds are its edges with
    s and e at the segment's ends.  A piece [a, b] of cell j has
    e_(j-1) <= a < mid <= b <= e_j, so ``predict`` would give it sign j,
    unless a and b are adjacent doubles and the midpoint rounds down onto
    a: those pieces are looked up with ``predict``.
    """
    if dist.support is None:
        raise ValueError(f"exact integration needs a 1-d uniform marginal, not {dist.name}")
    lo, hi = dist.support
    ends = np.unique(np.clip([lo, hi, *dist.cuts], lo, hi))
    for s, e in zip(ends[:-1], ends[1:]):
        first = np.searchsorted(rule.edges, s, side="right")
        last = np.searchsorted(rule.edges, e, side="left")
        for c0 in range(first, last + 1, _WALK_BLOCK):
            c1 = min(c0 + _WALK_BLOCK, last + 1)
            left = s if c0 == first else rule.edges[c0 - 1]
            right = e if c1 > last else rule.edges[c1 - 1]
            bounds = np.concatenate(([left], rule.edges[c0 : c1 - 1], [right]))
            a, b, signs = bounds[:-1], bounds[1:], rule.signs[c0:c1]
            keep = b > a
            if not np.all(keep):
                a, b, signs = a[keep], b[keep], signs[keep]
            mids = (a + b) / 2.0
            tie = mids == a
            if np.any(tie):
                signs = signs.copy()  # may still be a view of the rule's signs
                signs[tie] = rule.predict(mids[tie])
            yield a, b, mids, signs


def excess_zero_one_exact(rule: PiecewiseConstantRule, dist: Distribution) -> float:
    """Exact excess zero-one population risk of a piecewise-constant rule.

    Integrates |2 p(x) - 1| over the cells whose sign disagrees with the
    Bayes sign.  Piece boundaries include every rule edge and every cut of
    p (a discontinuity or 1/2-crossing), so the integrand is smooth
    on each piece and the Gauss-Legendre panels are exact for the
    piecewise-constant built-ins.  The work is linear in the number of
    edges: one walk over the sorted edges, segment by segment between the
    cuts, in blocks of ``_WALK_BLOCK`` cells (no sort, two binary searches
    per segment) finds each block's wrong pieces,
    and those are integrated in blocks of ``_GL_BLOCK`` whose nodes share
    one buffer.  A block turns its conditional probabilities in place into
    |p - 1/2|, and a product with the rule's weights and half-widths gives
    each piece's value.  Every wrong piece's value goes into one array,
    summed once, so the sum does not depend on the blocks; the constant
    2 pdf, as |2p - 1| = 2 |p - 1/2|, multiplies it at the end.
    """
    # At most one value per piece; the pages past the wrong pieces stay untouched.
    piece_vals = np.empty(len(rule.signs) + len(dist.cuts))
    count = 0
    buffer = np.empty((min(len(piece_vals), _GL_BLOCK), len(_GL_WEIGHTS)))
    for a, b, mids, rule_sign in _pieces(rule, dist):
        wrong = np.flatnonzero(
            rule_sign != np.where(dist.cond_prob(mids[:, None]) >= 0.5, 1.0, -1.0)
        )
        for start in range(0, len(wrong), _GL_BLOCK):
            idx = wrong[start : start + _GL_BLOCK]
            nodes, half = gauss_legendre(a.take(idx), b.take(idx), out=buffer[: len(idx)])
            dev = dist.cond_prob(nodes.reshape(-1, 1)).reshape(nodes.shape)
            dev -= 0.5
            np.abs(dev, out=dev)
            # einsum, not BLAS: a row's sum keeps its bits in any block and
            # under any BLAS thread count.
            np.multiply(np.einsum("ij,j->i", dev, _GL_WEIGHTS), half,
                        out=piece_vals[count : count + len(idx)])
            count += len(idx)
    return float(2.0 * dist.pdf * piece_vals[:count].sum())


@dataclass
class WrongPairReport:
    interval: tuple[float, float]
    pair_indices: np.ndarray
    covered_mass: float
    bayes_label: float
    min_margin_from_half: float
    merged_hulls: np.ndarray  # (h, 2): each merged hull's first and last point


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
    last = np.roll(first, -1)  # a run ends where the next one starts
    a, b = s.x[pair_idx[first]], s.x[pair_idx[last] + 1]
    mass = float(np.sum(dist.cdf(b) - dist.cdf(a)))
    return WrongPairReport(
        interval=(lo, hi),
        pair_indices=pair_idx,
        covered_mass=mass,
        bayes_label=bayes,
        min_margin_from_half=c1,
        merged_hulls=np.stack([a, b], axis=1),
    )


def excess_risk_comparison(
    dist: Distribution,
    n_grid,
    trials: int,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Exact excess zero-one risk of 1-NN vs k-NN across sample sizes.

    Returns (rows, summary): one row per (n, trial, rule) with the exact
    excess and, for 1-NN, the wrong-pair covered mass; the summary holds
    per-cell medians and quartiles.  Per-trial seeds are derived from the
    root seed through ``SeedSequence((seed, n_index, trial))``.  The whole
    grid is checked before any trial runs: ``trials`` and every n must be
    integers (not bools) of at least 1, no n may repeat (rows and summary
    keys would collide), and the k-NN rule's ``default_k(n)`` must be at
    most n.  Each trial drops its unsorted draw once it is sorted.
    """
    check("trials", trials, "count")
    if len(n_grid) == 0:
        raise ValueError("n_grid must name at least one sample size")
    for n in n_grid:
        check(f"sample size n={n}", n, "count")
        if default_k(n) > n:
            raise ValueError(f"k={default_k(n)} for n={n} must be at most n")
    if len(set(n_grid)) != len(n_grid):
        raise ValueError(f"n_grid names a sample size twice: {list(n_grid)}")
    rows = []
    track_pairs = dist.wrong_pair_interval is not None
    for n_idx, n in enumerate(n_grid):
        k = default_k(n)
        for trial in range(trials):
            samp = draw_sample(dist, int(n), derived_seed(seed, n_idx, trial))
            s = sorted_sample(samp.points[:, 0], samp.labels)
            del samp
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
