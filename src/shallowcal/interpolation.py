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
cell by cell with Gauss-Legendre panels split at every declared
discontinuity, so there is no Monte Carlo noise in the reported numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, derived_seed, sample as draw_sample
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
    x = np.asarray(points, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=float).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("need a nonempty 1-d sample with one label per point")
    order = np.argsort(x, kind="stable")
    return SortedSample1D(x=x[order], y=y[order])


@dataclass
class PiecewiseConstantRule:
    """Sign rule that is constant on the cells of an edge partition.

    Cells are (-inf, e_0], (e_0, e_1], ..., (e_last, inf): a query exactly
    on an edge belongs to the cell on its left, which realizes the
    midpoint-tie-goes-left convention of the neighbor rules.
    """

    edges: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        if len(self.signs) != len(self.edges) + 1:
            raise ValueError("need exactly one sign per cell")

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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _pieces_for(dist: Distribution, edges: np.ndarray):
    if dist.dim != 1 or dist.support is None or dist.cdf is None:
        raise ValueError("exact integration needs a 1-d marginal with a CDF")
    lo, hi = dist.support
    cuts = np.concatenate(
        [
            [lo, hi],
            np.asarray(edges, dtype=float),
            np.asarray(dist.breakpoints, dtype=float),
            np.asarray(dist.half_crossings, dtype=float),
        ]
    )
    cuts = np.unique(np.clip(cuts, lo, hi))
    return cuts[:-1], cuts[1:]


def excess_zero_one_exact(rule: PiecewiseConstantRule, dist: Distribution) -> float:
    """Exact excess zero-one population risk of a piecewise-constant rule.

    Integrates |2 p(x) - 1| over the cells whose sign disagrees with the
    Bayes sign.  Piece boundaries include every rule edge and every
    declared discontinuity or 1/2-crossing of p, so the integrand is smooth
    on each piece and the Gauss-Legendre panels are exact for the
    piecewise-constant built-ins.
    """
    a, b = _pieces_for(dist, rule.edges)
    keep = b > a
    a, b = a[keep], b[keep]
    mids = (a + b) / 2.0
    rule_sign = rule.predict(mids)
    p_mid = dist.cond_prob(mids[:, None])
    bayes_sign = np.where(p_mid >= 0.5, 1.0, -1.0)
    wrong = rule_sign != bayes_sign
    if not np.any(wrong):
        return 0.0
    aw, bw = a[wrong], b[wrong]
    half = (bw - aw) / 2.0
    nodes = aw[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
    p_nodes = dist.cond_prob(nodes.reshape(-1, 1)).reshape(nodes.shape)
    lo, hi = dist.support
    pdf = 1.0 / (hi - lo)
    integrand = np.abs(2.0 * p_nodes - 1.0) * pdf
    piece_vals = (integrand * _GL_WEIGHTS[None, :]).sum(axis=1) * half
    return float(piece_vals.sum())


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
    root seed through ``SeedSequence((seed, n_index, trial))``.
    """
    rows = []
    track_pairs = dist.wrong_pair_interval is not None
    for n_idx, n in enumerate(n_grid):
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
            k = k_for_n(int(n))
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
