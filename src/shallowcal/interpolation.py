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
after that.  A sample with labels +-1 and every |x| < 2 is sorted as one
int64 key per point, the point's bits with the label in bit 0, so the sort
is one in-place ``ndarray.sort`` with no argsort and no gathers; any other
sample, or one with tied points, takes the stable argsort, with the same
bits where both apply.  The rules' edges come out of the sorted points
already sorted, which ``PiecewiseConstantRule`` checks.
``excess_zero_one_exact`` splits the support once at the cuts of p and
walks each segment's cells in blocks of ``_WALK_BLOCK``, then integrates
the wrong pieces in blocks of ``_GL_BLOCK``.  On a task that declares p
``piecewise_constant`` it reads p once per block and forms quadrature
nodes only for the few pieces within a guard of ulps of a segment's ends.
At n = 10^6 on ``constant-1d`` the 1-NN integral took 6.7-10.0 ms that
way, against 24-25 ms with 16 nodes per wrong piece, with the same bits
(medians of 15 calls in three runs, 2-vCPU x86_64 Xeon VM, numpy 2.4.6).

The n-long arrays of a trial of ``excess_risk_comparison`` are the drawn
sample (until it is sorted), the sorted sample's points (the sort keys'
buffer) and labels (and the keys' label bits while the labels are read
out), one rule's edges and signs (the 1-NN rule's signs are the sorted
labels themselves; the k-NN rule's prefix sums live while it is built)
and the array of the rule's wrong-piece values.
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

    Where every label is exactly +-1 and every |x| < 2, as in every sample
    ``distributions.sample`` draws, the sample is sorted as one int64 key
    per point (``_key_sort``): x's bits with the 63 low bits flipped on the
    negative doubles, so that the keys sort as x does, shifted left once
    with the label in bit 0.  The sorted keys give the labels from bit 0
    and x's bits back through the shift and the same flip, so no argsort
    and no gather is made.  Otherwise, or where two sorted points compare
    equal (-0.0 next to +0.0 among them), the stable argsort orders the
    sample, so tied points keep their input order.  Without ties the
    sorted order is unique, so both paths give the same bits.  At
    n = 10^6 on ``constant-1d`` the key sort took 20-25 ms, against
    57-75 ms for an argsort and two gathers; at n = 10^5, 1.5-2.9 ms
    against 2.6-4.8 ms (medians of 21 calls, four runs on [0, 1] and on
    [-1, 1], 2-vCPU x86_64 Xeon VM, numpy 2.4.6).
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=float).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("need a nonempty 1-d sample with one label per point")
    positive = y == 1.0
    # min and max, not abs: no n-long temporary.  A NaN fails the test too.
    if (np.count_nonzero(positive) + np.count_nonzero(y == -1.0) == len(y)
            and x.min() > -2.0 and x.max() < 2.0):
        s = _key_sort(x, positive)
        if s is not None:
            return s
    if not np.all(np.isfinite(x)):
        raise ValueError("sample points must be finite")
    order = np.argsort(x, kind="stable")
    return SortedSample1D(x=x.take(order), y=y.take(order))


# Bits 0-62 of a double.  Flipping them on the negative doubles makes the
# int64 order of the bits the order of the values, with -0.0 just below +0.0.
_LOW63 = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_SIGNS = np.array([-1.0, 1.0])


def _key_sort(x, positive) -> SortedSample1D | None:
    """The sample, |x| < 2, sorted by one in-place sort of int64 keys: each
    point's ordered bits shifted left once, with its label (``positive``)
    in bit 0; or None where two sorted points compare equal.  The key
    buffer becomes the sorted points."""
    bits = x.view(np.int64)
    key = bits >> 63
    key &= _LOW63
    key ^= bits
    # A double below 2 in magnitude has bit 62 clear, so -2^62 <= key < 2^62
    # and the shift cannot overflow.
    key <<= 1
    key |= positive
    key.sort()
    ys = _SIGNS.take(key & 1)
    key >>= 1
    # The negative doubles' keys are the negative prefix of the sorted keys.
    key[: np.searchsorted(key, 0)] ^= _LOW63
    xs = key.view(np.float64)
    if np.any(xs[1:] == xs[:-1]):
        return None
    return SortedSample1D(x=xs, y=ys)


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
    check("k", k, "count")
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if k > n:
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

# How far inside a segment [s, e] a piece must lie, in ulps of
# M = max(|s|, |e|), for its midpoint and nodes to be strictly inside
# (s, e), where p is constant.  A piece [a, b] in [s, e] gets them from
# b - a and a + b (each at most 2M, so rounded by at most one ulp of M),
# their halvings (exact, but for half a subnormal ulp), a product of at most
# M and a sum near M (half an ulp and one ulp): each lands within 4 ulps of
# M of its exact value, which lies in (a, b).  Twice that margin also covers
# the rounding of s + guard and e - guard.
_GUARD_ULPS = 8


def _pieces(rule: PiecewiseConstantRule, dist: Distribution):
    """Segment ends, then ends, midpoints and rule signs of the segment's
    pieces, in order, one block of at most ``_WALK_BLOCK`` cells at a time.

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
            yield s, e, a, b, mids, signs


def _guarded_span(s, e, a, b) -> tuple[int, int]:
    """(i0, i1): the block's pieces i0 <= i < i1 lie ``_GUARD_ULPS`` ulps
    inside the segment (s, e), so p is its constant at their midpoints and
    nodes; the pieces before i0 and from i1 on are the guarded prefix and
    suffix.  a and b are increasing, so two binary searches find them."""
    guard = _GUARD_ULPS * np.spacing(max(abs(s), abs(e)))
    i0 = int(np.searchsorted(a, s + guard, side="left"))
    i1 = int(np.searchsorted(b, e - guard, side="right"))
    return i0, max(i0, i1)


def _node_values(dist, a, b, mids, rule_sign, buffer, out) -> int:
    """The node path: each piece's Bayes sign from p at its midpoint, and
    each wrong piece's value from p at its 16 nodes, ``_GL_BLOCK`` pieces
    at a time in ``buffer``.  Writes the values in order to the front of
    ``out`` and returns their number."""
    if len(a) == 0:
        return 0
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
                    out=out[start : start + len(idx)])
    return len(wrong)


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
    each piece's value.

    On a task whose p is ``piecewise_constant``, the pieces of a block that
    lie a few ulps inside their segment skip the nodes: p is read once, at
    the first such piece's midpoint, each of them takes that Bayes sign,
    and a wrong one's value is its half-width times the weights' product
    with the constant row |p - 1/2|, the bits the 16 equal nodes would
    give.  Only the guarded pieces at a segment's ends, whose midpoint or
    nodes could round onto the end, take the node path.

    Every wrong piece's value goes into one array in walk order, summed
    once, so the sum depends neither on the blocks nor on the path; the
    constant 2 pdf, as |2p - 1| = 2 |p - 1/2|, multiplies it at the end.
    """
    # At most one value per piece; the pages past the wrong pieces stay untouched.
    piece_vals = np.empty(len(rule.signs) + len(dist.cuts))
    count = 0
    buffer = np.empty((min(len(piece_vals), _GL_BLOCK), len(_GL_WEIGHTS)))
    for s, e, a, b, mids, rule_sign in _pieces(rule, dist):
        i0, i1 = _guarded_span(s, e, a, b) if dist.piecewise_constant else (0, 0)
        count += _node_values(dist, a[:i0], b[:i0], mids[:i0], rule_sign[:i0],
                              buffer, piece_vals[count:])
        if i1 > i0:
            p = dist.cond_prob(mids[i0 : i0 + 1, None])[0]
            row = np.abs(np.full((1, len(_GL_WEIGHTS)), p) - 0.5)
            wrong = np.flatnonzero(rule_sign[i0:i1] != (1.0 if p >= 0.5 else -1.0))
            # Half-widths times the constant row's weighted sum: the bits of
            # the node path, whose 16 nodes would all read p.
            half = piece_vals[count : count + len(wrong)]
            np.take(b[i0:i1], wrong, out=half)
            half -= a[i0:i1].take(wrong)
            half /= 2.0
            half *= np.einsum("ij,j->i", row, _GL_WEIGHTS)
            count += len(half)
        count += _node_values(dist, a[i1:], b[i1:], mids[i1:], rule_sign[i1:],
                              buffer, piece_vals[count:])
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
