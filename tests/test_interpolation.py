import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden

from shallowcal import interpolation
from shallowcal.distributions import _GL_WEIGHTS, gauss_legendre, make_distribution, sample
from shallowcal.interpolation import (
    PiecewiseConstantRule,
    default_k,
    excess_risk_comparison,
    excess_zero_one_exact,
    knn_rule,
    one_nn_rule,
    sorted_sample,
    wrong_pairs,
)


def fixed_sample(xs, ys):
    return sorted_sample(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))


def wrong_pieces_unique_predict(rule, dist):
    """Reference pieces: cut the support with np.unique, sign each piece
    with rule.predict and keep the ends of those against the Bayes sign."""
    lo, hi = dist.support
    cuts = np.concatenate(
        [
            [lo, hi],
            np.asarray(rule.edges, dtype=float),
            np.asarray(dist.cuts, dtype=float),
        ]
    )
    cuts = np.unique(np.clip(cuts, lo, hi))
    a, b = cuts[:-1], cuts[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    mids = (a + b) / 2.0
    rule_sign = rule.predict(mids)
    p_mid = dist.cond_prob(mids[:, None])
    bayes_sign = np.where(p_mid >= 0.5, 1.0, -1.0)
    wrong = rule_sign != bayes_sign
    return a[wrong], b[wrong]


def excess_unique_predict(rule, dist):
    """Reference integral: all wrong pieces of ``wrong_pieces_unique_predict``
    in one node array."""
    a, b = wrong_pieces_unique_predict(rule, dist)
    if len(a) == 0:
        return 0.0
    nodes, half = gauss_legendre(a, b)
    dev = np.abs(dist.cond_prob(nodes.reshape(-1, 1)).reshape(nodes.shape) - 0.5)
    piece_vals = np.einsum("ij,j->i", dev, _GL_WEIGHTS) * half
    return float(2.0 * dist.pdf * piece_vals.sum())


def wrong_pairs_loop(s, dist):
    """Reference loop: (pair indices, merged hulls, covered mass)."""
    lo, hi = dist.wrong_pair_interval
    grid = np.linspace(lo, hi, 4097)
    bayes = 1.0 if dist.cond_prob(grid[:, None])[len(grid) // 2] >= 0.5 else -1.0
    inside = (s.x >= lo) & (s.x <= hi)
    pair_idx = [
        i
        for i in range(s.n - 1)
        if inside[i] and inside[i + 1] and s.y[i] == s.y[i + 1] == -bayes
    ]
    merged = []
    for i in pair_idx:
        if merged and i == merged[-1][1]:
            merged[-1] = (merged[-1][0], i + 1)
        else:
            merged.append((i, i + 1))
    hulls = [(float(s.x[i]), float(s.x[j])) for i, j in merged]
    mass = float(sum(dist.cdf(np.array([b]))[0] - dist.cdf(np.array([a]))[0] for a, b in hulls))
    return pair_idx, hulls, mass


class TestOneNN:
    def test_training_points_get_their_labels(self):
        s = fixed_sample([0.1, 0.4, 0.8], [1, -1, 1])
        rule = one_nn_rule(s)
        np.testing.assert_array_equal(rule.predict(s.x), s.y)

    def test_constant_between_same_labeled_neighbors(self):
        s = fixed_sample([0.1, 0.3, 0.9], [-1, -1, 1])
        rule = one_nn_rule(s)
        grid = np.linspace(0.1, 0.3, 101)
        assert np.all(rule.predict(grid) == -1.0)

    def test_single_point_sample_is_constant(self):
        s = fixed_sample([0.5], [-1])
        rule = one_nn_rule(s)
        assert np.all(rule.predict(np.linspace(0, 1, 11)) == -1.0)

    def test_midpoint_tie_goes_left(self):
        s = fixed_sample([0.2, 0.6], [1, -1])
        rule = one_nn_rule(s)
        assert rule.predict(0.4) == 1.0  # exactly at the midpoint
        assert rule.predict(0.4 + 1e-9) == -1.0

    def test_is_local_interpolant(self):
        rng = np.random.default_rng(0)
        s = fixed_sample(rng.uniform(0, 1, 40), rng.choice([-1.0, 1.0], 40))
        rule = one_nn_rule(s)
        np.testing.assert_array_equal(rule.predict(s.x), s.y)
        for i in range(s.n - 1):
            if s.y[i] == s.y[i + 1]:
                grid = np.linspace(s.x[i], s.x[i + 1], 33)
                assert np.all(rule.predict(grid) * s.y[i] > 0)


class TestKNN:
    def test_k_equals_n_majority(self):
        s = fixed_sample([0.1, 0.2, 0.3, 0.5, 0.9], [1, 1, 1, -1, -1])
        rule = knn_rule(s, 5)
        assert np.all(rule.predict(np.linspace(0, 1, 21)) == 1.0)

    def test_k_one_matches_one_nn_off_midpoints(self):
        rng = np.random.default_rng(1)
        s = fixed_sample(rng.uniform(0, 1, 30), rng.choice([-1.0, 1.0], 30))
        grid = rng.uniform(0, 1, 500)
        np.testing.assert_array_equal(
            knn_rule(s, 1).predict(grid), one_nn_rule(s).predict(grid)
        )

    def test_rejects_bad_k(self):
        s = fixed_sample([0.1, 0.5, 0.9], [1, 1, -1])
        with pytest.raises(ValueError):
            knn_rule(s, 2)
        with pytest.raises(ValueError):
            knn_rule(s, 5)

    def test_default_k_is_odd_log_scale(self):
        assert default_k(10_000) == 11
        assert default_k(100) % 2 == 1
        assert default_k(100) >= 3

    def test_brute_force_window_agreement(self):
        # oracle: explicit k-nearest majority per query
        rng = np.random.default_rng(2)
        s = fixed_sample(rng.uniform(0, 1, 25), rng.choice([-1.0, 1.0], 25))
        k = 5
        rule = knn_rule(s, k)
        for q in rng.uniform(0, 1, 200):
            dists = np.abs(s.x - q)
            nearest = np.argsort(dists, kind="stable")[:k]
            vote = np.sign(s.y[nearest].sum())
            if np.min(np.diff(np.sort(dists))) < 1e-12:
                continue  # skip exact distance ties, convention-dependent
            assert rule.predict(q) == vote


class TestExactExcess:
    def test_noiseless_one_nn_has_zero_excess(self):
        dist = make_distribution("constant-1d", p=1.0, lo=0.0, hi=1.0)
        samp = sample(dist, 200, seed=4)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        assert excess_zero_one_exact(one_nn_rule(s), dist) == 0.0

    def test_matches_monte_carlo_oracle(self):
        # independent oracle: Monte Carlo estimate of the excess integrand
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        samp = sample(dist, 300, seed=5)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        for rule in (one_nn_rule(s), knn_rule(s, 7)):
            exact = excess_zero_one_exact(rule, dist)
            rng = np.random.default_rng(6)
            xs = rng.uniform(0, 1, 400_000)
            p = dist.cond_prob(xs[:, None])
            bayes = np.where(p >= 0.5, 1.0, -1.0)
            vals = (rule.predict(xs) != bayes) * np.abs(2 * p - 1)
            mc = vals.mean()
            se = vals.std(ddof=1) / np.sqrt(len(xs))
            assert abs(exact - mc) <= 5 * se

    def test_matches_oracle_on_smooth_conditional(self):
        dist = make_distribution("step-smooth-1d", width=0.1)
        samp = sample(dist, 200, seed=7)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        rule = one_nn_rule(s)
        exact = excess_zero_one_exact(rule, dist)
        rng = np.random.default_rng(8)
        xs = rng.uniform(-1, 1, 400_000)
        p = dist.cond_prob(xs[:, None])
        bayes = np.where(p >= 0.5, 1.0, -1.0)
        vals = (rule.predict(xs) != bayes) * np.abs(2 * p - 1)
        mc, se = vals.mean(), vals.std(ddof=1) / np.sqrt(len(xs))
        assert abs(exact - mc) <= 5 * se

    @pytest.mark.parametrize("name,params", [
        ("constant-1d", {"p": 0.75, "lo": 0.0, "hi": 1.0}),
        ("step-1d", {}),
        ("step-smooth-1d", {"width": 0.1}),
        ("logistic-1d", {"c": -3.0}),
    ], ids=["constant-1d", "step-1d", "step-smooth-1d", "logistic-1d"])
    def test_matches_the_per_node_formula(self, name, params):
        # The per-node sum of |2p - 1| pdf half w over every node of every
        # wrong piece, which the integral regroups as 2 pdf times the sum
        # of the pieces' |p - 1/2| w half.
        dist = make_distribution(name, **params)
        samp = sample(dist, 3 * interpolation._GL_BLOCK, 9)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        for rule in (one_nn_rule(s), knn_rule(s, 5)):
            nodes, half = gauss_legendre(*wrong_pieces_unique_predict(rule, dist))
            p = dist.cond_prob(nodes.reshape(-1, 1)).reshape(nodes.shape)
            per_node = np.abs(2.0 * p - 1.0) * dist.pdf * half[:, None] * _GL_WEIGHTS
            want = math.fsum(per_node.ravel())
            assert want > 0
            assert abs(excess_zero_one_exact(rule, dist) - want) <= 1e-14 * want


# p jumps at -0.5, 0 and 0.5, so the support has four segments; the cuts
# also name 0 twice, the support's right end and a point outside it.  The
# copy keeps step-1d's ``piecewise_constant``, which holds: np.select gives
# one constant on each open interval between the cuts.
MULTI_CUT = dataclasses.replace(
    make_distribution("step-1d"),
    name="multi-cut-1d",
    cond_prob=lambda X: np.select(
        [X[:, 0] <= -0.5, X[:, 0] <= 0.0, X[:, 0] <= 0.5], [0.2, 0.7, 0.4], 0.9
    ),
    cuts=(0.5, -0.5, 0.0, 0.0, 1.0, 2.0),
)

DISTS = {
    "constant-1d[0,1]": make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0),
    "constant-1d[-1,1]": make_distribution("constant-1d", p=0.25),
    "step-1d": make_distribution("step-1d"),
    "step-smooth-1d": make_distribution("step-smooth-1d", width=0.1),
    "logistic-1d": make_distribution("logistic-1d", c=-3.0),
    "multi-cut-1d": MULTI_CUT,
}


@st.composite
def labeled_points(draw):
    """(dist, x, y) with tied points, points outside the support, on its
    ends and on the distribution's cuts, and runs of adjacent doubles."""
    dist = DISTS[draw(st.sampled_from(sorted(DISTS)))]
    lo, hi = dist.support
    base = draw(st.floats(lo, hi))
    pool = [lo, hi, lo - 0.25, hi + 0.25, -0.0, 0.0, (lo + hi) / 2, *dist.cuts]
    pool += [base + j * np.spacing(base) for j in range(-3, 4)]
    n = draw(st.integers(1, 40))
    point = st.one_of(st.sampled_from(pool), st.floats(lo - 0.5, hi + 0.5))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return dist, x, y


def rules_of(s):
    return [one_nn_rule(s)] + [knn_rule(s, k) for k in (1, 3, 5) if k <= s.n]


def ulp_neighbours(c, k=2):
    """c and the k doubles on either side of it."""
    out, down, up = [c], c, c
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return out


@st.composite
def multi_cut_points(draw):
    """(x, y) for ``MULTI_CUT``, with points on every cut, on the support's
    ends and on their one- and two-ulp neighbours."""
    lo, hi = MULTI_CUT.support
    pool = [v for c in (lo, hi, *MULTI_CUT.cuts) for v in ulp_neighbours(c)]
    n = draw(st.integers(1, 40))
    point = st.one_of(st.sampled_from(pool), st.floats(lo - 0.5, hi + 0.5))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return x, y


SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)
# ±0.0, the smallest subnormals and the ulp neighbours of ±1 and ±2: the
# bit patterns where the sort key's sign flip and its |x| < 2 test turn.
EDGE_DOUBLES = [v for c in (0.0, SMALLEST_SUBNORMAL, 1.0, 2.0) for v in ulp_neighbours(c) + ulp_neighbours(-c)]


@st.composite
def any_finite_points(draw, labels):
    """(x, y): points from every finite double mixed with ``EDGE_DOUBLES``,
    or only below 2 in magnitude, with or without ties; labels from
    ``labels``."""
    below_two = st.one_of(st.sampled_from([v for v in EDGE_DOUBLES if abs(v) < 2.0]),
                          st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True))
    anywhere = st.one_of(below_two, st.sampled_from(EDGE_DOUBLES),
                         st.floats(allow_nan=False, allow_infinity=False))
    point = draw(st.sampled_from([below_two, anywhere]))
    n = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n, unique=draw(st.booleans()))))
    y = np.array(draw(st.lists(labels, min_size=n, max_size=n)))
    return x, y


class TestLinearWalk:
    """``sorted_sample`` and ``excess_zero_one_exact`` against the stable
    sort and the np.unique + predict integral, bit for bit."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(labeled_points().map(lambda case: case[1:]),
                     any_finite_points(st.sampled_from([-1.0, 1.0])),
                     any_finite_points(st.floats(allow_nan=False, allow_infinity=False))))
    def test_sorted_sample_is_the_stable_order(self, case):
        # The key sort where it applies, the stable argsort elsewhere: the
        # same bits either way.
        x, y = case
        s = sorted_sample(x, y)
        order = np.argsort(x, kind="stable")
        np.testing.assert_array_equal(s.x.view(np.int64), x[order].view(np.int64))
        np.testing.assert_array_equal(s.y.view(np.int64), y[order].view(np.int64))

    @settings(max_examples=400, deadline=None)
    @given(labeled_points())
    def test_excess_matches_unique_predict_bitwise(self, case):
        dist, x, y = case
        s = sorted_sample(x, y)
        for rule in rules_of(s):
            assert excess_zero_one_exact(rule, dist).hex() == excess_unique_predict(rule, dist).hex()

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_forced_ties_keep_input_order(self, n):
        rng = np.random.default_rng(n)
        x = rng.choice([0.25, 0.5, -0.0, 0.0], n)
        y = np.arange(n, dtype=float)
        s = sorted_sample(x, y)
        order = np.argsort(x, kind="stable")
        np.testing.assert_array_equal(s.y, y[order])
        np.testing.assert_array_equal(np.signbit(s.x), np.signbit(x[order]))

    def test_one_ulp_pieces_take_the_sign_predict_gives(self):
        # A piece one ulp wide has its midpoint rounded onto one of its
        # ends; on the left end, predict gives it the sign of the cell to
        # the left.  The outer cells are right, so only these pieces add to
        # the excess.
        dist = DISTS["constant-1d[0,1]"]
        ulp = np.spacing(0.3)
        edges = 0.3 + np.arange(13) * ulp
        signs = np.tile([1.0, -1.0], 7)
        signs[-1] = 1.0
        rule = PiecewiseConstantRule(edges=edges, signs=signs)
        x = 0.3 + np.array([0, 2, 3, 5, 6, 8, 9, 11, 12]) * ulp
        y = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
        rules = [rule, *rules_of(sorted_sample(x, y))]
        for rule in rules:
            assert excess_zero_one_exact(rule, dist).hex() == excess_unique_predict(rule, dist).hex()
        for rule in rules[:2]:
            assert 0.0 < excess_zero_one_exact(rule, dist) < 1e-14

    @pytest.mark.parametrize("name", ["constant-1d[0,1]", "logistic-1d"])
    def test_more_wrong_pieces_than_one_block(self, name):
        dist = DISTS[name]
        samp = sample(dist, 12 * interpolation._GL_BLOCK, 21)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        bayes = np.where(dist.cond_prob(s.x[:, None]) >= 0.5, 1.0, -1.0)
        assert np.sum(s.y != bayes) > 2 * interpolation._GL_BLOCK
        for rule in rules_of(s):
            assert excess_zero_one_exact(rule, dist).hex() == excess_unique_predict(rule, dist).hex()

    @settings(max_examples=400, deadline=None)
    @given(multi_cut_points())
    def test_segments_between_cuts_match_unique_predict_bitwise(self, case):
        s = sorted_sample(*case)
        for rule in rules_of(s):
            assert excess_zero_one_exact(rule, MULTI_CUT).hex() == excess_unique_predict(rule, MULTI_CUT).hex()

    def test_segments_longer_than_a_block(self, monkeypatch):
        # Blocks of 7 cells: most segments take several blocks, and some
        # blocks hold only part of a segment's cells.
        monkeypatch.setattr(interpolation, "_WALK_BLOCK", 7)
        samp = sample(MULTI_CUT, 300, 24)
        x = np.concatenate([samp.points[:, 0], ulp_neighbours(0.5), ulp_neighbours(-0.5)])
        y = np.concatenate([samp.labels, np.tile([1.0, -1.0], 5)])
        for rule in rules_of(sorted_sample(x, y)):
            assert excess_zero_one_exact(rule, MULTI_CUT).hex() == excess_unique_predict(rule, MULTI_CUT).hex()

    def test_nodes_are_evaluated_block_by_block(self, monkeypatch):
        # No cond_prob call sees more than one block: a walk block's piece
        # midpoints or one _GL_BLOCK of wrong pieces' nodes.
        base = dataclasses.replace(DISTS["constant-1d[0,1]"], piecewise_constant=False)
        node_arrays, mid_rows, node_rows = [], [], []

        def nodes_of(a, b, out=None):
            nodes, half = gauss_legendre(a, b, out=out)
            node_arrays.append(nodes)
            return nodes, half

        def recorded(X):
            on_nodes = any(np.shares_memory(X, nodes) for nodes in node_arrays)
            (node_rows if on_nodes else mid_rows).append(len(X))
            return base.cond_prob(X)

        monkeypatch.setattr(interpolation, "gauss_legendre", nodes_of)
        dist = dataclasses.replace(base, cond_prob=recorded)
        samp = sample(base, 12 * interpolation._GL_BLOCK, 22)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        wrong = int(np.sum(s.y == -1.0))
        excess_zero_one_exact(one_nn_rule(s), dist)
        assert sum(mid_rows) == s.n  # one midpoint per cell
        assert len(mid_rows) == -(-s.n // interpolation._WALK_BLOCK) > 1
        assert max(mid_rows) == interpolation._WALK_BLOCK
        assert sum(node_rows) == 16 * wrong
        assert all(rows % 16 == 0 for rows in node_rows)
        assert max(node_rows) == 16 * interpolation._GL_BLOCK

    def test_constant_segments_form_nodes_only_at_their_ends(self, monkeypatch):
        # The twin of the test above on the fast path: no cond_prob call
        # sees more than one block, and nodes are formed only for the wrong
        # pieces of a segment's guarded prefix and suffix.  Points on 0, 4
        # ulps of 1 above it and on 1, labeled against the Bayes sign, make
        # three such pieces: two at the left end and one at the right.
        base = DISTS["constant-1d[0,1]"]
        samp = sample(base, 12 * interpolation._GL_BLOCK, 22)
        x = np.concatenate([samp.points[:, 0], [0.0, 4 * np.spacing(1.0), 1.0]])
        s = sorted_sample(x, np.concatenate([samp.labels, [-1.0, -1.0, -1.0]]))
        rule = one_nn_rule(s)
        node_path = excess_zero_one_exact(rule, dataclasses.replace(base, piecewise_constant=False))
        guard = interpolation._GUARD_ULPS * np.spacing(1.0)
        a, b = wrong_pieces_unique_predict(rule, base)
        at_ends = (a < guard) | (b > 1.0 - guard)
        node_arrays, node_pieces, mid_rows, node_rows = [], [], [], []

        def nodes_of(a, b, out=None):
            nodes, half = gauss_legendre(a, b, out=out)
            node_arrays.append(nodes)
            node_pieces.extend(zip(a, b))
            return nodes, half

        def recorded(X):
            on_nodes = any(np.shares_memory(X, nodes) for nodes in node_arrays)
            (node_rows if on_nodes else mid_rows).append(len(X))
            return base.cond_prob(X)

        monkeypatch.setattr(interpolation, "gauss_legendre", nodes_of)
        got = excess_zero_one_exact(rule, dataclasses.replace(base, cond_prob=recorded))
        assert got.hex() == node_path.hex()
        assert node_pieces == list(zip(a[at_ends], b[at_ends]))
        assert len(node_pieces) == 3
        blocks = -(-s.n // interpolation._WALK_BLOCK)
        assert blocks > 1
        # One p per block, and the guarded pieces' midpoints.
        assert sum(mid_rows) == blocks + 3
        assert max(mid_rows) <= interpolation._WALK_BLOCK
        assert sum(node_rows) == 16 * 3

    def test_walk_holds_one_array_of_piece_values(self):
        # 2^18 points make an n-long float array 2 MiB.  Beyond the rule,
        # the walk holds one array of wrong-piece values (sized for every
        # piece) and one block's temporaries, about 2.7 MiB: a traced peak
        # of 2.3 n-long arrays, where the walk over whole arrays took 4.0.
        n = 1 << 18
        dist = DISTS["constant-1d[0,1]"]
        samp = sample(dist, n, 23)
        rule = one_nn_rule(sorted_sample(samp.points[:, 0], samp.labels))
        tracemalloc.start()
        try:
            excess_zero_one_exact(rule, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n


def near(c):
    """c, the two doubles on either side of it, and the points 6 to 10 ulps
    of 1/2 and of 1 away from it on either side, around the guard width."""
    steps = [j * np.spacing(w) for w in (0.5, 1.0) for j in range(6, 11)]
    return ulp_neighbours(c) + [c + d for d in steps] + [c - d for d in steps]


CONSTANT_DISTS = {name: DISTS[name] for name in
                  ("constant-1d[0,1]", "constant-1d[-1,1]", "step-1d", "multi-cut-1d")}


@st.composite
def constant_segment_points(draw):
    """(dist, x, y, walk block) for a task with piecewise-constant p, with
    points on and around each cut and support end."""
    dist = CONSTANT_DISTS[draw(st.sampled_from(sorted(CONSTANT_DISTS)))]
    lo, hi = dist.support
    pool = [-0.0] + [v for c in (lo, hi, *dist.cuts) for v in near(c)]
    n = draw(st.integers(1, 40))
    point = st.one_of(st.sampled_from(pool), st.floats(lo - 0.5, hi + 0.5))
    x = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return dist, x, y, draw(st.sampled_from([2, 5, interpolation._WALK_BLOCK]))


class TestConstantSegments:
    """On a ``piecewise_constant`` task the walk skips the nodes between a
    segment's guarded ends; its outputs keep the node path's bits."""

    @settings(max_examples=400, deadline=None)
    @given(constant_segment_points())
    def test_matches_the_node_path_bitwise(self, case):
        dist, x, y, block = case
        node_path = dataclasses.replace(dist, piecewise_constant=False)
        s = sorted_sample(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interpolation, "_WALK_BLOCK", block)
            for rule in rules_of(s):
                assert excess_zero_one_exact(rule, dist).hex() == excess_zero_one_exact(rule, node_path).hex()

    @pytest.mark.parametrize("case", sorted(golden.COMPARISON_CASES))
    def test_comparison_rows_keep_their_golden_bits(self, case):
        # Rewritten by tests/golden.py; a rewrite lists what moved in CHANGES.md.
        want = json.loads(golden.PATH.read_text())["excess_risk_comparison"][case]
        assert golden.moved(want, golden.comparison_rows(case)) == []

    @pytest.mark.parametrize("seed", golden.INTERP_LB_SEEDS)
    def test_interp_lb_rows_keep_their_golden_bits(self, seed):
        # The interp-lb benchmark's configuration, up to n = 10^6.
        want = json.loads(golden.PATH.read_text())["interp_lb"][str(seed)]
        assert golden.moved(want, golden.interp_lb_rows(seed)) == []


class TestInputChecks:
    @pytest.mark.parametrize("edges", [[0.5, 0.2], [0.1, np.nan], [np.nan], [0.2, np.nan, 0.1]])
    def test_rule_rejects_unsorted_or_nan_edges(self, edges):
        with pytest.raises(ValueError, match="sorted"):
            PiecewiseConstantRule(edges=np.array(edges), signs=np.ones(len(edges) + 1))

    def test_rule_accepts_tied_and_infinite_edges(self):
        rule = PiecewiseConstantRule(edges=[-np.inf, 0.5, 0.5, np.inf], signs=[1, -1, 1, -1, 1])
        assert rule.predict(0.7) == -1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sorted_sample_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sorted_sample(np.array([0.1, bad, 0.5]), np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("trials", [0, -2, True, 2.0])
    def test_comparison_needs_a_trial(self, monkeypatch, trials):
        drawn = []
        monkeypatch.setattr(interpolation, "draw_sample", lambda *a: drawn.append(a))
        dist = DISTS["constant-1d[0,1]"]
        with pytest.raises(ValueError, match="trials"):
            excess_risk_comparison(dist, [50], trials=trials)
        assert drawn == []

    @pytest.mark.parametrize(
        "n_grid,bad",
        [
            ([1], "n=1"),
            ([2], "n=2"),
            ([1000, 1], "n=1"),
            ([50, 0], "n=0"),
            ([50, -5], "n=-5"),
            ([], "n_grid"),
            ([100, 50, 100], "twice"),
            ([50.5], "n=50.5"),
            ([100, True], "n=True"),
            ([np.float64(100)], "n=100.0"),
        ],
        ids=["1", "2", "1000,1", "50,0", "50,-5", "empty", "100,50,100",
             "50.5", "100,True", "float100"],
    )
    def test_comparison_checks_grid_before_any_trial(self, monkeypatch, n_grid, bad):
        drawn = []
        monkeypatch.setattr(interpolation, "draw_sample", lambda *a: drawn.append(a))
        dist = DISTS["constant-1d[0,1]"]
        with pytest.raises(ValueError, match=rf"{bad}\b"):
            excess_risk_comparison(dist, n_grid, trials=2)
        assert drawn == []


class TestWrongPairs:
    def test_all_correct_labels_give_empty_report(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.2, 0.5, 0.8], [1, 1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices.tolist() == []
        assert report.merged_hulls.shape == (0, 2)
        assert report.covered_mass == 0.0
        assert report.bayes_label == 1.0

    def test_constructed_pair_mass(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.1, 0.2, 0.5, 0.6], [-1, -1, 1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices.tolist() == [0]
        assert report.covered_mass == pytest.approx(0.1, abs=1e-12)

    def test_shared_endpoint_pairs_merge(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.1, 0.2, 0.3, 0.9], [-1, -1, -1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices.tolist() == [0, 1]
        assert report.covered_mass == pytest.approx(0.2, abs=1e-12)
        assert report.merged_hulls.tolist() == [[0.1, 0.3]]

    @pytest.mark.parametrize(
        "name,params,n",
        [
            ("constant-1d", {"p": 0.75, "lo": 0.0, "hi": 1.0}, 1),
            ("constant-1d", {"p": 0.75, "lo": 0.0, "hi": 1.0}, 2000),
            ("constant-1d", {"p": 0.25}, 2000),
            ("step-smooth-1d", {}, 2000),
            ("logistic-1d", {"c": -3.0}, 2000),
        ],
    )
    def test_matches_reference_loop(self, name, params, n):
        dist = make_distribution(name, **params)
        samp = sample(dist, n, 17)
        s = sorted_sample(samp.points[:, 0], samp.labels)
        report = wrong_pairs(s, dist)
        pairs, hulls, mass = wrong_pairs_loop(s, dist)
        assert np.array_equal(report.pair_indices, np.array(pairs, dtype=np.intp))
        assert np.array_equal(report.merged_hulls, np.array(hulls).reshape(-1, 2))
        assert report.covered_mass == pytest.approx(mass, rel=1e-12, abs=0.0)

    def test_undeclared_interval_rejected(self):
        dist = make_distribution("constant-1d", p=0.5)
        s = fixed_sample([0.1], [1])
        with pytest.raises(ValueError):
            wrong_pairs(s, dist)


class TestComparisonDriver:
    def test_rows_and_floor_assertion(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        rows, summary = excess_risk_comparison(dist, [50, 100], trials=4, seed=9)
        assert len(rows) == 2 * 2 * 4
        assert {r["rule"] for r in rows} == {"1nn", f"knn(k={default_k(50)})", f"knn(k={default_k(100)})"}
        for key, stats in summary.items():
            assert stats["q25"] <= stats["median"] <= stats["q75"]

    def test_summary_order_independent_of_hash_seed(self):
        code = (
            "import json; from shallowcal.distributions import make_distribution;"
            "from shallowcal.interpolation import excess_risk_comparison;"
            "d = make_distribution('constant-1d', p=0.75, lo=0.0, hi=1.0);"
            "print(json.dumps(list(excess_risk_comparison(d, [100, 50], trials=2, seed=1)[1])))"
        )
        keys = []
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            keys.append(json.loads(out.stdout))
        assert keys[0] == keys[1]
        assert keys[0][:2] == ["n=100,rule=1nn", f"n=100,rule=knn(k={default_k(100)})"]
