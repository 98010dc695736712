import json
import os
import subprocess
import sys

import numpy as np
import pytest

from shallowcal.distributions import make_distribution, sample
from shallowcal.interpolation import (
    default_k,
    excess_risk_comparison,
    excess_zero_one_exact,
    knn_rule,
    one_nn_rule,
    piecewise_linear_value,
    sorted_sample,
    wrong_pairs,
)


def fixed_sample(xs, ys):
    return sorted_sample(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))


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


class TestPiecewiseLinear:
    def test_member_of_interpolation_class(self):
        rng = np.random.default_rng(3)
        s = fixed_sample(rng.uniform(0, 1, 20), rng.choice([-1.0, 1.0], 20))
        value = piecewise_linear_value(s)
        np.testing.assert_allclose(value(s.x), s.y, atol=1e-12)
        for i in range(s.n - 1):
            if s.y[i] == s.y[i + 1]:
                grid = np.linspace(s.x[i], s.x[i + 1], 17)
                assert np.all(value(grid) * s.y[i] > 0)


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


class TestWrongPairs:
    def test_all_correct_labels_give_empty_report(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.2, 0.5, 0.8], [1, 1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices == []
        assert report.covered_mass == 0.0
        assert report.bayes_label == 1.0

    def test_constructed_pair_mass(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.1, 0.2, 0.5, 0.6], [-1, -1, 1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices == [0]
        assert report.covered_mass == pytest.approx(0.1, abs=1e-12)

    def test_shared_endpoint_pairs_merge(self):
        dist = make_distribution("constant-1d", p=0.75, lo=0.0, hi=1.0)
        s = fixed_sample([0.1, 0.2, 0.3, 0.9], [-1, -1, -1, 1])
        report = wrong_pairs(s, dist)
        assert report.pair_indices == [0, 1]
        assert report.covered_mass == pytest.approx(0.2, abs=1e-12)
        assert report.merged_hulls == [(0.1, 0.3)]

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
        assert report.pair_indices == pairs
        assert report.merged_hulls == hulls
        assert report.covered_mass == pytest.approx(mass, rel=1e-12, abs=0.0)
        assert type(report.pair_indices) is list and type(report.merged_hulls) is list

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
