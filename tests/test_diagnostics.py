import math
from dataclasses import fields

import numpy as np
import pytest

from shallowcal.diagnostics import (
    FlipStats,
    GenGapReport,
    LemmaCheckReport,
    RiskRatioReport,
    SphereGapReport,
    activation_flip_count,
    gaussian_row_count_check,
    gen_gap_slope,
    generalization_gap,
    risk_ratio_check,
    sphere_linearization_gap,
    sphere_points,
)
from shallowcal import kernel as kernel_module
from shallowcal.distributions import make_distribution, sample
from shallowcal.network import clone_initial, freeze_features, init_network
from shallowcal.trainer import (
    DIVERGENCE_THRESHOLD,
    TrainConfig,
    empirical_risk,
    frozen_empirical_risk,
    gd_step,
    train,
)


class TestGaussianRowCount:
    def test_vanishing_band_counts_zero(self):
        report = gaussian_row_count_check(m=100, tau=1e-9, trials=50, seed=0)
        assert report.observed_max_stat == 0.0
        assert report.verdict

    def test_violation_frequency_within_nominal(self):
        report = gaussian_row_count_check(m=1000, tau=0.1, trials=2000, delta=0.05, seed=1)
        assert report.observed_freq <= 0.15 + 3 * math.sqrt(0.15 * 0.85 / 2000)
        assert report.verdict

    def test_mean_count_matches_gaussian_density(self):
        report = gaussian_row_count_check(m=1000, tau=0.1, trials=2000, seed=2)
        expect = report.details["expected_count"]
        se = report.details["count_se"]
        assert abs(report.details["mean_count"] - expect) <= 4 * se

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            gaussian_row_count_check(m=10, tau=1.5, trials=10)

    def test_report_serializes(self):
        report = gaussian_row_count_check(m=50, tau=0.05, trials=100, seed=3)
        d = report.to_dict()
        assert d["lemma_id"] == "gauss-count"
        assert d["verdict"] in ("pass", "fail")


class TestActivationFlips:
    def test_identical_matrices_no_flips(self):
        W = np.random.default_rng(4).standard_normal((64, 3))
        X = np.random.default_rng(5).uniform(-0.5, 0.5, size=(32, 3))
        stats = activation_flip_count(W, W.copy(), X)
        assert stats.max_flips == 0
        assert stats.radius == 0.0

    def test_flip_count_bounded_by_width(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((32, 2))
        stats = activation_flip_count(W, -W, rng.uniform(-1, 1, size=(50, 2)))
        assert stats.max_flips <= 32

    def test_tiled_counts_match_one_product(self, monkeypatch):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((40, 3))
        W2 = W + 0.3 * rng.standard_normal((40, 3))
        X = rng.uniform(-1, 1, size=(150, 3))
        flips = np.sum((X @ W.T >= 0) != (X @ W2.T >= 0), axis=1)
        # tiles of 64 points x 7 sources; the last is 22 x 5
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 64 * 7)
        rows, cols = kernel_module.tiles(150, 40)[-1]
        assert (rows.stop - rows.start, cols.stop - cols.start) == (22, 5)
        stats = activation_flip_count(W, W2, X)
        assert stats.max_flips == flips.max()
        assert stats.mean_flips == flips.mean()

    def test_along_training_run(self):
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 256, seed=7)
        m = 4096
        net = init_network(m, 1, float(m) ** -0.125, seed=8)
        before = net.init_weights.copy()
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=10)
        train(net, samp.points, samp.labels, cfg)
        stats = activation_flip_count(before, net.weights, samp.points)
        assert stats.max_flips <= stats.bound_value


class TestSphereGap:
    def test_points_on_unit_sphere(self):
        for d in (1, 2, 3, 5):
            pts = sphere_points(d, 64, seed=9)
            np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    def test_zero_at_initialization(self):
        net = init_network(128, 2, 0.9, seed=10)
        rep = sphere_linearization_gap(net, net.init_weights)
        assert rep.sup_gap <= 1e-12

    def test_zero_below_smallest_activation_margin(self):
        net = init_network(32, 2, 1.0, seed=11)
        X = sphere_points(2, 4096)
        margins = np.abs(X @ net.init_weights.T)
        eps = 0.5 * margins.min()  # no activation can flip on the grid
        rng = np.random.default_rng(12)
        delta = rng.standard_normal((32, 2))
        delta *= eps / np.linalg.norm(delta, axis=1, keepdims=True).max() / np.sqrt(32)
        V = net.init_weights + delta
        assert float(np.linalg.norm(V - net.init_weights, axis=1).max()) < margins.min()
        rep = sphere_linearization_gap(net, V)
        assert rep.sup_gap == 0.0

    def test_gap_below_bound_after_training(self):
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 256, seed=13)
        m = 1024
        net = init_network(m, 1, float(m) ** -0.125, seed=14)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=10)
        train(net, samp.points, samp.labels, cfg)
        rep = sphere_linearization_gap(net, net.weights)
        assert rep.sup_gap <= rep.bound_value


class TestRiskRatio:
    def test_single_iterate_ratio_is_one(self):
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 64, seed=15)
        net = init_network(64, 1, 0.7, seed=16)
        rep = risk_ratio_check(
            net, samp.points, samp.labels,
            TrainConfig(eta=4.0 / net.rho**2, t_max=1),
            net.init_weights,
        )
        # two iterates recorded; ratio at (i, i) would be 1, max over pairs >= 1
        assert rep.max_ratio >= 1.0
        single = rep.frozen_risks[:1]
        assert float(single.max() / single.min()) == 1.0

    def test_ratio_below_bound_on_easy_run(self):
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 256, seed=17)
        m = 4096
        net = init_network(m, 1, float(m) ** -0.125, seed=18)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=10)
        rep = risk_ratio_check(net, samp.points, samp.labels, cfg, net.init_weights)
        assert 1.0 <= rep.max_ratio <= rep.bound_value
        assert rep.iterates == 11


    @pytest.mark.parametrize("eta_factor,iterates", [(1.0, 7), (3e7, 5)])
    def test_frozen_risks_match_step_replay(self, eta_factor, iterates):
        # eta_factor 3e7 diverges at step 4 of 6; its last iterate takes no step
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 64, seed=21)
        X, y = samp.points, samp.labels
        net = init_network(64, 1, 64.0**-0.125, seed=22)
        B = net.init_weights + np.random.default_rng(23).standard_normal(net.weights.shape)
        cfg = TrainConfig(eta=eta_factor * 4.0 / net.rho**2, t_max=6)
        rep = risk_ratio_check(net, X, y, cfg, B)

        live = clone_initial(net)
        expected, radii = [], []
        for i in range(cfg.t_max + 1):
            expected.append(frozen_empirical_risk(freeze_features(live), B, X, y))
            radii.append(live.dist_from_init())
            risk = empirical_risk(live, X, y)
            if i == cfg.t_max or risk > DIVERGENCE_THRESHOLD:
                break
            gd_step(live, X, y, cfg.eta)
        assert rep.iterates == len(expected) == iterates
        np.testing.assert_allclose(rep.frozen_risks, expected, rtol=1e-12, atol=0)
        assert rep.radius_iterates == pytest.approx(max(radii), rel=1e-12)
        assert rep.max_ratio == pytest.approx(max(expected) / min(expected), rel=1e-12)


class TestGeneralizationGap:
    def test_fair_coin_at_initialization(self):
        dist = make_distribution("constant-1d", p=0.5)
        samp = sample(dist, 4096, seed=19)
        net = init_network(256, 1, 0.25, seed=20)
        ff = freeze_features(net, at_init=True)
        rep = generalization_gap(ff, net.init_weights, samp.points, samp.labels, dist)
        # both sides sit within O(rho) of ln 2; the gap is small at this n
        assert abs(rep.gap) <= 0.05
        assert rep.bound_value > 0

    def test_tiny_sample_no_assertion(self):
        dist = make_distribution("constant-1d", p=0.5)
        samp = sample(dist, 1, seed=21)
        net = init_network(64, 1, 0.5, seed=22)
        ff = freeze_features(net, at_init=True)
        rep = generalization_gap(ff, net.init_weights, samp.points, samp.labels, dist)
        assert math.isfinite(rep.gap)

    def test_slope_driver_returns_fit(self):
        dist = make_distribution("logistic-1d", c=2.0)
        net = init_network(128, 1, 0.5, seed=23)
        rng = np.random.default_rng(24)
        delta = rng.standard_normal(net.weights.shape)
        V = net.init_weights + delta / np.linalg.norm(delta)
        out = gen_gap_slope(net, V, dist, n_grid=[256, 1024, 4096], seeds=5)
        assert len(out["medians"]) == 3
        assert out["slope"] < 0.0


# Each run-based report with statistic `stat` against `bound`.
RUN_REPORTS = {
    "flip-count": lambda stat, bound: FlipStats(
        max_flips=stat, mean_flips=0.5, bound_value=bound, radius=1.0, band_width=0.1
    ),
    "sphere-gap": lambda stat, bound: SphereGapReport(
        sup_gap=stat, bound_value=bound, radius=1.0, points=8, mode="grid"
    ),
    "risk-ratio": lambda stat, bound: RiskRatioReport(
        max_ratio=stat, bound_value=bound, iterates=2, radius_iterates=1.0, radius_ref=0.0,
        frozen_risks=np.array([0.5, 0.5 * stat]),
    ),
    "gen-gap": lambda stat, bound: GenGapReport(
        population_risk=0.25 + stat, empirical_risk=0.25, gap=stat, bound_value=bound, n=8
    ),
}


class TestVerdicts:
    @pytest.mark.parametrize("lemma", RUN_REPORTS)
    def test_statistic_at_bound_passes_and_next_double_above_fails(self, lemma):
        stat = 7 if lemma == "flip-count" else 7.0
        assert RUN_REPORTS[lemma](stat, 7.0).verdict
        # the statistic is the next double above this bound
        assert not RUN_REPORTS[lemma](stat, math.nextafter(7.0, 0.0)).verdict

    def test_gen_gap_counts_a_negative_gap_by_its_size(self):
        make = RUN_REPORTS["gen-gap"]
        assert make(-7.0, 7.0).verdict
        assert not make(-math.nextafter(7.0, math.inf), 7.0).verdict

    def test_gauss_count_at_zero_nominal(self):
        # nominal 0 leaves no binomial slack: one observed failure fails
        assert LemmaCheckReport("gauss-count", 10, 0, 0.0, 3.0, 3.0, {}).verdict
        assert not LemmaCheckReport("gauss-count", 10, 1, 0.0, 4.0, 3.0, {}).verdict

    @pytest.mark.parametrize("lemma", RUN_REPORTS)
    def test_dict_holds_every_field_id_and_verdict(self, lemma):
        report = RUN_REPORTS[lemma](7.0, 3.0)
        d = report.to_dict()
        assert set(d) == {f.name for f in fields(report)} | {"lemma_id", "verdict"}
        assert d["lemma_id"] == lemma
        assert d["verdict"] == "fail"
        assert d["bound_value"] == 3.0

    def test_gauss_count_dict_keeps_observed_frequency(self):
        d = LemmaCheckReport("gauss-count", 8, 2, 0.15, 9.0, 10.0, {"m": 4}).to_dict()
        assert d["observed_freq"] == 0.25
        assert d["lemma_id"] == "gauss-count" and d["details"] == {"m": 4}
