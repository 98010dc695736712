import dataclasses
import math

import numpy as np
import pytest

from shallowcal.distributions import (
    PopulationEvaluator,
    bayes_risk,
    bayes_zero_one_risk,
    builtin_distributions,
    evaluator,
    make_distribution,
    population_risk,
    sample,
)
from shallowcal.metrics import LOG2, binary_entropy, binary_kl, sigmoid


class TestSampling:
    def test_certain_labels(self):
        dist = make_distribution("constant-1d", p=1.0)
        samp = sample(dist, 50, seed=0)
        assert np.all(samp.labels == 1.0)

    def test_fair_labels_ci(self):
        dist = make_distribution("constant-1d", p=0.5)
        n = 100_000
        samp = sample(dist, n, seed=1)
        assert abs(samp.labels.mean()) <= 4.0 / math.sqrt(n)

    def test_determinism(self):
        dist = make_distribution("logistic-1d", c=2.0)
        a = sample(dist, 64, seed=5)
        b = sample(dist, 64, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_unit_ball(self):
        for name, factory in builtin_distributions().items():
            dist = factory()
            samp = sample(dist, 500, seed=2)
            assert np.all(np.linalg.norm(samp.points, axis=1) <= 1 + 1e-12), name

    def test_label_frequencies_match_cond_prob(self):
        dist = make_distribution("logistic-1d", c=2.0)
        samp = sample(dist, 200_000, seed=3)
        x = samp.points[:, 0]
        edges = np.linspace(-1, 1, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (x >= lo) & (x < hi)
            k = int(mask.sum())
            freq = np.mean(samp.labels[mask] == 1.0)
            p_true = float(np.mean(dist.cond_prob(samp.points[mask])))
            se = math.sqrt(p_true * (1 - p_true) / k)
            assert abs(freq - p_true) <= 4 * se + 1e-12


class TestPopulationRisk:
    def test_zero_predictor_fair_coin(self):
        dist = make_distribution("constant-1d", p=0.5)
        out = population_risk(dist, lambda P: np.zeros(len(P)))
        assert out.breakdown.logistic_risk == pytest.approx(LOG2, abs=1e-12)
        assert out.breakdown.excess_logistic == pytest.approx(0.0, abs=1e-12)

    def test_zero_predictor_biased_coin(self):
        dist = make_distribution("constant-1d", p=0.75)
        out = population_risk(dist, lambda P: np.zeros(len(P)))
        assert out.breakdown.excess_logistic == pytest.approx(
            binary_kl(0.75, 0.5), abs=1e-12
        )

    def test_bayes_predictor_achieves_bayes_risk(self):
        dist = make_distribution("logistic-1d", c=2.0)
        out = population_risk(dist, lambda P: 2.0 * P[:, 0])
        assert out.breakdown.excess_logistic <= 1e-10
        assert out.breakdown.l2_calibration_sq <= 1e-12

    def test_weights_sum_to_one(self):
        for name, factory in builtin_distributions().items():
            ev = evaluator(factory())
            assert abs(ev.weights.sum() - 1.0) <= 1e-12, name
            assert np.all(ev.weights >= 0), name

    def test_quadrature_vs_mc_cross_check(self):
        dist = make_distribution("logistic-1d", c=2.0)
        predictor = lambda P: 1.5 * P[:, 0] - 0.2
        quad = population_risk(dist, predictor)
        k = 1_000_000
        mc_ev = PopulationEvaluator(
            points=dist.draw(np.random.default_rng(2024), k),
            weights=np.full(k, 1.0 / k),
            provenance={"scheme": "mc", "points": k, "seed": 2024},
        )
        mc = population_risk(dist, predictor, mc_ev)
        assert mc.logistic_se is not None
        diff = abs(quad.breakdown.logistic_risk - mc.breakdown.logistic_risk)
        assert diff <= 5 * mc.logistic_se


def per_panel_evaluator(dist):
    """The evaluator as a loop over panels: 32 equal panels of the support,
    split at every interior cut, with the 16-point rule built per panel;
    a task without a support gets 2^14 uniform draws from seed 2024."""
    if dist.support is None:
        X = dist.draw(np.random.default_rng(2024), 1 << 14)
        return X, np.full(len(X), 1.0 / len(X))
    lo, hi = dist.support
    edges = np.linspace(lo, hi, 33)
    edges = np.unique(np.concatenate([edges, [c for c in dist.cuts if lo < c < hi]]))
    xi, wi = np.polynomial.legendre.leggauss(16)
    points, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2.0
        x = half * xi + (a + b) / 2.0
        points.append(x)
        weights.append(half * wi * np.full_like(x, 1.0 / (hi - lo)))
    return np.concatenate(points)[:, None], np.concatenate(weights)


class TestEvaluator:
    @pytest.mark.parametrize(
        "name,params",
        [pytest.param(name, {}, id=name) for name in sorted(builtin_distributions())]
        + [
            pytest.param("constant-1d", {"lo": 0.0, "hi": 1.0}, id="constant-1d[0,1]"),
            pytest.param("logistic-1d", {"lo": -0.5, "hi": 1.0}, id="logistic-1d[-0.5,1]"),
        ],
    )
    def test_matches_per_panel_loop_bitwise(self, name, params):
        dist = make_distribution(name, **params)
        ev = evaluator(dist)
        points, weights = per_panel_evaluator(dist)
        assert ev.points.tobytes() == points.tobytes()
        assert ev.weights.tobytes() == weights.tobytes()

    def test_cut_inside_a_panel_is_an_edge(self):
        # On [-0.5, 1] the kink of min(p, 1 - p) at 0 falls inside an equal
        # panel; the closed form is (2 ln 2 - ln(1 + e^-1) - ln(1 + e^-2)) / 3.
        dist = make_distribution("logistic-1d", c=2.0, lo=-0.5, hi=1.0)
        closed = (2 * math.log(2) - math.log1p(math.exp(-1)) - math.log1p(math.exp(-2))) / 3
        assert abs(bayes_zero_one_risk(dist, evaluator(dist)) - closed) <= 4 * math.ulp(closed)

    def test_mc_sample_size_is_not_a_parameter(self):
        with pytest.raises(ValueError, match="mc_eval_n"):
            make_distribution("sphere-cap-teacher", mc_eval_n=1000)

    def test_density_and_cdf_read_off_the_support(self):
        dist = make_distribution("constant-1d", lo=0.0, hi=0.5)
        assert dist.pdf == 2.0
        np.testing.assert_array_equal(dist.cdf([-1.0, 0.25, 1.0]), [0.0, 0.5, 1.0])


class TestCatalogConstants:
    def test_constant_bayes_risks(self):
        dist = make_distribution("constant-1d", p=0.75)
        ev = evaluator(dist)
        expect = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert bayes_risk(dist, ev) == pytest.approx(expect, abs=1e-12)
        assert bayes_risk(dist, ev) == pytest.approx(0.5623, abs=5e-5)
        assert bayes_zero_one_risk(dist, ev) == pytest.approx(0.25, abs=1e-12)

    def test_logistic_with_zero_slope_is_fair_coin(self):
        dist = make_distribution("logistic-1d", c=0.0)
        assert bayes_risk(dist, evaluator(dist)) == pytest.approx(LOG2, abs=1e-12)

    def test_step_bayes_zero_one(self):
        dist = make_distribution("step-1d")
        ev = evaluator(dist)
        assert bayes_zero_one_risk(dist, ev) == pytest.approx(0.3, abs=1e-12)
        assert bayes_risk(dist, ev) == pytest.approx(binary_entropy(0.3), abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_distribution("nope-1d")

    def test_step_smooth_interval_is_bounded_away(self):
        dist = make_distribution("step-smooth-1d", width=0.1)
        lo, hi = dist.wrong_pair_interval
        grid = np.linspace(lo, hi, 2001)[:, None]
        p = dist.cond_prob(grid)
        assert np.all(p > 0.5 + 0.15)
        assert np.all(p < 1.0 - 0.25)

    def test_sphere_cap_marginal(self):
        dist = make_distribution("sphere-cap-teacher", d=4, c=4.0)
        samp = sample(dist, 2000, seed=4)
        np.testing.assert_allclose(np.linalg.norm(samp.points, axis=1), 1.0, atol=1e-12)
        assert np.all(samp.points[:, 0] >= 0)
        out = population_risk(dist, lambda P: 4.0 * P[:, 0])
        assert out.logistic_se is not None
        assert out.breakdown.excess_logistic <= 5 * out.logistic_se + 1e-6


class TestTeacher:
    @pytest.mark.parametrize(
        "name,params",
        [("logistic-1d", {}), ("logistic-1d", {"c": -3.0}), ("constant-1d", {}),
         ("constant-1d", {"p": 0.2}), ("constant-1d", {"p": 0.5})],
        ids=repr,
    )
    def test_teacher_logit_gives_p(self, name, params):
        dist = make_distribution(name, **params)
        theta, bias = dist.teacher
        X = np.linspace(-1.0, 1.0, 201)[:, None]
        np.testing.assert_allclose(sigmoid(X @ np.asarray(theta) + bias), dist.cond_prob(X), rtol=1e-14)

    @pytest.mark.parametrize("width", [0.1, 0.3, 2.0])
    def test_step_smooth_slope_is_the_logit_slope_of_p_at_0(self, width):
        dist = make_distribution("step-smooth-1d", width=width)
        h = 1e-6 * width
        p = dist.cond_prob(np.array([[-h], [h]]))
        logit = np.log(p / (1 - p))
        assert dist.teacher[1] == 0.0
        assert dist.teacher[0][0] == pytest.approx((logit[1] - logit[0]) / (2 * h), rel=1e-6)

    def test_cond_prob_reads_no_flat_array_as_one_point(self):
        # An (n, 1) array holds n points; a flat one is no longer read as one row.
        x = np.array([-0.5, 0.5, 0.9])
        np.testing.assert_array_equal(make_distribution("constant-1d").cond_prob(x), [0.75, 0.75, 0.75])
        for name in ("logistic-1d", "step-1d", "step-smooth-1d"):
            with pytest.raises(IndexError):
                make_distribution(name).cond_prob(x)


def near_ends(s, e, k=3):
    """The k doubles just inside each end of the segment (s, e)."""
    out, up, down = [], s, e
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.array(out)


class TestPiecewiseConstant:
    """``piecewise_constant`` claims p constant on each open interval
    between consecutive cuts and support ends; the exact zero-one integral
    reads p once per such interval on its word."""

    VARIANTS = [
        ("logistic-1d", {}),
        ("logistic-1d", {"c": -3.0}),
        ("step-1d", {}),
        ("step-1d", {"lo": 0.0, "hi": 1.0}),
        ("step-1d", {"lo": -0.5, "hi": 0.25}),
        ("step-smooth-1d", {}),
        ("step-smooth-1d", {"width": 0.5, "lo": 0.0, "hi": 1.0}),
        ("constant-1d", {}),
        ("constant-1d", {"p": 0.25, "lo": 0.0, "hi": 1.0}),
        ("constant-1d", {"p": 0.5}),
    ]

    def test_every_one_d_factory_is_covered(self):
        one_d = {name for name, factory in builtin_distributions().items()
                 if factory().support is not None}
        assert one_d == {name for name, _ in self.VARIANTS}

    @pytest.mark.parametrize("name,params", VARIANTS, ids=[f"{n}{p}" for n, p in VARIANTS])
    def test_declared_value_matches_cond_prob(self, name, params):
        dist = make_distribution(name, **params)
        lo, hi = dist.support
        ends = np.unique(np.clip([lo, hi, *dist.cuts], lo, hi))
        constant = True
        for s, e in zip(ends[:-1], ends[1:]):
            x = np.concatenate([np.linspace(s, e, 4097)[1:-1], near_ends(s, e)])
            p = dist.cond_prob(x[:, None])
            constant &= bool(np.all(p == p[0]))
        assert dist.piecewise_constant == constant

    @pytest.mark.parametrize("name", ["logistic-1d", "step-smooth-1d"])
    def test_smooth_tasks_do_not_declare_it(self, name):
        assert not make_distribution(name).piecewise_constant

    def test_a_task_without_a_support_may_not_declare_it(self):
        cap = make_distribution("sphere-cap-teacher")
        with pytest.raises(ValueError, match="no 1-d support"):
            dataclasses.replace(cap, piecewise_constant=True)

    def test_no_factory_takes_it(self):
        for name in builtin_distributions():
            with pytest.raises(ValueError, match="takes no parameter 'piecewise_constant'"):
                make_distribution(name, piecewise_constant=True)
