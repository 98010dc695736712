import math

import numpy as np
import pytest

from shallowcal.distributions import derived_seed, make_distribution
from shallowcal.metrics import LOG2
from shallowcal.network import (
    Network,
    forward_batch,
    freeze_features,
    frozen_forward_batch,
    init_network,
)
from shallowcal.reference import (
    InfiniteWidthModel,
    affine_teacher,
    gap_experiment,
    infinite_forward_batch,
    linear_teacher,
    model_from_config,
    sample_reference,
    zero_model,
)


def zero_weight_net(m, d, rho=1.0):
    return Network(
        m=m,
        d=d,
        rho=rho,
        signs=np.resize([1.0, -1.0], m).astype(float),
        weights=np.zeros((m, d)),
        init_weights=np.zeros((m, d)),
    )


def infinite_at(model, x):
    """Estimate and standard error at one point, through the batch pass."""
    est, se = infinite_forward_batch(model, np.asarray(x, dtype=float)[None, :])
    return float(est[0]), float(se[0])


class TestInfiniteForward:
    def test_zero_map_is_exactly_zero(self):
        model = zero_model(3, mc_features=1000)
        est, se = infinite_at(model, np.array([0.3, -0.2, 0.1]))
        assert est == 0.0 and se == 0.0

    def test_zero_input_is_exactly_zero(self):
        model = InfiniteWidthModel([1.0, 2.0], mc_features=1000)
        est, se = infinite_at(model, np.zeros(2))
        assert est == 0.0 and se == 0.0

    def test_constant_map_halves_inner_product(self):
        c = np.array([1.5, -0.5])
        model = InfiniteWidthModel(c, mc_features=100_000, mc_seed=3)
        x = np.array([0.4, 0.7])
        est, se = infinite_at(model, x)
        assert se > 0
        assert abs(est - float(c @ x) / 2.0) <= 4 * se

    def test_linear_in_weight_map(self):
        base = InfiniteWidthModel([1.0, 1.0], mc_features=5000, mc_seed=9)
        doubled = InfiniteWidthModel([2.0, 2.0], mc_features=5000, mc_seed=9)
        X = np.random.default_rng(1).uniform(-0.5, 0.5, size=(6, 2))
        est1, _ = infinite_forward_batch(base, X)
        est2, _ = infinite_forward_batch(doubled, X)
        np.testing.assert_allclose(est2, 2.0 * est1, rtol=1e-12)

    def test_cauchy_schwarz_envelope(self):
        model = InfiniteWidthModel([2.0, -1.0], mc_features=20_000, mc_seed=4)
        X = np.random.default_rng(2).uniform(-1, 1, size=(20, 2))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        est, _ = infinite_forward_batch(model, X)
        bound = model.norm_bound * np.linalg.norm(X, axis=1)
        assert np.all(np.abs(est) <= bound + 1e-12)

    def test_same_seed_identical(self):
        model = InfiniteWidthModel([1.0], mc_features=10_000, mc_seed=5)
        x = np.array([0.6])
        assert infinite_at(model, x) == infinite_at(model, x)

    @pytest.mark.parametrize("vector", [[np.nan], [1.0, np.inf], [[1.0]], 2.0],
                             ids=["nan", "inf", "2-d", "scalar"])
    def test_rejects_nonfinite_or_not_1d_vector(self, vector):
        with pytest.raises(ValueError):
            InfiniteWidthModel(vector)

    @pytest.mark.parametrize("field,value", [("mc_features", "1000"), ("mc_features", 1000.5),
                                             ("mc_seed", "3"), ("mc_seed", 2.5), ("mc_seed", -1),
                                             ("mc_seed", True)])
    def test_rejects_malformed_monte_carlo_budget(self, field, value):
        with pytest.raises(ValueError, match=field):
            InfiniteWidthModel([1.0], **{field: value})

    def test_accepts_numpy_integer_budget(self):
        model = InfiniteWidthModel([1.0], mc_features=np.int64(1000), mc_seed=np.uint32(3))
        assert infinite_at(model, [0.5]) == infinite_at(InfiniteWidthModel([1.0], 1000, 3), [0.5])

    def test_teacher_margins(self):
        theta = np.array([2.0])
        model = linear_teacher(theta, mc_features=200_000, mc_seed=6)
        x = np.array([0.5])
        est, se = infinite_at(model, x)
        assert abs(est - 1.0) <= 4 * se
        aff = affine_teacher([0.0], bias=math.log(3.0), mc_features=200_000, mc_seed=6)
        x_aug = np.array([0.5, 1.0]) / math.sqrt(2.0)
        est2, se2 = infinite_at(aff, x_aug)
        assert abs(est2 - math.log(3.0)) <= 4 * se2

    def test_model_from_config(self):
        m = model_from_config({"kind": "constant", "vector": [1.0, 0.0]})
        assert m.norm_bound == 1.0
        with pytest.raises(ValueError):
            model_from_config({"kind": "mystery"})


class TestSampleReference:
    def test_zero_map_reproduces_initialization(self):
        net = init_network(32, 2, 0.8, seed=11)
        ref = sample_reference(zero_model(2), net)
        assert np.array_equal(ref.ubar, net.init_weights)
        ff = freeze_features(net, at_init=True)
        x = np.array([[0.3, -0.1]])
        assert frozen_forward_batch(ff, ref.ubar, x)[0] == pytest.approx(
            forward_batch(net, x)[0], rel=1e-12, abs=1e-15
        )

    def test_norm_bound_holds_for_all_pairs(self):
        rng = np.random.default_rng(12)
        for m in (16, 64):
            for _ in range(3):
                d = int(rng.integers(1, 4))
                net = init_network(m, d, float(rng.uniform(0.2, 2.0)), seed=int(rng.integers(1e6)))
                vec = rng.standard_normal(d)
                model = InfiniteWidthModel(vec)
                ref = sample_reference(model, net)
                assert net.rho * ref.dist_from_init <= model.norm_bound * (1 + 1e-9)

    def test_bound_checked_on_offset_at_large_rho(self):
        # The offset is near the rounding of W0 at rho = 1e8, so rho times
        # the distance recomputed by subtraction exceeds the bound, while
        # rho times the offset norm stays within it.
        net = init_network(16, 1, 1e8, seed=derived_seed(2, 2))
        model = linear_teacher([2.0])
        ref = sample_reference(model, net)
        assert net.rho * ref.dist_from_init > model.norm_bound * (1 + 1e-9)
        offset = net.signs[:, None] * model.weight_map(net.init_weights) / (net.rho * 4.0)
        np.testing.assert_array_equal(ref.ubar, offset + net.init_weights)

    def test_dimension_mismatch(self):
        net = init_network(8, 2, 1.0, seed=13)
        with pytest.raises(ValueError):
            sample_reference(zero_model(3), net)


class TestGapExperiment:
    def test_identical_predictor_gap_is_one(self):
        # zero map with a zero-initialized source: both sides are the risk
        # of the identically-zero predictor on the same point set
        net = zero_weight_net(8, 1)
        dist = make_distribution("constant-1d", p=0.5)
        res = gap_experiment(zero_model(1, mc_features=100), net, dist)
        assert res.gap == 1.0
        assert res.frozen_risk == pytest.approx(LOG2, abs=1e-12)
        assert res.infinite_risk == pytest.approx(LOG2, abs=1e-12)

    def test_small_temperature_fair_coin(self):
        dist = make_distribution("constant-1d", p=0.5)
        net = init_network(256, 1, 1e-3, seed=14)
        res = gap_experiment(zero_model(1, mc_features=100), net, dist)
        assert res.frozen_risk == pytest.approx(LOG2, abs=1e-3)
        assert 1.0 <= res.gap <= 1.001

    def test_json_record_fields(self):
        net = init_network(64, 1, 0.5, seed=15)
        dist = make_distribution("logistic-1d", c=1.0)
        res = gap_experiment(linear_teacher([1.0], mc_features=20_000), net, dist)
        d = res.to_dict()
        assert set(d) == {"m", "rho", "frozen_risk", "infinite_risk", "gap", "se"}
        assert d["gap"] >= 1.0
