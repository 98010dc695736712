import numpy as np
import pytest

from shallowcal.kernel import kernel
from shallowcal.network import (
    Network,
    augment_batch,
    clone_initial,
    forward_batch,
    freeze_features,
    frozen_forward_batch,
    init_network,
)


def manual_net(signs, weights, rho=1.0):
    signs = np.asarray(signs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return Network(
        m=len(signs),
        d=weights.shape[1],
        rho=rho,
        signs=signs,
        weights=weights.copy(),
        init_weights=weights.copy(),
    )


def forward_at(net, x):
    """f(x; W) at one point, through the batch predictor."""
    return float(forward_batch(net, np.asarray(x, dtype=float)[None, :])[0])


def gradient_at(net, x):
    """Weight gradient of f at one point: the kernel's adjoint with c = 1."""
    x = np.asarray(x, dtype=float)
    return kernel(net.weights, net.signs, net.scale, x[None, :]).adjoint(np.ones(1))


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_network(64, 5, 0.5, seed=42)
        b = init_network(64, 5, 0.5, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.init_weights, b.init_weights)

    def test_weight_mean_clt_bound(self):
        net = init_network(10_000, 10, 1.0, seed=0)
        assert abs(net.weights.mean()) <= 3.5 / np.sqrt(10_000 * 10)

    def test_both_signs_present(self):
        net = init_network(64, 2, 1.0, seed=7)
        assert np.any(net.signs == 1.0) and np.any(net.signs == -1.0)

    def test_init_snapshot_immutable(self):
        net = init_network(8, 2, 1.0, seed=1)
        with pytest.raises(ValueError):
            net.init_weights[0, 0] = 99.0

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0])
    def test_rejects_rho_that_is_not_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho"):
            init_network(8, 2, rho, seed=1)

    def test_clone_initial_resets(self):
        net = init_network(8, 2, 1.0, seed=1)
        net.weights += 1.0
        fresh = clone_initial(net)
        assert np.array_equal(fresh.weights, net.init_weights)


class TestForward:
    def test_single_relu(self):
        net = manual_net([1.0], [[1.0, 0.0]])
        assert forward_at(net, [1.0, 0.0]) == 1.0

    def test_dead_relu(self):
        net = manual_net([1.0], [[1.0, 0.0]])
        assert forward_at(net, [-1.0, 0.0]) == 0.0

    def test_cancellation(self):
        net = manual_net([1.0, -1.0], [[1.0, 0.0], [1.0, 0.0]], rho=2.0)
        assert forward_at(net, [1.0, 0.0]) == 0.0

    def test_batch_matches_single(self):
        net = init_network(33, 4, 0.7, seed=5)
        X = np.random.default_rng(6).uniform(-0.5, 0.5, size=(17, 4))
        batch = forward_batch(net, X)
        single = [net.scale * (net.signs @ np.maximum(net.weights @ x, 0.0)) for x in X]
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_positive_homogeneity_in_x(self):
        net = init_network(16, 3, 1.3, seed=8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 3)) * 0.2
        c = rng.uniform(0.1, 3.0, 20)
        np.testing.assert_allclose(
            forward_batch(net, c[:, None] * X), c * forward_batch(net, X), rtol=1e-12
        )

    def test_dimension_mismatch(self):
        net = init_network(4, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros(3))


class TestFeatureGradient:
    def test_zero_input_gives_zero_matrix(self):
        net = init_network(6, 3, 1.0, seed=2)
        grad = gradient_at(net, np.zeros(3))
        assert np.array_equal(grad, np.zeros((6, 3)))

    def test_single_relu_row(self):
        net = manual_net([1.0], [[1.0, 0.0]])
        grad = gradient_at(net, np.array([1.0, 0.0]))
        np.testing.assert_allclose(grad, [[1.0, 0.0]])

    def test_frobenius_norm_identity(self):
        # ||grad||^2 = (rho^2/m) * (#active) * ||x||^2, and <= rho^2 ||x||^2
        net = init_network(50, 4, 1.7, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            grad = gradient_at(net, x)
            active = int(np.sum(net.weights @ x >= 0))
            expect = net.rho * np.sqrt(active / net.m)
            assert np.linalg.norm(grad) == pytest.approx(expect, rel=1e-12)
            assert np.linalg.norm(grad) <= net.rho + 1e-12

    def test_directional_derivative(self):
        net = init_network(40, 3, 0.9, seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(3)
        x /= 2 * np.linalg.norm(x)
        # skip knife-edge activations
        assert np.min(np.abs(net.weights @ x)) > 1e-4
        delta = rng.standard_normal((40, 3))
        h = 1e-6
        net_hi = clone_initial(net)
        net_hi.weights[...] = net.weights + h * delta
        fd = (forward_at(net_hi, x) - forward_at(net, x)) / h
        inner = float(np.sum(gradient_at(net, x) * delta))
        assert fd == pytest.approx(inner, abs=1e-5)


class TestFrozenFeatures:
    def test_homogeneity_identity(self):
        net = init_network(32, 3, 1.1, seed=12)
        ff = freeze_features(net)
        X = np.random.default_rng(13).standard_normal((10, 3)) * 0.3
        np.testing.assert_allclose(
            frozen_forward_batch(ff, net.weights, X), forward_batch(net, X), rtol=1e-12, atol=1e-15
        )

    def test_linearity(self):
        net = init_network(16, 2, 1.0, seed=14)
        ff = freeze_features(net)
        x = np.array([[0.4, -0.2]])
        v = forward_batch(net, x)[0]
        assert frozen_forward_batch(ff, np.zeros((16, 2)), x)[0] == 0.0
        assert frozen_forward_batch(ff, 2.0 * net.weights, x)[0] == pytest.approx(
            2.0 * v, rel=1e-12, abs=1e-15
        )

    def test_batch_matches_single(self):
        net = init_network(21, 3, 0.8, seed=15)
        ff = freeze_features(net)
        V = np.random.default_rng(16).standard_normal((21, 3))
        X = np.random.default_rng(17).uniform(-0.4, 0.4, size=(9, 3))
        batch = frozen_forward_batch(ff, V, X)
        single = [ff.scale * (ff.signs * (ff.sign_source @ x >= 0)) @ (V @ x) for x in X]
        np.testing.assert_allclose(batch, single, rtol=1e-12)


class TestAugment:
    def test_origin(self):
        out = augment_batch(np.zeros((1, 1)))[0]
        np.testing.assert_allclose(out, [0.0, 1 / np.sqrt(2)])
        assert np.linalg.norm(out) == pytest.approx(1 / np.sqrt(2))

    def test_unit_norm_input(self):
        out = augment_batch(np.array([[0.6, 0.8]]))[0]
        np.testing.assert_allclose(out, np.array([0.6, 0.8, 1.0]) / np.sqrt(2))
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-15)

    def test_batch(self):
        X = np.array([[0.3, -0.4], [0.0, 0.0]])
        out = augment_batch(X)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[1], [0.0, 0.0, 1 / np.sqrt(2)])
