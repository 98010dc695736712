"""The exact arc kernel for d <= 2 against the dense products it replaces.

The dense oracle is the package's own chunked loop, reached by appending a
zero coordinate to every point and row: at d = 3 the dense path runs, and
the extra coordinate changes no product, activation or margin.  Property
tests draw coordinates from a dyadic grid, so every product and sum is
exact and exact ties s.x == 0 are frequent; the float tests use Gaussian
data at realistic sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowcal.arcs import ArcKernel
from shallowcal.network import FrozenFeatures, Network, forward_batch, frozen_forward_batch
from shallowcal.reference import _mc_directions, affine_teacher, infinite_forward_batch
from shallowcal.trainer import TrainConfig, _frozen_risk_at, _risk_and_grad, train

RTOL = 1e-12

grid = st.integers(-8, 8).map(lambda v: v / 8.0)


def pad(A):
    return np.hstack([A, np.zeros((A.shape[0], 1))])


def matrix(rows, d):
    return st.lists(st.lists(grid, min_size=d, max_size=d), min_size=rows, max_size=rows).map(
        lambda v: np.array(v, dtype=float).reshape(rows, d)
    )


@st.composite
def problems(draw):
    """(X, W, V, signs) with d in {1, 2}; zero rows, zero points and
    duplicate points come up often on the grid."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    X = draw(matrix(n, d))
    if n > 1 and draw(st.booleans()):
        X[draw(st.integers(1, n - 1)) :] = X[0]
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    return X, draw(matrix(m, d)), draw(matrix(m, d)), signs


def net_of(W, signs, rho=0.75):
    return Network(m=len(W), d=W.shape[1], rho=rho, signs=signs, weights=W.copy(),
                   init_weights=W.copy())


def assert_close(arc, dense):
    scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
    np.testing.assert_allclose(arc, dense, rtol=RTOL, atol=RTOL * scale)


def dense_mc(model, X):
    """Monte Carlo estimate and standard error as explicit dense sums."""
    dirs = _mc_directions(model)
    contrib = (X @ model.weight_map(dirs).T) * (X @ dirs.T >= 0)
    M = model.mc_features
    est = contrib.sum(axis=1) / M
    var = np.maximum((contrib**2).sum(axis=1) - M * est**2, 0.0) / (M * (M - 1))
    return est, np.sqrt(var)


class TestAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_margins(self, prob):
        X, W, _, signs = prob
        assert_close(forward_batch(net_of(W, signs), X),
                     forward_batch(net_of(pad(W), signs), pad(X)))

    @settings(max_examples=300, deadline=None)
    @given(problems())
    def test_frozen_margins(self, prob):
        X, W, V, signs = prob
        arc = frozen_forward_batch(FrozenFeatures(W, signs, 0.75), V, X)
        dense = frozen_forward_batch(FrozenFeatures(pad(W), signs, 0.75), pad(V), pad(X))
        assert_close(arc, dense)

    @settings(max_examples=300, deadline=None)
    @given(problems(), st.data())
    def test_adjoint_rows_and_frozen_risks(self, prob, data):
        X, W, V, signs = prob
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=len(X), max_size=len(X))))
        risk, grad, refs, frozen = _risk_and_grad(W, signs, 0.3, X, y, [V])
        d_risk, d_grad, d_refs, _ = _risk_and_grad(pad(W), signs, 0.3, pad(X), y, [pad(V)])
        assert risk == pytest.approx(d_risk, rel=RTOL)
        assert refs[0] == pytest.approx(d_refs[0], rel=RTOL)
        assert_close(grad, d_grad[:, : W.shape[1]])
        assert frozen(V + W) == pytest.approx(
            _frozen_risk_at(pad(W), pad(V + W), signs, 0.3, pad(X), y), rel=RTOL
        )

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_one_homogeneity(self, prob):
        # <sum_k c_k grad f(x_k; W), W> = sum_k c_k f(x_k; W)
        X, W, _, signs = prob
        arcs = ArcKernel(W, signs, 0.75, X)
        f = arcs.margins(W)
        for k in range(len(X)):
            c = np.zeros(len(X))
            c[k] = 1.0
            assert np.sum(arcs.adjoint(c) * W) == pytest.approx(f[k], rel=RTOL, abs=RTOL)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gaussian_data(self, d):
        rng = np.random.default_rng(40 + d)
        n, m = 300, 2000
        X = rng.standard_normal((n, d))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
        W, V = rng.standard_normal((m, d)), rng.standard_normal((m, d))
        signs = rng.choice([-1.0, 1.0], m)
        y = rng.choice([-1.0, 1.0], n)
        assert_close(forward_batch(net_of(W, signs), X),
                     forward_batch(net_of(pad(W), signs), pad(X)))
        risk, grad, refs, _ = _risk_and_grad(W, signs, 0.3, X, y, [V])
        d_risk, d_grad, d_refs, _ = _risk_and_grad(pad(W), signs, 0.3, pad(X), y, [pad(V)])
        assert risk == pytest.approx(d_risk, rel=RTOL)
        assert refs[0] == pytest.approx(d_refs[0], rel=RTOL)
        assert np.linalg.norm(grad - d_grad[:, :d]) <= RTOL * np.linalg.norm(d_grad)

    @pytest.mark.parametrize("d", [1, 2])
    def test_monte_carlo_estimate_and_se(self, d):
        rng = np.random.default_rng(7 + d)
        X = rng.uniform(-1, 1, (200, d))
        X[3] = 0.0
        model = affine_teacher(np.full(d - 1, 1.5), 0.5, mc_features=5000, mc_seed=d)
        est, se = infinite_forward_batch(model, X)
        d_est, d_se = dense_mc(model, X)
        assert_close(est, d_est)
        np.testing.assert_allclose(se, d_se, rtol=1e-9, atol=1e-15)
        assert est[3] == 0.0 and se[3] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_monte_carlo_sums_on_grid(self, prob):
        X, W, V, _ = prob
        M = len(W)
        arcs = ArcKernel(W, np.ones(M), 1.0 / M, X)
        contrib = (X @ V.T) * (X @ W.T >= 0)
        assert_close(arcs.margins(V), contrib.sum(axis=1) / M)
        assert_close(arcs.second_moment(V), (contrib**2).sum(axis=1) / M)


class TestTieRule:
    def test_perpendicular_point_is_active(self):
        for c in (0.5, -2.0):
            arcs = ArcKernel(np.array([[1.0, 0.0]]), np.ones(1), 1.0, np.array([[0.0, c]]))
            assert arcs.margins(np.array([[0.0, 1.0]]))[0] == c

    def test_zero_row_spans_every_point(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, -0.75]])
        arcs = ArcKernel(np.zeros((1, 2)), np.ones(1), 1.0, X)
        assert np.array_equal(arcs.margins(np.array([[1.0, 2.0]])), X @ [1.0, 2.0])
        assert np.array_equal(arcs.adjoint(np.ones(5)), X.sum(axis=0, keepdims=True))

    def test_zero_points_contribute_nothing(self):
        X = np.array([[0.0, 0.0], [0.5, 0.5], [-0.0, 0.0]])
        W = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 1.0]])
        arcs = ArcKernel(W, np.ones(3), 1.0, X)
        f = arcs.margins(W)
        assert f[0] == 0.0 and f[2] == 0.0
        np.testing.assert_array_equal(arcs.adjoint(np.array([5.0, 0.0, 7.0])), np.zeros((3, 2)))

    def test_angle_rounding_does_not_move_boundary_points(self):
        # Points a hair off the boundary of s = (1, 0) round to exactly the
        # boundary angles -pi/2 and pi/2, so the angle search alone would
        # take the inactive ones in.
        t = 1e-300
        X = np.array([[-t, -1.0], [t, -1.0], [0.0, -1.0], [-t, 1.0], [t, 1.0], [0.0, 1.0]])
        W = np.array([[1.0, 0.0]])
        V = np.array([[1.0, 1.0]])
        arc = frozen_forward_batch(FrozenFeatures(W, np.ones(1), 1.0), V, X)
        dense = frozen_forward_batch(FrozenFeatures(pad(W), np.ones(1), 1.0), pad(V), pad(X))
        assert np.array_equal(arc != 0, [False, True, True, False, True, True])
        assert np.array_equal(arc, dense)

    def test_negative_axis_seen_from_both_sides(self):
        # (-1, 0) and (-1, -0.0) sit at angle +pi and -pi: one direction.
        X = np.array([[-1.0, 0.0], [-1.0, -0.0], [0.0, -1.0], [0.0, 1.0]])
        W = np.array([[0.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        dense = forward_batch(net_of(pad(W), np.ones(4)), pad(X))
        assert np.array_equal(forward_batch(net_of(W, np.ones(4)), X), dense)

    def test_single_point_and_one_dimension(self):
        W = np.array([[2.0], [-1.0], [0.0]])
        signs = np.array([1.0, 1.0, -1.0])
        for x in (0.5, -0.5, 0.0):
            X = np.array([[x]])
            assert forward_batch(net_of(W, signs), X)[0] == forward_batch(
                net_of(pad(W), signs), pad(X)
            )[0]


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_point_gets_nan_like_dense(self):
        X = np.array([[0.5, 0.5], [np.nan, 0.5], [np.inf, 0.0], [-0.5, 0.25]])
        W = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
        arc = forward_batch(net_of(W, np.ones(3)), X)
        dense = forward_batch(net_of(pad(W), np.ones(3)), pad(X))
        np.testing.assert_array_equal(np.isnan(arc), np.isnan(dense))
        np.testing.assert_allclose(arc[[0, 3]], dense[[0, 3]], rtol=RTOL)


class TestDeterminism:
    def test_two_calls_bitwise_identical(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (257, 2))
        W = rng.standard_normal((4096, 2))
        signs = rng.choice([-1.0, 1.0], 4096)
        c = rng.standard_normal(257)
        one, two = ArcKernel(W, signs, 0.1, X), ArcKernel(W, signs, 0.1, X)
        assert np.array_equal(one.margins(W), two.margins(W))
        assert np.array_equal(one.adjoint(c), two.adjoint(c))
        assert np.array_equal(one.second_moment(W), two.second_moment(W))

    def test_training_runs_bitwise_identical(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 200)
        X = np.stack([x, np.ones_like(x)], axis=1) / np.sqrt(2.0)
        y = np.where(rng.random(200) < 1 / (1 + np.exp(-4 * x)), 1.0, -1.0)
        runs = []
        for _ in range(2):
            W = np.random.default_rng(6).standard_normal((1024, 2))
            net = net_of(W, np.where(np.arange(1024) % 2 == 0, 1.0, -1.0), rho=0.5)
            traj = train(net, X, y, TrainConfig(eta=16.0, t_max=4), regret_refs={"W0": W})
            runs.append((net.weights.copy(), [r.emp_risk for r in traj.records],
                         traj.certificates["W0"].frozen_next.tolist()))
            assert traj.smoothness_ok() and traj.regret_ok()
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]
