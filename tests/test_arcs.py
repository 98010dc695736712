"""The masked-margin kernels: the exact arc kernel for d <= 2 against the
dense kernel, and the dense kernel against one unblocked product.

The dense oracle is the package's own ``DenseKernel``, reached by appending
a zero coordinate to every point and row: at d = 3 ``kernel`` picks it, and
the extra coordinate changes no product, activation or margin.  Property
tests draw coordinates from a dyadic grid, so every product and sum is
exact and exact ties s.x == 0 are frequent; the float tests use Gaussian
data at realistic sizes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shallowcal import kernel as kernel_module
from shallowcal.kernel import ArcKernel, DenseKernel, kernel
from shallowcal.network import FrozenFeatures, Network, forward_batch, frozen_forward_batch
from shallowcal.reference import _mc_directions, affine_teacher, infinite_forward_batch
from shallowcal.trainer import TrainConfig, _risk_and_grad, train

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
        eta = data.draw(st.floats(0.0, 16.0))
        risk, grad, refs, frozen = _risk_and_grad(W, signs, 0.3, X, y, [V])
        d_risk, d_grad, d_refs, d_frozen = _risk_and_grad(pad(W), signs, 0.3, pad(X), y, [pad(V)])
        assert risk == pytest.approx(d_risk, rel=RTOL)
        assert refs[0] == pytest.approx(d_refs[0], rel=RTOL)
        assert_close(grad, d_grad[:, : W.shape[1]])
        assert frozen(eta) == pytest.approx(d_frozen(eta), rel=RTOL)

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
        first, second = arcs.moments(V)
        assert np.array_equal(first, arcs.margins(V))
        assert_close(first, contrib.sum(axis=1) / M)
        assert_close(second, (contrib**2).sum(axis=1) / M)


class TestDenseKernel:
    @pytest.mark.parametrize("budget", [1, 64 * 7, 64 * 50])
    def test_tiles_agree_with_one_tile(self, monkeypatch, budget):
        # 200 points, 50 sources: tiles of 1 x 1, of 64 x 7 and of 64 x 50,
        # the last row and source blocks ragged; the reference is one tile.
        rng = np.random.default_rng(21)
        X = rng.standard_normal((200, 4)) / 2.0
        S, V = rng.standard_normal((50, 4)), rng.standard_normal((50, 4))
        signs = rng.choice([-1.0, 1.0], 50)
        c = rng.standard_normal(200)
        one = DenseKernel(S, signs, 0.3, X)
        assert len(kernel_module.tiles(200, 50)) == 1
        ref = (one.margins(V), *one.moments(V), one.adjoint(c), one.margins(S))
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", budget)
        rows, cols = kernel_module.tiles(200, 50)[-1]
        assert rows.stop - rows.start < 64 or budget == 1
        assert cols.stop == 50 and rows.stop == 200
        tiled = DenseKernel(S, signs, 0.3, X)
        got = (tiled.margins(V), *tiled.moments(V), tiled.adjoint(c), tiled.margins(S))
        for a, b in zip(got, ref):
            assert_close(a, b)

    def test_one_tile_is_the_plain_product(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 3))
        S, V = rng.standard_normal((40, 3)), rng.standard_normal((40, 3))
        signs = rng.choice([-1.0, 1.0], 40)
        c = rng.standard_normal(30)
        act = X @ S.T >= 0
        proj = (X @ V.T) * act
        K = DenseKernel(S, signs, 0.7, X)
        first, second = K.moments(V)
        assert_close(K.margins(V), 0.7 * proj @ signs)
        assert_close(first, 0.7 * proj @ signs)
        assert_close(second, 0.7 * (proj**2).sum(axis=1))
        assert_close(K.adjoint(c), 0.7 * signs[:, None] * ((act * c[:, None]).T @ X))
        # the source matrix itself is read like any other values matrix
        assert_close(K.margins(S), K.margins(S.copy()))

    def test_kernel_picks_by_dimension(self):
        signs = np.ones(3)
        for d, kind in ((1, ArcKernel), (2, ArcKernel), (3, DenseKernel), (5, DenseKernel)):
            assert type(kernel(np.ones((3, d)), signs, 1.0, np.ones((4, d)))) is kind
        with pytest.raises(ValueError):
            kernel(np.ones((3, 2)), signs, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            kernel(np.ones((3, 3)), signs, 1.0, np.ones((4, 2)))


@st.composite
def masked_sum_problems(draw):
    """(X, S, R, C, values, signs) on the grid with d in {1, 2, 3}: every
    product and sum is exact, so both kernels must match the plain mask."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 20))
    c = draw(st.integers(1, 4))
    X = draw(matrix(n, d))
    if n > 1 and draw(st.booleans()):
        X[draw(st.integers(1, n - 1)) :] = X[0]
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    values = [draw(matrix(m, d)) for _ in range(draw(st.integers(1, 3)))]
    return X, draw(matrix(m, d)), draw(matrix(m, c)), draw(matrix(n, c)), values, signs


class TestMaskedSums:
    @pytest.mark.parametrize("budget", [1, 64 * 7, kernel_module._CHUNK_BUDGET])
    @settings(max_examples=100, deadline=None)
    @given(masked_sum_problems())
    def test_against_plain_mask(self, budget, prob):
        X, S, R, C, values, signs = prob
        M = (X @ S.T >= 0).astype(float)
        backends = [DenseKernel] + ([ArcKernel] if X.shape[1] <= 2 else [])
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget):
            for backend in backends:
                K = backend(S, signs, 0.75, X)
                np.testing.assert_array_equal(K.mask_sum(R), M @ R)
                np.testing.assert_array_equal(K.mask_adjoint(C), M.T @ C)
                many = K.margins_many(values)
                for V, got in zip(values, many):
                    assert_close(got, 0.75 * ((X @ V.T) * M) @ signs)
                    np.testing.assert_allclose(got, K.margins(V), rtol=1e-13, atol=0)
                first, second = K.moments(values[0])
                assert_close(first, many[0])
                assert_close(second, 0.75 * ((X @ values[0].T) ** 2 * M).sum(axis=1))

    def test_batched_margins_match_single_on_float_data(self):
        rng = np.random.default_rng(23)
        n, m, d = 300, 2500, 4
        X = rng.standard_normal((n, d)) / 2.0
        S = rng.standard_normal((m, d))
        signs = rng.choice([-1.0, 1.0], m)
        values = [S, S + 0.1 * rng.standard_normal((m, d)), rng.standard_normal((m, d))]
        K = kernel(S, signs, 0.3, X)
        for got, V in zip(K.margins_many(values), values):
            want = K.margins(V)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_trainer_step_holds_no_n_by_m_array(self):
        # One step with two references at n = 1024, m = 4096, d = 4: one
        # n x m float array would be 32 MiB; the tiles keep the traced peak
        # to a few tiles plus O((n + m) c) floats for c = 3 d columns.
        rng = np.random.default_rng(24)
        n, m, d = 1024, 4096, 4
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1)[:, None]
        W = rng.standard_normal((m, d))
        refs = [W + 0.1, rng.standard_normal((m, d))]
        signs = rng.choice([-1.0, 1.0], m)
        y = rng.choice([-1.0, 1.0], n)
        tracemalloc.start()
        try:
            _risk_and_grad(W, signs, 0.3, X, y, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * 8 * kernel_module._CHUNK_BUDGET + 4 * 8 * (n + m) * 3 * d
        assert bound < 0.1 * 8 * n * m
        assert peak < bound


@st.composite
def fused_problems(draw, d_options=(1, 2, 3, 4)):
    """(X, S, coeff, signs) on the grid: up to 8 points and up to 300
    sources, so a 512-scalar budget cuts the grid into many strips."""
    d = draw(st.sampled_from(d_options))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 300))
    signs = draw(hnp.arrays(float, m, elements=st.sampled_from([-1.0, 1.0])))
    return (draw(hnp.arrays(float, (n, d), elements=grid)),
            draw(hnp.arrays(float, (m, d), elements=grid)),
            draw(hnp.arrays(float, n, elements=grid)), signs)


class TestAdjointMargins:
    """``adjoint_margins`` against ``adjoint`` followed by ``margins``: the
    fused dense pass over full-height strips, its fallback for shorter
    tiles, and the arc kernel."""

    # 512 scalars: n <= 8 points give full-height strips 512 // n wide;
    # 4 scalars: n > 4 points give tiles 4 rows high, so the fallback.
    @pytest.mark.parametrize("budget", [512, 4, kernel_module._CHUNK_BUDGET])
    @settings(max_examples=50, deadline=None)
    @given(fused_problems())
    def test_dense_matches_composition_on_grid(self, budget, prob):
        X, S, c, signs = prob
        M = (X @ S.T >= 0).astype(float)
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget):
            K = DenseKernel(S, signs, 0.75, X)
            G, g = K.adjoint_margins(c)
            np.testing.assert_array_equal(G, K.adjoint(c))
            np.testing.assert_array_equal(g, K.margins(G))
        np.testing.assert_array_equal(G, 0.75 * signs[:, None] * (M.T @ (c[:, None] * X)))

    @pytest.mark.parametrize("n,m,budget", [(8, 300, 512), (8, 300, 4), (300, 2500, None)],
                             ids=["strips", "fallback", "default-budget"])
    def test_dense_matches_composition_on_gaussian_data(self, n, m, budget):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((n, 4)) / 2.0
        S = rng.standard_normal((m, 4))
        signs = rng.choice([-1.0, 1.0], m)
        c = rng.standard_normal(n)
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget or kernel_module._CHUNK_BUDGET):
            strips = all(r.stop - r.start == n for r, _ in kernel_module.tiles(n, m))
            assert strips == (budget != 4)
            K = DenseKernel(S, signs, 0.3, X)
            G, g = K.adjoint_margins(c)
            want_G = K.adjoint(c)
            want_g = K.margins(want_G)
        assert np.max(np.abs(G - want_G)) <= 1e-13 * np.max(np.abs(want_G))
        assert np.max(np.abs(g - want_g)) <= 1e-13 * np.max(np.abs(want_g))

    @pytest.mark.parametrize("budget", [512, kernel_module._CHUNK_BUDGET])
    @settings(max_examples=50, deadline=None)
    @given(fused_problems(d_options=(1, 2)))
    def test_arc_agrees_with_dense(self, budget, prob):
        X, W, c, signs = prob
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget):
            G, g = ArcKernel(W, signs, 0.75, X).adjoint_margins(c)
            d_G, d_g = DenseKernel(pad(W), signs, 0.75, pad(X)).adjoint_margins(c)
        assert_close(G, d_G[:, : W.shape[1]])
        assert_close(g, d_g)


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
        for a, b in zip(one.moments(W), two.moments(W)):
            assert np.array_equal(a, b)

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
