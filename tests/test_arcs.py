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
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shallowcal import kernel as kernel_module
from shallowcal import reference
from shallowcal.kernel import ArcKernel, DenseKernel, Ring, kernel
from shallowcal.network import Network, forward_batch, frozen_forward_batch
from shallowcal.reference import (
    InfiniteWidthModel,
    _mc_directions,
    affine_teacher,
    infinite_forward_batch,
)
from shallowcal.trainer import TrainConfig, descend, train

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


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_mc(model, X):
    """Monte Carlo estimate and standard error as explicit dense sums."""
    dirs = _mc_directions(model)
    contrib = (X @ model.weight_map(dirs).T) * (X @ dirs.T >= 0)
    M = model.mc_features
    est = contrib.sum(axis=1) / M
    var = np.maximum((contrib**2).sum(axis=1) - M * est**2, 0.0) / (M * (M - 1))
    return est, np.sqrt(var)


@st.composite
def monte_carlo_problems(draw):
    """(model, X) on the grid with d in {1, 2, 3, 4} and up to 64
    directions; zero points come up often."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(1, 12))
    X = draw(hnp.arrays(float, (n, d), elements=grid))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        X[k] = 0.0
    vector = draw(hnp.arrays(float, d, elements=grid))
    model = InfiniteWidthModel(vector, mc_features=draw(st.integers(2, 64)),
                               mc_seed=draw(st.integers(0, 1000)))
    return model, X


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
        arc = frozen_forward_batch(net_of(W, signs), V, X)
        dense = frozen_forward_batch(net_of(pad(W), signs), pad(V), pad(X))
        assert_close(arc, dense)

    @settings(max_examples=300, deadline=None)
    @given(problems(), st.data())
    def test_adjoint_rows_and_frozen_risks(self, prob, data):
        X, W, V, signs = prob
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=len(X), max_size=len(X))))
        eta = data.draw(st.floats(0.0, 16.0))
        arc = next(descend(net_of(W, signs), X, y, eta, 1, [V]))
        dense = next(descend(net_of(pad(W), signs), pad(X), y, eta, 1, [pad(V)]))
        assert arc.risk == pytest.approx(dense.risk, rel=RTOL)
        assert arc.ref_risks[0] == pytest.approx(dense.ref_risks[0], rel=RTOL)
        assert_close(arc.grad, dense.grad[:, : W.shape[1]])
        assert arc.frozen_next == pytest.approx(dense.frozen_next, rel=RTOL)

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
        arc = next(descend(net_of(W, signs), X, y, 1.0, 1, [V]))
        dense = next(descend(net_of(pad(W), signs), pad(X), y, 1.0, 1, [pad(V)]))
        assert arc.risk == pytest.approx(dense.risk, rel=RTOL)
        assert arc.ref_risks[0] == pytest.approx(dense.ref_risks[0], rel=RTOL)
        assert np.linalg.norm(arc.grad - dense.grad[:, :d]) <= RTOL * np.linalg.norm(dense.grad)

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

    @settings(max_examples=200, deadline=None)
    @given(monte_carlo_problems())
    def test_monte_carlo_on_grid(self, prob):
        model, X = prob
        est, se = infinite_forward_batch(model, X)
        d_est, d_se = dense_mc(model, X)
        np.testing.assert_array_equal(est, d_est)
        np.testing.assert_allclose(se, d_se, rtol=1e-9, atol=1e-15)
        zero = (X == 0).all(axis=1)
        assert np.all(est[zero] == 0.0) and np.all(se[zero] == 0.0)

    @pytest.mark.parametrize("d", [2, 4])
    def test_estimate_is_scaled_count(self, d):
        rng = np.random.default_rng(30 + d)
        X = rng.standard_normal((300, d)) / 2.0
        model = InfiniteWidthModel(rng.standard_normal(d), mc_features=5000, mc_seed=d)
        count = np.count_nonzero(X @ _mc_directions(model).T >= 0, axis=1)
        est, _ = infinite_forward_batch(model, X)
        np.testing.assert_array_equal(est, (X @ model.vector) * count / model.mc_features)


@st.composite
def count_problems(draw):
    """(S, X) on the grid with d in {1, 2, 3, 4}: some sources are positive
    multiples of others, so their angles tie exactly, some are zero rows;
    zero points come up often."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    X = draw(hnp.arrays(float, (n, d), elements=grid))
    S = draw(hnp.arrays(float, (m, d), elements=grid))
    for j, k, c in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                           st.sampled_from([0.0, 0.5, 2.0])), max_size=6)):
        S[j] = c * S[k]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        X[k] = 0.0
    return S, X


def unfused_count(S, X):
    """Sources with s1*x1 + s2*x2 >= 0 at each planar point, summed
    elementwise without fused multiply-add."""
    return np.count_nonzero(S[None, :, 0] * X[:, None, 0] + S[None, :, 1] * X[:, None, 1] >= 0,
                            axis=1)


def held_count(S, X):
    """The Monte Carlo count over directions S held as the reference holds
    them: a ring for d <= 2, the array itself otherwise."""
    return reference._active_count(Ring(S) if S.shape[1] <= 2 else S, X)


def old_angle_order(P):
    """The arc kernel's sort of planar rows before the fast path: always the
    stable sort, then each run of equal angles by cross products with its
    first row."""
    theta = np.arctan2(P[:, 1], P[:, 0])
    theta[theta >= np.pi] -= 2.0 * np.pi
    order = np.argsort(theta, kind="stable")
    phi, Q = theta[order], P[order]
    run = np.cumsum(np.diff(phi, prepend=phi[:1]) != 0)
    ref = Q[np.searchsorted(run, run)]
    return order[np.lexsort((ref[:, 0] * Q[:, 1] - ref[:, 1] * Q[:, 0], run))], phi


class TestCountActive:
    @settings(max_examples=300, deadline=None)
    @given(count_problems())
    def test_against_plain_mask_and_kernel(self, prob):
        S, X = prob
        count = held_count(S, X)
        assert count.dtype == np.intp
        np.testing.assert_array_equal(count, np.count_nonzero(X @ S.T >= 0, axis=1))
        ones = np.ones((len(S), 1))
        np.testing.assert_array_equal(count, kernel(S, ones[:, 0], 1.0, X).mask_sum(ones)[:, 0])
        assert np.all(count[(X == 0).all(axis=1)] == len(S))

    def test_tied_run_straddling_a_boundary(self):
        # Sources (1, b) for twelve adjacent doubles b from 0.7: arctan2
        # gives several pairs of them one angle.  The point (b_j, -1) has
        # s.x = b_j - b exactly, so its boundary passes through s_j and
        # splits s_j's tied run; (-b_j, 1) sees the run from the other end.
        # Any input order must give the counterclockwise order in a run.
        b = [0.7]
        for _ in range(11):
            b.append(np.nextafter(b[-1], 1.0))
        b = np.array(b)
        S = np.vstack([np.stack([np.ones_like(b), b], axis=1), [[0.2, -0.9], [-0.6, 0.1]]])
        theta = np.arctan2(S[:12, 1], S[:12, 0])
        assert np.any(theta[1:] == theta[:-1])
        X = np.vstack([np.stack([b, -np.ones_like(b)], axis=1),
                       np.stack([-b, np.ones_like(b)], axis=1)])
        ones = np.ones((len(S), 1))
        for seed in range(20):
            Sp = S[np.random.default_rng(seed).permutation(len(S))]
            count = held_count(Sp, X)
            np.testing.assert_array_equal(count, unfused_count(Sp, X))
            np.testing.assert_array_equal(count, ArcKernel(Sp, ones[:, 0], 1.0, X).mask_sum(ones)[:, 0])

    @settings(max_examples=200, deadline=None)
    @given(count_problems(), st.data())
    def test_one_counter_serves_many_point_sets(self, prob, data):
        S, X = prob
        sample = Ring(S) if S.shape[1] <= 2 else S
        for _ in range(3):
            X = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 12)), S.shape[1]),
                                     elements=grid))
            count = reference._active_count(sample, X)
            np.testing.assert_array_equal(count, np.count_nonzero(X @ S.T >= 0, axis=1))
            np.testing.assert_array_equal(count, held_count(S, X))

    @pytest.mark.parametrize("m,n", [(3000, 500), (200_000, 512)])
    def test_gaussian_directions_match_unfused_predicate(self, m, n):
        rng = np.random.default_rng(m)
        S = rng.standard_normal((m, 2))
        X = rng.uniform(-1, 1, (n, 2))
        want = np.concatenate([unfused_count(S, X[i : i + 16]) for i in range(0, n, 16)])
        np.testing.assert_array_equal(held_count(S, X), want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_ring_count_is_the_kernels_sum_of_ones(self, d):
        # Gaussian directions with zero rows, and points with a zero one.
        rng = np.random.default_rng(34 + d)
        m, n = 5000, 400
        S = rng.standard_normal((m, d))
        S[:3] = 0.0
        X = rng.uniform(-1, 1, (n, d))
        X[0] = 0.0
        count = held_count(S, X)
        ones = np.ones((m, 1))
        for backend in (ArcKernel, DenseKernel):
            np.testing.assert_array_equal(count, backend(S, ones[:, 0], 1.0, X).mask_sum(ones)[:, 0])
        assert count[0] == m


class TestByAngle:
    """The angle sort of every ``Ring``: the unstable default sort on
    distinct angles, the stable sort with ordered tied runs otherwise, both
    the old always-stable order."""

    @pytest.mark.parametrize("n", [1, 2, 1000, 200_000])
    def test_untied_input_takes_the_fast_path_to_the_old_order(self, n):
        P = np.random.default_rng(n).standard_normal((n, 2))
        rows = np.arange(n)
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("stable path")):
            order, phi = kernel_module._by_angle(P, rows)
        want, want_phi = old_angle_order(P)
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(phi, want_phi)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(2)), elements=grid))
    def test_tied_input_gives_the_old_order(self, P):
        P = P[(P != 0).any(axis=1)]
        order, phi = kernel_module._by_angle(P, np.arange(len(P)))
        want, want_phi = old_angle_order(P)
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(phi, want_phi)

    def test_rows_index_into_the_whole_array(self):
        P = np.array([[0.0, 0.0], [0.0, 1.0], [np.nan, 1.0], [1.0, 0.0], [-1.0, -0.0], [2.0, 0.0]])
        rows = np.array([1, 3, 4, 5])
        order, phi = kernel_module._by_angle(P, rows)
        np.testing.assert_array_equal(order, [4, 3, 5, 1])
        np.testing.assert_array_equal(phi, [-np.pi, 0.0, 0.0, np.pi / 2])


@st.composite
def sample_problems(draw):
    """(model, zero rows, X): a Monte Carlo budget with d in {1, 2, 3},
    rows of the drawn directions to zero, and grid points among which zero
    points come up often."""
    d = draw(st.sampled_from([1, 2, 3]))
    M = draw(st.integers(2, 300))
    model = InfiniteWidthModel(draw(hnp.arrays(float, d, elements=grid)), mc_features=M,
                               mc_seed=draw(st.integers(0, 1000)))
    zero_rows = draw(st.lists(st.integers(0, M - 1), max_size=3))
    n = draw(st.integers(1, 12))
    X = draw(hnp.arrays(float, (n, d), elements=grid))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        X[k] = 0.0
    return model, zero_rows, X


class TestFeatureSample:
    """The prepared feature sample that ``infinite_forward_batch`` holds
    between calls, keyed by (mc_seed, mc_features, dim)."""

    @settings(max_examples=200, deadline=None)
    @given(sample_problems())
    def test_warm_call_repeats_cold_call(self, prob):
        model, zero_rows, X = prob

        def directions(m):
            V = _mc_directions(m)
            V[zero_rows] = 0.0
            return V

        with mock.patch.object(reference, "_mc_directions", directions):
            reference._held_sample.clear()
            cold = infinite_forward_batch(model, X)
            entry = reference._feature_sample(model)
            sample = entry.directions
            warm = infinite_forward_batch(model, X)
            rescaled = InfiniteWidthModel(2.0 * model.vector, model.mc_features, model.mc_seed)
            assert reference._feature_sample(rescaled) is entry
            held = ((sample.rows, sample.phi, sample.order, sample.zero) if model.dim <= 2
                    else (sample,))
            for a in held:
                assert not a.flags.writeable
                if a.size:
                    with pytest.raises(ValueError):
                        a[0] = 1
            for est, se in (warm, infinite_forward_batch(model, X)):
                np.testing.assert_array_equal(est, cold[0])
                np.testing.assert_array_equal(se, cold[1])
            count = held_count(directions(model), X)
            np.testing.assert_array_equal(cold[0], (X @ model.vector) * count / model.mc_features)

            others = [
                InfiniteWidthModel(model.vector, model.mc_features, model.mc_seed + 1),
                InfiniteWidthModel(model.vector, model.mc_features + 1, model.mc_seed),
                InfiniteWidthModel(np.append(model.vector, 0.0), model.mc_features,
                                   model.mc_seed),
            ]
            for other in others:
                held = reference._feature_sample(other)
                assert held is not entry
                assert list(reference._held_sample) == [
                    (other.mc_seed, other.mc_features, other.dim)]
            assert reference._feature_sample(model).directions is not sample
            again = infinite_forward_batch(model, X)
            np.testing.assert_array_equal(again[0], cold[0])
            np.testing.assert_array_equal(again[1], cold[1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_new_directions_after_clear_get_a_fresh_count(self, d):
        # One key, one point set, two direction samples: the count held with
        # the first sample goes with it, so the second is counted afresh.
        rng = np.random.default_rng(40 + d)
        X = rng.standard_normal((64, d))
        model = InfiniteWidthModel(np.ones(d), mc_features=500, mc_seed=1)
        for S in (rng.standard_normal((500, d)), -rng.standard_normal((500, d))):
            with mock.patch.object(reference, "_mc_directions", lambda _: S.copy()):
                reference._held_sample.clear()
                est, _ = infinite_forward_batch(model, X)
            np.testing.assert_array_equal(est, (X @ model.vector) * held_count(S, X) / 500)

    def test_count_is_reused_only_on_equal_points(self):
        rng = np.random.default_rng(43)
        X, Y = rng.standard_normal((2, 64, 2))
        model = InfiniteWidthModel([1.0, -0.5], mc_features=5000, mc_seed=2)
        doubled = InfiniteWidthModel(2.0 * model.vector, model.mc_features, model.mc_seed)
        cold = {k: infinite_forward_batch(model, P) for k, P in (("X", X), ("Y", Y))}
        counted = mock.Mock(wraps=reference._active_count)
        with mock.patch.object(reference, "_active_count", counted):
            reference._held_sample.clear()
            first = infinite_forward_batch(model, X)
            again = infinite_forward_batch(model, X.copy())
            scaled = infinite_forward_batch(doubled, X)
            assert counted.call_count == 1
            other = infinite_forward_batch(model, Y)
            assert counted.call_count == 2
            back = infinite_forward_batch(model, X)
            assert counted.call_count == 3
        for est, se in (first, again, back):
            np.testing.assert_array_equal(est, cold["X"][0])
            np.testing.assert_array_equal(se, cold["X"][1])
        np.testing.assert_array_equal(other[0], cold["Y"][0])
        np.testing.assert_array_equal(other[1], cold["Y"][1])
        # Doubling w doubles <w, x> exactly, so the estimate and its error double.
        np.testing.assert_array_equal(scaled[0], 2.0 * first[0])
        np.testing.assert_array_equal(scaled[1], 2.0 * first[1])
        held = reference._feature_sample(model)
        assert not held.count.flags.writeable

    def test_new_key_frees_the_old_sample_and_its_count(self):
        X = np.random.default_rng(45).uniform(-1, 1, (32, 2))
        model = InfiniteWidthModel(np.ones(2), mc_features=1000, mc_seed=1)
        infinite_forward_batch(model, X)
        held = reference._feature_sample(model)
        ring, count = weakref.ref(held.directions), weakref.ref(held.count)
        del held
        infinite_forward_batch(InfiniteWidthModel(np.ones(2), mc_features=1000, mc_seed=2), X)
        assert ring() is None and count() is None


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
        ref = (one.margins(V), one.adjoint(c), one.margins(S))
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", budget)
        rows, cols = kernel_module.tiles(200, 50)[-1]
        assert rows.stop - rows.start < 64 or budget == 1
        assert cols.stop == 50 and rows.stop == 200
        tiled = DenseKernel(S, signs, 0.3, X)
        got = (tiled.margins(V), tiled.adjoint(c), tiled.margins(S))
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
        assert_close(K.margins(V), 0.7 * proj @ signs)
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
        net = net_of(W, signs)
        peak = traced_peak(lambda: next(descend(net, X, y, 1.0, 1, refs)))
        bound = 2 * 8 * kernel_module._CHUNK_BUDGET + 4 * 8 * (n + m) * 3 * d
        assert bound < 0.1 * 8 * n * m
        assert peak < bound

    def test_monte_carlo_pass_holds_no_values_matrix(self):
        # d = 4, M = 100k directions, 512 points: the directions are 3.1 MiB,
        # a 512 x M mask would be 391 MiB, and an M x (d + d(d+1)/2) values
        # matrix of second moments 10.7 MiB.  The held sample is dropped
        # first, so the pass draws its directions.
        model = InfiniteWidthModel(np.ones(4), mc_features=100_000, mc_seed=1)
        X = np.random.default_rng(26).standard_normal((512, 4)) / 2.0
        reference._held_sample.clear()
        assert traced_peak(lambda: infinite_forward_batch(model, X)) < 8 * 2**20

    def test_monte_carlo_count_at_d2_holds_no_m_by_n_array(self):
        # d = 2, M = 200k directions, 512 points: the directions are 3.1 MiB
        # and a 512 x M mask would be 781 MiB; the per-direction arcs of the
        # arc kernel took 22.4 MiB, preparing the sorted directions takes a
        # few M-long arrays.  A second call with the same key on the same
        # points, here from a model with another vector, reuses the held
        # count: it makes a few 512-long rows and not a byte per direction.
        M = 200_000
        X = np.random.default_rng(27).uniform(-1, 1, (512, 2))
        reference._held_sample.clear()
        cold = traced_peak(lambda: infinite_forward_batch(
            InfiniteWidthModel(np.ones(2), mc_features=M, mc_seed=1), X))
        warm = traced_peak(lambda: infinite_forward_batch(
            InfiniteWidthModel(np.full(2, 3.0), mc_features=M, mc_seed=1), X))
        assert cold < 16 * 2**20
        assert warm < 64 * 2**10


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


    @pytest.mark.parametrize("budget", [512, 4, kernel_module._CHUNK_BUDGET])
    @settings(max_examples=50, deadline=None)
    @given(fused_problems(), st.data())
    def test_references_match_margins_many_on_grid(self, budget, prob, data):
        # Exact on the grid: the fused strips, their fallback and the arcs
        # all give the margins of G and of each reference exactly.
        X, S, c, signs = prob
        refs = [data.draw(hnp.arrays(float, S.shape, elements=grid))
                for _ in range(data.draw(st.integers(0, 3)))]
        backends = [DenseKernel] + ([ArcKernel] if X.shape[1] <= 2 else [])
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget):
            for backend in backends:
                K = backend(S, signs, 0.75, X)
                G, *got = K.adjoint_margins(c, refs)
                assert len(got) == 1 + len(refs)
                np.testing.assert_array_equal(G, K.adjoint(c))
                for a, b in zip(got, K.margins_many([G, *refs])):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,m,budget", [(8, 300, 512), (8, 300, 4), (300, 2500, None)],
                             ids=["strips", "fallback", "default-budget"])
    def test_dense_references_on_gaussian_data(self, n, m, budget):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((n, 4)) / 2.0
        S = rng.standard_normal((m, 4))
        refs = [S + 0.1 * rng.standard_normal((m, 4)), rng.standard_normal((m, 4))]
        signs = rng.choice([-1.0, 1.0], m)
        c = rng.standard_normal(n)
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget or kernel_module._CHUNK_BUDGET):
            K = DenseKernel(S, signs, 0.3, X)
            G, *got = K.adjoint_margins(c, refs)
            assert np.array_equal(G, K.adjoint_margins(c)[0])
            want = K.margins_many([G, *refs])
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@st.composite
def relu_problems(draw):
    """(X, S, signs) on the grid with d in {1, ..., 4}: exact ties s.x == 0
    are frequent."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 20))
    X, S = draw(matrix(n, d)), draw(matrix(m, d))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    return X, S, signs


def relu_oracle(S, signs, scale, X):
    """scale * relu(X S^T) @ a by one dense product."""
    return scale * np.maximum(X @ S.T, 0.0) @ signs


class TestReluPath:
    """``DenseKernel.margins`` at its own sources, the ReLU network read
    without a mask, against the mask path (``margins_many``) and a dense
    numpy oracle."""

    @pytest.mark.parametrize("budget", [1, 64 * 7, kernel_module._CHUNK_BUDGET])
    @settings(max_examples=150, deadline=None)
    @given(relu_problems())
    def test_matches_mask_path_on_grid(self, budget, prob):
        X, S, signs = prob
        with mock.patch.object(kernel_module, "_CHUNK_BUDGET", budget):
            K = DenseKernel(S, signs, 0.75, X)
            relu, mask = K.margins(S.copy()), K.margins_many([S])[0]
        # on the grid every sum is exact, so the same values
        np.testing.assert_array_equal(relu, mask)
        np.testing.assert_array_equal(relu, relu_oracle(S, signs, 0.75, X))

    @pytest.mark.parametrize("n,m,d", [(300, 2500, 4), (2000, 3000, 3), (50, 40, 7)])
    def test_matches_mask_path_and_oracle_on_gaussian_data(self, n, m, d):
        rng = np.random.default_rng(27 + d)
        X = rng.standard_normal((n, d)) / 2.0
        S = rng.standard_normal((m, d))
        signs = rng.choice([-1.0, 1.0], m)
        K = DenseKernel(S, signs, 0.3, X)
        relu = K.margins(S)
        size = np.max(np.abs(relu))
        for want in (K.margins_many([S])[0], relu_oracle(S, signs, 0.3, X)):
            assert np.max(np.abs(relu - want)) <= 1e-13 * size


def column_mask_sum(K, R):
    """``ArcKernel.mask_sum`` transcribed as loops over the (m, c) columns of
    R: each column summed from the left into its segments in source order,
    the segments summed from the left into prefix sums P, then at each
    point (P[end_at] + T) - P[lo_at], where T is the total P[n_seg]
    for an arc past the end of the ring and 0 otherwise, plus the zero
    sources' segment.  The summation order the row code must keep, bit for bit."""
    out = np.zeros((K.n, R.shape[1]))
    for c in range(R.shape[1]):
        seg = [0.0] * (K.n_seg + 1)
        for j, s in enumerate(K.segment):
            seg[s] += R[j, c]
        prefix = [0.0]
        for v in seg[: K.n_seg]:
            prefix.append(prefix[-1] + v)
        for i, lo, end, wrap in zip(range(K.n), K.lo_at, K.end_at, K.wrap):
            out[i, c] = prefix[end] + (prefix[K.n_seg] if wrap else 0.0) - prefix[lo] + seg[K.n_seg]
    return out


def column_mask_adjoint(K, C):
    """``ArcKernel.mask_adjoint`` transcribed as loops over the (n, c)
    columns of C: the weight of each point, in point order, added at its
    arc's first segment and, separately, at the segment past its end, the
    difference summed from the left after the weights of the arcs past the
    end of the ring are added at segment 0, and each source given its
    segment's sum; a zero source gets every point's weight."""
    out = np.zeros((len(K.sources), C.shape[1]))
    for c in range(C.shape[1]):
        w = C[:, c]
        starts, ends = [0.0] * (K.n_seg + 1), [0.0] * (K.n_seg + 1)
        for wi, lo, end in zip(w, K.lo_at, K.end_at):
            starts[lo] += wi
            ends[end] += wi
        diff = [a - b for a, b in zip(starts, ends)]
        diff[0] += w[K.wrap].sum()
        run, value = 0.0, []
        for v in diff[: K.n_seg]:
            run += v
            value.append(run)
        value.append(w.sum())
        for j, s in enumerate(K.segment):
            out[j, c] = value[s]
    return out


def column_margins_many(K, values_list):
    d = K.d
    R = np.empty((len(K.signs), d * len(values_list)))
    for i, V in enumerate(values_list):
        np.multiply(K.signs[:, None], V, out=R[:, i * d : (i + 1) * d])
    S = column_mask_sum(K, R)
    return [K._rowdot(block) for block in np.split(S, len(values_list), axis=1)]


def column_adjoint(K, coeff):
    return K.scale * K.signs[:, None] * column_mask_adjoint(K, coeff[:, None] * K.X)


@st.composite
def gaussian_arc_problems(draw):
    """(X, W, values, coeff, signs) of Gaussian floats with d in {1, 2}:
    some zero source rows and zero points, and m either at least or below
    twice the point count, so the points can outnumber the sources of the
    ring."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2 * n, 4 * n) if draw(st.booleans()) else st.integers(1, 2 * n))
    X = rng.standard_normal((n, d)) / 2.0
    W = rng.standard_normal((m, d))
    X[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    W[draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
    values = [W, rng.standard_normal((m, d)), rng.standard_normal((m, d))]
    return X, W, values, rng.standard_normal(n), rng.choice([-1.0, 1.0], m)


class TestRowLayout:
    """The arc kernel holds m-long arrays as rows; its sums must keep the
    bits of the same ring sums written as loops over (m, c) columns.  On the dyadic grid every
    sum is exact in any order, so only float data can show a change of
    summation order."""

    @settings(max_examples=300, deadline=None)
    @given(gaussian_arc_problems())
    def test_bitwise_equal_to_column_sums(self, prob):
        X, W, values, coeff, signs = prob
        K = ArcKernel(W, signs, 0.3, X)
        for got, want in zip(K.margins_many(values), column_margins_many(K, values)):
            np.testing.assert_array_equal(got, want)
        G = column_adjoint(K, coeff)
        np.testing.assert_array_equal(K.adjoint(coeff), G)
        got_G, got_g = K.adjoint_margins(coeff)
        np.testing.assert_array_equal(got_G, G)
        np.testing.assert_array_equal(got_g, column_margins_many(K, [G])[0])

    @settings(max_examples=200, deadline=None)
    @given(gaussian_arc_problems())
    def test_references_bitwise_equal_to_margins_many(self, prob):
        X, W, values, coeff, signs = prob
        K = ArcKernel(W, signs, 0.3, X)
        G, *got = K.adjoint_margins(coeff, values)
        np.testing.assert_array_equal(G, K.adjoint(coeff))
        for a, b in zip(got, K.margins_many([G, *values])):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend,d", [(ArcKernel, 1), (ArcKernel, 2), (DenseKernel, 4)])
    def test_operand_layout_changes_no_bit(self, backend, d):
        rng = np.random.default_rng(31)
        n, m = 300, 2500
        X = rng.standard_normal((n, d)) / 2.0
        W = rng.standard_normal((m, d))
        V = rng.standard_normal((m, d))
        signs = rng.choice([-1.0, 1.0], m)
        coeff = rng.standard_normal(n)

        def layouts(A):
            wide = np.zeros((A.shape[0], 2 * A.shape[1]))
            wide[:, ::2] = A
            return [A, np.asfortranarray(A), np.ascontiguousarray(A.T).T, wide[:, ::2]]

        K = backend(W, signs, 0.3, X)
        want_f = K.margins_many([W, V])
        want_G = K.adjoint(coeff)
        assert want_G.flags.c_contiguous
        for Wl, Vl, Xl in zip(layouts(W), layouts(V), layouts(X)):
            for L in (K, backend(Wl, signs, 0.3, Xl)):
                for got, want in zip(L.margins_many([Wl, Vl]), want_f):
                    np.testing.assert_array_equal(got, want)
                for c in (coeff, np.repeat(coeff, 2)[::2]):
                    G, g = L.adjoint_margins(c)
                    assert G.flags.c_contiguous and L.adjoint(c).flags.c_contiguous
                    np.testing.assert_array_equal(L.adjoint(c), want_G)
                    np.testing.assert_array_equal(G, want_G)
                    np.testing.assert_array_equal(g, K.margins(want_G))

    @pytest.mark.parametrize("d", [2, 4])
    def test_wrong_shaped_values_coefficients_and_signs_raise(self, d):
        rng = np.random.default_rng(32)
        n, m = 20, 50
        X = rng.standard_normal((n, d)) / 2.0
        W = rng.standard_normal((m, d))
        K = kernel(W, rng.choice([-1.0, 1.0], m), 0.3, X)
        for V in (W[:1], W[:, :1], W[:-1], W.T, W[:, 0]):
            with pytest.raises(ValueError, match="values must have shape"):
                K.margins(V)
            with pytest.raises(ValueError, match="values must have shape"):
                K.margins_many([W, V])
        for c in (np.ones(1), np.ones((n, 1)), np.ones(n + 1), 1.0):
            with pytest.raises(ValueError, match="coeff must have shape"):
                K.adjoint(c)
            with pytest.raises(ValueError, match="coeff must have shape"):
                K.adjoint_margins(c)
        for signs in (np.ones(1), np.ones((m, 1)), np.ones(m + 1)):
            with pytest.raises(ValueError, match="signs must have shape"):
                kernel(W, signs, 0.3, X)


@st.composite
def tie_problems(draw):
    """(X, S, R, C) on the grid with d in {1, 2}: zero sources and zero
    points come up often, and so do exact ties s.x == 0."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 20))
    X, S = draw(matrix(n, d)), draw(matrix(m, d))
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        X[k] = 0.0
    for j in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        S[j] = 0.0
    return X, S, draw(matrix(m, 2)), draw(matrix(n, 2))


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

    @pytest.mark.parametrize("backend", [ArcKernel, DenseKernel])
    @settings(max_examples=200, deadline=None)
    @given(tie_problems())
    def test_tie_rules_on_grid(self, backend, prob):
        # Every sum is exact on the grid, so both kernels must give the
        # rules exactly: the plain mask with s.x == 0 active, so a zero
        # source is active at every point and a zero point has every source.
        X, S, R, C = prob
        M = (X @ S.T >= 0).astype(float)
        K = backend(S, np.ones(len(S)), 1.0, X)
        sums, adj = K.mask_sum(R), K.mask_adjoint(C)
        np.testing.assert_array_equal(sums, M @ R)
        np.testing.assert_array_equal(adj, M.T @ C)
        zero = (S == 0).all(axis=1)
        np.testing.assert_array_equal(adj[zero], np.tile(C.sum(axis=0), (zero.sum(), 1)))
        zero_pt = (X == 0).all(axis=1)
        np.testing.assert_array_equal(sums[zero_pt], np.tile(R.sum(axis=0), (zero_pt.sum(), 1)))

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
        arc = frozen_forward_batch(net_of(W, np.ones(1), 1.0), V, X)
        dense = frozen_forward_batch(net_of(pad(W), np.ones(1), 1.0), pad(V), pad(X))
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



def _net_entry(call):
    """An entry taking (sources, X) through a network whose weights are the sources."""
    return lambda S, X: call(net_of(S, np.ones(len(S))), X)


def _monte_carlo_entry(S, X):
    """``infinite_forward_batch`` with the rows of S as its feature sample."""
    model = InfiniteWidthModel(np.ones(S.shape[1]), mc_features=len(S), mc_seed=1)
    with mock.patch.object(reference, "_mc_directions", lambda _: S.copy()):
        reference._held_sample.clear()
        try:
            return infinite_forward_batch(model, X)
        finally:
            reference._held_sample.clear()


# Every entry of a masked sum, as a call on (sources, points).
FINITE_ENTRIES = {
    "kernel": lambda S, X: kernel(S, np.ones(len(S)), 1.0, X),
    "ArcKernel": lambda S, X: ArcKernel(S, np.ones(len(S)), 1.0, X),
    "DenseKernel": lambda S, X: DenseKernel(S, np.ones(len(S)), 1.0, X),
    "Ring": lambda S, X: Ring(S).arcs(X),
    "forward_batch": _net_entry(forward_batch),
    "frozen_forward_batch": _net_entry(lambda net, X: frozen_forward_batch(net, net.weights, X)),
    "infinite_forward_batch": _monte_carlo_entry,
}


class TestFiniteOperands:
    """Points and sources must be finite: every entry of a masked sum
    rejects a NaN or infinite coordinate in either, on both paths."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("operand", ["point", "source"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", list(FINITE_ENTRIES))
    def test_rejects_nonfinite_operands(self, entry, value, operand, d):
        if entry in ("ArcKernel", "Ring") and d > 2:
            d = 1  # planar: the line in place of a third dimension
        rng = np.random.default_rng(35)
        S, X = rng.standard_normal((6, d)), rng.uniform(-0.5, 0.5, (4, d))
        call = FINITE_ENTRIES[entry]
        call(S, X)  # the finite operands pass
        (X if operand == "point" else S)[1, d - 1] = value
        with pytest.raises(ValueError, match="must be finite"):
            call(S, X)


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
            assert traj.smoothness_ok() and all(c.holds() for c in traj.certificates.values())
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]
