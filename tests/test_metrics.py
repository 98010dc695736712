import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shallowcal.metrics import (
    LOG2,
    binary_entropy,
    binary_kl,
    frobenius_norm,
    logistic_loss,
    logistic_loss_derivative,
    logistic_risk,
    risk_breakdown,
    sigmoid,
    sign_convention,
)


class TestLogisticLoss:
    def test_at_zero(self):
        assert logistic_loss(0.0) == pytest.approx(LOG2, abs=1e-15)

    def test_large_margin_decays_but_stays_positive(self):
        v = logistic_loss(50.0)
        assert 0 < v < 1e-20

    def test_negative_margin_closed_form(self):
        # ln(1 + e) evaluated independently
        assert logistic_loss(-1.0) == pytest.approx(math.log(1.0 + math.e), rel=1e-15)

    def test_no_overflow_at_extreme_margins(self):
        assert logistic_loss(1e4) >= 0.0
        assert logistic_loss(-1e4) == pytest.approx(1e4, rel=1e-12)

    def test_convex_decreasing_lipschitz(self):
        rng = np.random.default_rng(0)
        r = np.sort(rng.uniform(-20, 20, size=2000))
        vals = logistic_loss(r)
        slopes = np.diff(vals) / np.diff(r)
        assert np.all(slopes <= 0.0)          # decreasing
        assert np.all(slopes >= -1.0 - 1e-12)  # 1-Lipschitz
        assert np.all(np.diff(slopes) >= -1e-9)  # convex: slopes nondecreasing

    def test_derivative_is_negated_sigmoid(self):
        # -loss'(-r) = sigmoid(r), finite differences at step 1e-5
        rng = np.random.default_rng(1)
        r = rng.uniform(-10, 10, size=500)
        h = 1e-5
        fd = (logistic_loss(-r + h) - logistic_loss(-r - h)) / (2 * h)
        np.testing.assert_allclose(-fd, sigmoid(r), atol=1e-6)
        np.testing.assert_allclose(
            logistic_loss_derivative(r), -sigmoid(-r), atol=1e-15
        )


class TestSigmoid:
    def test_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry_sums_to_one(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(-30, 30, size=5000)
        np.testing.assert_allclose(sigmoid(r) + sigmoid(-r), 1.0, atol=1e-15)

    def test_ln3_gives_three_quarters(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)


class TestMultiplicativeRatio:
    def test_property_on_random_pairs(self):
        # 1e5 random ordered pairs: ratio never exceeds the bound
        rng = np.random.default_rng(3)
        lo = rng.uniform(-30, 30, size=100_000)
        hi = lo + rng.uniform(0, 20, size=100_000)
        ratio = np.logaddexp(0.0, hi) / np.logaddexp(0.0, lo)
        bound = np.exp(hi - lo)
        assert np.all(ratio <= bound * (1 + 1e-12))


class TestBinaryKL:
    def test_identity_is_zero(self):
        assert binary_kl(0.3, 0.3) == 0.0

    def test_known_value(self):
        expect = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert binary_kl(0.75, 0.5) == pytest.approx(expect, rel=1e-14)
        assert binary_kl(0.75, 0.5) == pytest.approx(0.1308, abs=5e-5)

    def test_degenerate_p(self):
        assert binary_kl(1.0, 0.5) == pytest.approx(LOG2, rel=1e-15)

    def test_boundary_q_disagreeing_p_is_infinite(self):
        assert math.isinf(binary_kl(0.5, 0.0))
        assert math.isinf(binary_kl(0.5, 1.0))
        assert binary_kl(1.0, 1.0) == 0.0
        assert binary_kl(0.0, 0.0) == 0.0

    def test_pinsker_and_nonnegativity_on_grid(self):
        grid = np.linspace(1e-3, 1 - 1e-3, 200)
        P, Q = np.meshgrid(grid, grid)
        kl = binary_kl(P.ravel(), Q.ravel())
        gap = (P - Q).ravel()
        assert np.all(kl >= 2 * gap**2 - 1e-12)
        assert np.all(kl >= -1e-12)
        same = np.abs(gap) < 1e-15
        assert np.all(kl[same] <= 1e-12)
        assert np.all(kl[~same] > 0)


class TestFrobeniusNorm:
    def test_finite_when_the_squares_overflow(self):
        A = np.array([[0.3, -1.7], [2.0, 1e-3]])
        assert frobenius_norm(A) == math.sqrt(float(np.sum(A * A)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.full((2, 2), 1e200)) == 2e200
            assert frobenius_norm(np.array([np.inf, 1.0])) == math.inf


class TestRiskBreakdown:
    def test_bayes_optimal_point(self):
        b = risk_breakdown([0.0], [0.5], [1.0])
        assert b.logistic_risk == pytest.approx(LOG2, abs=1e-15)
        assert b.excess_logistic == pytest.approx(0.0, abs=1e-15)
        assert b.l2_calibration_sq == pytest.approx(0.0, abs=1e-15)

    def test_miscalibrated_point(self):
        b = risk_breakdown([0.0], [0.75], [1.0])
        assert b.excess_logistic == pytest.approx(binary_kl(0.75, 0.5), rel=1e-12)
        # sign(0) = +1 is the Bayes label here, so no zero-one excess
        assert b.excess_zero_one == pytest.approx(0.0, abs=1e-15)

    def test_wrong_sign_point(self):
        b = risk_breakdown([-2.0], [0.75], [1.0])
        assert b.excess_zero_one == pytest.approx(abs(2 * 0.75 - 1), rel=1e-12)

    def test_sign_convention_at_zero(self):
        assert sign_convention(0.0) == 1.0
        assert sign_convention(-0.0) == 1.0

    @pytest.mark.parametrize("risk", [risk_breakdown, logistic_risk])
    def test_rejects_bad_weights(self, risk):
        with pytest.raises(ValueError):
            risk([0.0, 1.0], [0.5, 0.5], [0.6, 0.5])
        with pytest.raises(ValueError):
            risk([0.0], [0.5], [-1.0])

    def test_chain_on_random_discrete_distributions(self):
        # the error chain, each member within 1e-9 of direct aggregation
        rng = np.random.default_rng(4)
        for _ in range(1000):
            k = rng.integers(1, 12)
            margins = rng.uniform(-6, 6, size=k)
            p = rng.uniform(0, 1, size=k)
            w = rng.uniform(0.05, 1.0, size=k)
            w /= w.sum()
            b = risk_breakdown(margins, p, w)
            assert logistic_risk(margins, p, w) == b.logistic_risk

            # direct aggregation oracles
            phi = sigmoid(margins)
            kl_direct = float(w @ binary_kl(p, phi))
            l2_direct = float(w @ (phi - p) ** 2)
            excess_direct = float(
                w @ (p * logistic_loss(margins) + (1 - p) * logistic_loss(-margins))
            ) - float(w @ binary_entropy(p))

            assert abs(b.binary_kl - kl_direct) <= 1e-9
            assert abs(b.l2_calibration_sq - l2_direct) <= 1e-9
            assert abs(b.excess_logistic - excess_direct) <= 1e-9
            assert abs(b.binary_kl - b.excess_logistic) <= 1e-9
            assert 0.5 * b.excess_zero_one**2 <= 2 * b.l2_calibration_sq + 1e-9
            assert 2 * b.l2_calibration_sq <= b.binary_kl + 1e-9

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_chain_property(self, points):
        margins, p, w = (np.array(column) for column in zip(*points))
        assume(w.sum() > 0)
        b = risk_breakdown(margins, p, w / w.sum())
        assert abs(b.binary_kl - b.excess_logistic) <= 1e-9
        assert 0.5 * b.excess_zero_one**2 <= 2 * b.l2_calibration_sq + 1e-9
        assert 2 * b.l2_calibration_sq <= b.binary_kl + 1e-9

    def test_serializes_flat(self):
        b = risk_breakdown([1.0], [0.6], [1.0])
        d = b.to_dict()
        assert set(d) == {
            "logistic_risk",
            "excess_logistic",
            "binary_kl",
            "l2_calibration_sq",
            "zero_one_risk",
            "excess_zero_one",
        }
