import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowcal.distributions import make_distribution, sample
from shallowcal.kernel import DenseKernel
from shallowcal.metrics import LOG2, frobenius_norm
from shallowcal.network import Network, clone_initial, freeze_features, init_network
from shallowcal.reference import linear_teacher, sample_reference
from shallowcal import trainer as trainer_module
from shallowcal.trainer import (
    DIVERGENCE_THRESHOLD,
    RegretCertificate,
    TrainConfig,
    descend,
    empirical_risk,
    frozen_empirical_risk,
    gd_step,
    train,
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


def easy_setup(m=128, n=128, seed=0, rho=None):
    dist = make_distribution("logistic-1d", c=2.0)
    samp = sample(dist, n, seed=seed)
    rho = rho if rho is not None else float(m) ** -0.125
    net = init_network(m, 1, rho, seed=seed + 1)
    return net, samp.points, samp.labels


def replay(net, X, y, cfg, Z, monitors):
    """Step-by-step replay of ``train(net, X, y, cfg, monitors, {"Z": Z})``
    with the one-step functions.  One row per recorded iterate: emp_risk,
    dist_init, grad_norm, smooth_resid, frozen_next, frozen_ref, dist_sq
    (NaN where train records none), plus the weights of every iterate."""
    net = clone_initial(net)
    rows, weights = [], []
    for i in range(cfg.t_max + 1):
        risk = empirical_risk(net, X, y)
        row = [risk, net.dist_from_init()] + [math.nan] * 4
        row.append(float(np.sum((net.weights - Z) ** 2)))
        rows.append(row)
        weights.append(net.weights.copy())
        if not math.isfinite(risk) or risk > DIVERGENCE_THRESHOLD:
            break
        ff = freeze_features(net)
        row[2] = float(np.linalg.norm(gd_step(net, X, y, cfg.eta)))
        if i == cfg.t_max:
            break
        row[4] = frozen_empirical_risk(ff, net.weights, X, y)
        row[5] = frozen_empirical_risk(ff, Z, X, y)
        if monitors:
            row[3] = (risk - row[4]) - 0.5 * cfg.eta * row[2] ** 2
    return np.array(rows), weights


def replay_setups():
    """(net, X, y, cfg, monitors): a monitored run on the arc path (d = 1)
    and on the dense path (d = 3) with a radius that excludes late
    iterates, and an unmonitored run that diverges at step 4 of 10."""
    net, X, y = easy_setup(m=96, n=80, seed=22)
    yield "arc", net, X, y, TrainConfig(eta=4.0 / net.rho**2, t_max=6, r_gd=1.5), True
    dist = make_distribution("sphere-cap-teacher", d=3)
    samp = sample(dist, 70, seed=23)
    net = init_network(80, 3, 80.0**-0.125, seed=24)
    cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=6, r_gd=2.5)
    yield "dense", net, samp.points, samp.labels, cfg, True
    net, X, y = easy_setup(m=64, n=64, seed=21)
    yield "diverging", net, X, y, TrainConfig(eta=1.2e8 / net.rho**2, t_max=10), False


REPLAY_SETUPS = {name: rest for name, *rest in replay_setups()}


class TestEmpiricalRisk:
    def test_zero_network_gives_log2(self):
        net = manual_net([1.0, -1.0], np.zeros((2, 3)))
        X = np.random.default_rng(0).uniform(-0.5, 0.5, size=(10, 3))
        y = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        assert empirical_risk(net, X, y) == pytest.approx(LOG2, abs=1e-15)

    def test_single_example_margin_one(self):
        net = manual_net([1.0], [[1.0, 0.0]])
        risk = empirical_risk(net, np.array([[1.0, 0.0]]), np.array([1.0]))
        assert risk == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-14)

    def test_nonnegative(self):
        net, X, y = easy_setup()
        assert empirical_risk(net, X, y) >= 0.0

    def test_rejects_empty_sample(self):
        net = manual_net([1.0], [[1.0]])
        with pytest.raises(ValueError):
            empirical_risk(net, np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize(
        "bad_y",
        [
            lambda y: y[:, None],  # broadcasts to an n x n matrix of margins
            lambda y: y[:1],  # broadcasts one label over every point
            lambda y: np.full_like(y, 0.3),
        ],
        ids=["column", "length-1", "not-plus-minus-1"],
    )
    @pytest.mark.parametrize(
        "risk",
        [
            lambda net, X, y: frozen_empirical_risk(net, net.init_weights, X, y),
            lambda net, X, y: empirical_risk(net, X, y),
        ],
        ids=["frozen", "empirical"],
    )
    def test_rejects_malformed_labels(self, bad_y, risk):
        net = init_network(64, 2, 1.0, seed=3)
        X = np.random.default_rng(4).uniform(-0.5, 0.5, size=(5, 2))
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="labels"):
            risk(net, X, bad_y(y))


class TestGdStep:
    def test_dead_network_zero_update(self):
        # single example with every preactivation negative: all indicators 0
        net = manual_net([1.0, -1.0], [[-1.0, 0.0], [-2.0, 0.0]])
        before = net.weights.copy()
        grad = gd_step(net, np.array([[1.0, 0.0]]), np.array([1.0]), eta=0.5)
        assert np.array_equal(grad, np.zeros((2, 2)))
        assert np.array_equal(net.weights, before)

    def test_one_step_from_zero_closed_form(self):
        # at W = 0 all indicators fire, margin 0, loss'(0) = -1/2, so the
        # update is eta * (rho/sqrt(m)) * (1/2) * a_j * y * x per row
        rho, eta = 1.5, 0.8
        signs = np.array([1.0, -1.0, 1.0])
        net = manual_net(signs, np.zeros((3, 2)), rho=rho)
        x = np.array([0.6, -0.3])
        y = -1.0
        gd_step(net, x[None, :], np.array([y]), eta=eta)
        expect = eta * (rho / np.sqrt(3)) * 0.5 * signs[:, None] * y * x[None, :]
        np.testing.assert_allclose(net.weights, expect, rtol=1e-14)
        assert np.array_equal(net.init_weights, np.zeros((3, 2)))

    def test_rejects_weights_that_are_not_finite(self):
        net = manual_net([1.0, -1.0], [[np.inf, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            gd_step(net, np.array([[1.0, 0.0]]), np.array([1.0]), eta=0.5)

    def test_determinism_bitwise(self):
        runs = []
        for _ in range(2):
            net, X, y = easy_setup(seed=3)
            for _ in range(5):
                gd_step(net, X, y, eta=1.0)
            runs.append(net.weights.copy())
        assert np.array_equal(runs[0], runs[1])


class TestTrainSelection:
    def test_tmax_one_enumeration(self):
        net, X, y = easy_setup(seed=4)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=1)
        traj = train(net, X, y, cfg)
        risks = [r.emp_risk for r in traj.records]
        assert len(risks) == 2
        assert traj.selected_index == int(np.argmin(risks))

    def test_zero_radius_selects_initialization(self):
        net, X, y = easy_setup(seed=5)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=3, r_gd=0.0)
        traj = train(net, X, y, cfg)
        assert traj.selected_index == 0
        assert traj.records[traj.selected_index].index == 0

    def test_schedule_horizon(self):
        eps_gd = 1 / 80
        t = math.ceil(1 / (8 * eps_gd))
        assert t == 10
        net, X, y = easy_setup(m=32, n=32, seed=6)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=t, eps_gd=eps_gd)
        traj = train(net, X, y, cfg)
        assert len(traj.records) == t + 1

    def test_selection_rescan(self):
        net, X, y = easy_setup(seed=7)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=12, r_gd=2.0)
        traj = train(net, X, y, cfg)
        eligible = [r for r in traj.records if r.dist_init <= cfg.r_gd]
        assert eligible, "radius 2 should admit at least the initialization"
        best = min(eligible, key=lambda r: (r.emp_risk, r.index))
        assert traj.selected_index == best.index
        assert traj.selected_risk == best.emp_risk

    def test_earliest_tie_break(self):
        # dead network: risk constant ln 2 at every iterate, earliest wins
        net = manual_net([1.0], [[-1.0]])
        X, y = np.array([[0.5]]), np.array([1.0])
        traj = train(net, X, y, TrainConfig(eta=1.0, t_max=4))
        assert traj.selected_index == 0

    def test_retained_weights_match_selected_iterate(self):
        net, X, y = easy_setup(seed=8)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=6)
        traj = train(net, X, y, cfg)
        eval_net = clone_initial(net)
        eval_net.weights[...] = traj.selected_weights
        assert empirical_risk(eval_net, X, y) == pytest.approx(
            traj.selected_risk, rel=1e-12
        )


class TestMonitors:
    def test_zero_gradient_residual_exactly_zero(self):
        net = manual_net([1.0, -1.0], [[-1.0, 0.0], [-2.0, 0.0]])
        X, y = np.array([[1.0, 0.0]]), np.array([1.0])
        traj = train(net, X, y, TrainConfig(eta=1.0, t_max=2))
        resids = [rec.smooth_resid for rec in traj.records[:-1]]
        assert np.array_equal(resids, np.zeros(2))

    def test_residual_floor_on_pinned_runs(self):
        for seed in range(3):
            net, X, y = easy_setup(m=256, n=256, seed=seed)
            cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=10)
            traj = train(net, X, y, cfg)
            assert traj.smoothness_ok()
            for rec in traj.records[:-1]:
                assert rec.smooth_resid >= -1e-9 * max(1.0, rec.emp_risk)

    def test_monitors_reject_oversized_step(self):
        net, X, y = easy_setup(seed=9)
        with pytest.raises(ValueError):
            train(net, X, y, TrainConfig(eta=8.0 / net.rho**2, t_max=1), monitors=True)

    def test_frozen_descent_at_eight_over_rho_sq(self):
        # per-step frozen risk still decreases for eta <= 8/rho^2
        net, X, y = easy_setup(m=128, n=128, seed=10)
        eta = 8.0 / net.rho**2
        for _ in range(5):
            ff = freeze_features(net)
            before = frozen_empirical_risk(ff, net.weights, X, y)
            gd_step(net, X, y, eta)
            after = frozen_empirical_risk(ff, net.weights, X, y)
            assert after <= before + 1e-12

    def test_dist_from_init_is_step_lipschitz(self):
        net, X, y = easy_setup(seed=11)
        eta = 4.0 / net.rho**2
        traj = train(net, X, y, TrainConfig(eta=eta, t_max=8))
        for a, b in zip(traj.records[:-1], traj.records[1:]):
            assert abs(b.dist_init - a.dist_init) <= eta * a.grad_norm + 1e-12
            assert abs(b.dist_init - a.dist_init) <= eta * net.rho + 1e-12


class TestRegretCertificate:
    def test_zero_prefix_sides_equal(self):
        net, X, y = easy_setup(seed=12)
        Z = net.init_weights + 0.5
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=3)
        traj = train(net, X, y, cfg, regret_refs={"Z": Z})
        lhs0, rhs0 = traj.certificates["Z"].sides(0)
        assert lhs0 == rhs0

    def test_holds_for_w0_and_random_references(self):
        rng = np.random.default_rng(13)
        net, X, y = easy_setup(m=256, n=200, seed=13)
        refs = {
            "W0": net.init_weights.copy(),
            "rand": net.init_weights + rng.standard_normal(net.weights.shape),
        }
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=12)
        traj = train(net, X, y, cfg, regret_refs=refs)
        for cert in traj.certificates.values():
            assert cert.holds()
            lhs, rhs = cert.sides(len(cert.frozen_next))
            assert lhs <= rhs + 1e-8 * max(1.0, rhs)

    def test_holds_for_sampled_reference(self):
        net, X, y = easy_setup(m=256, n=200, seed=14)
        model = linear_teacher([2.0])
        ref = sample_reference(model, net)
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=12)
        traj = train(net, X, y, cfg, regret_refs={"Ubar": ref.ubar})
        assert traj.certificates["Ubar"].holds()

    @pytest.mark.parametrize("side", ["frozen_next", "frozen_ref"])
    def test_nan_side_fails(self, side):
        values = {"frozen_next": np.array([0.5, 0.4]), "frozen_ref": np.array([0.6, 0.6])}
        values[side][1] = np.nan
        cert = RegretCertificate(name="Z", eta=1.0, dist_sq=np.array([1.0, 0.9, 0.8]), **values)
        assert not cert.holds()


class TestAgainstStepReplay:
    @pytest.mark.parametrize("name", REPLAY_SETUPS)
    def test_records_and_certificate(self, name):
        net, X, y, cfg, monitors = REPLAY_SETUPS[name]
        rng = np.random.default_rng(25)
        Z = net.init_weights + rng.standard_normal(net.weights.shape)
        rows, weights = replay(net, X, y, cfg, Z, monitors)
        traj = train(clone_initial(net), X, y, cfg, monitors=monitors, regret_refs={"Z": Z})

        assert traj.status == ("diverged" if name == "diverging" else "ok")
        assert len(traj.records) == len(rows)
        assert [rec.index for rec in traj.records] == list(range(len(rows)))
        recorded = np.array(
            [[r.emp_risk, r.dist_init, r.grad_norm, r.smooth_resid] for r in traj.records]
        )
        np.testing.assert_allclose(recorded, rows[:, :4], rtol=1e-12, atol=0)
        cert = traj.certificates["Z"]
        np.testing.assert_allclose(cert.frozen_next, rows[:-1, 4], rtol=1e-12, atol=0)
        np.testing.assert_allclose(cert.frozen_ref, rows[:-1, 5], rtol=1e-12, atol=0)
        np.testing.assert_allclose(cert.dist_sq, rows[:, 6], rtol=1e-12, atol=0)

        eligible = [i for i, r in enumerate(rows) if r[1] <= cfg.r_gd and math.isfinite(r[0])]
        expected = min(eligible, key=lambda i: rows[i, 0])
        assert traj.selected_index == expected
        assert [r.index for r in traj.records if r.index == traj.selected_index] == [expected]
        np.testing.assert_allclose(traj.selected_weights, weights[expected], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", REPLAY_SETUPS)
    def test_dist_init_is_read_off_a_w0_reference(self, name):
        # With W_0 itself among the references, dist_init is the root of
        # its dist_sq entry and dist_from_init is not called; the bits match
        # a run without references.
        net, X, y, cfg, monitors = REPLAY_SETUPS[name]
        plain = train(clone_initial(net), X, y, cfg, monitors=monitors)
        live = clone_initial(net)
        with mock.patch.object(Network, "dist_from_init", side_effect=AssertionError):
            traj = train(live, X, y, cfg, monitors=monitors, regret_refs={"W0": live.init_weights})
        assert [r.dist_init.hex() for r in traj.records] == [r.dist_init.hex() for r in plain.records]

    def test_setups_cover_radius_and_divergence(self):
        for name in ("arc", "dense"):
            net, X, y, cfg, monitors = REPLAY_SETUPS[name]
            rows, _ = replay(net, X, y, cfg, net.init_weights, monitors)
            assert rows[-1, 1] > cfg.r_gd >= rows[1, 1]
        net, X, y, cfg, monitors = REPLAY_SETUPS["diverging"]
        rows, _ = replay(net, X, y, cfg, net.init_weights, monitors)
        assert len(rows) == 5 and rows[-1, 0] > DIVERGENCE_THRESHOLD


class TestDescend:
    @staticmethod
    def read(stream, net, k, Zs):
        """What a consumer of ``stream`` reads up to and including record k:
        per record (risk, dist_init, grad norm, frozen_next, *ref_risks),
        and per record the squared distances to each of ``Zs``."""
        rows, dist_sq = [], []
        for step in stream:
            grad_norm = math.nan if step.grad is None else frobenius_norm(step.grad)
            rows.append([step.risk, net.dist_from_init(), grad_norm, step.frozen_next, *step.ref_risks])
            dist_sq.append([float(np.sum((net.weights - Z) ** 2)) for Z in Zs])
            if step.index == k:
                break
        return rows, dist_sq

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 3]), seed=st.integers(0, 1000), k=st.integers(1, 4),
           extra=st.integers(0, 2), n_refs=st.integers(0, 2), monitors=st.booleans(),
           diverging=st.booleans())
    def test_stopping_after_record_k_is_training_k_steps(self, d, seed, k, extra, n_refs,
                                                        monitors, diverging):
        # d = 1 takes the arc kernel, d = 3 the dense one.  The diverging
        # runs take 1.2e8/rho^2 steps, unmonitored; many of them end in a
        # diverged iterate before record k.
        monitors = monitors and not diverging
        dist = make_distribution("logistic-1d", c=2.0) if d == 1 else \
            make_distribution("sphere-cap-teacher", d=d)
        samp = sample(dist, 40, seed=seed)
        net = init_network(24, d, 24.0**-0.125, seed=seed + 1)
        eta = (1.2e8 if diverging else 4.0) / net.rho**2
        Zs = [net.init_weights + 0.25 * r for r in range(n_refs)]
        refs = Zs if monitors or Zs else None
        live = clone_initial(net)
        rows, dist_sq = self.read(descend(live, samp.points, samp.labels, eta, k + extra, refs),
                                  live, k, Zs)

        traj = train(net, samp.points, samp.labels, TrainConfig(eta=eta, t_max=k),
                     monitors=monitors, regret_refs={str(r): Z for r, Z in enumerate(Zs)})
        assert np.array_equal(live.weights, net.weights)
        assert len(traj.records) == len(rows) <= k + 1
        stepped = [row for row in rows if row[0] <= DIVERGENCE_THRESHOLD][:k]
        for i, (rec, row) in enumerate(zip(traj.records, rows)):
            assert (rec.emp_risk.hex(), rec.dist_init.hex()) == (row[0].hex(), row[1].hex())
            if i < len(stepped):
                resid = (row[0] - row[3]) - 0.5 * eta * row[2] ** 2 if monitors else math.nan
                assert (rec.grad_norm.hex(), rec.smooth_resid.hex()) == (row[2].hex(), resid.hex())
        for r, Z in enumerate(Zs):
            cert = traj.certificates[str(r)]
            assert cert.frozen_next.tobytes() == np.array([row[3] for row in stepped]).tobytes()
            assert cert.frozen_ref.tobytes() == np.array([row[4 + r] for row in stepped]).tobytes()
            assert cert.dist_sq.tobytes() == np.array([sq[r] for sq in dist_sq]).tobytes()

    def test_stream_ends_at_the_first_diverged_iterate(self):
        net, X, y, cfg, _ = REPLAY_SETUPS["diverging"]
        steps = list(descend(clone_initial(net), X, y, cfg.eta, cfg.t_max))
        assert [s.index for s in steps] == list(range(5))
        assert [s.diverged for s in steps] == [False] * 4 + [True]


class TestPreconditions:
    def test_monitors_reject_inputs_outside_unit_ball(self):
        net, X, y = easy_setup(seed=26)
        X = X.copy()
        X[3] = 1.5
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=2)
        with pytest.raises(ValueError, match="norms"):
            train(clone_initial(net), X, y, cfg)
        assert train(clone_initial(net), X, y, cfg, monitors=False).status == "ok"

    def test_unit_norm_rows_accepted(self):
        net, X, y = easy_setup(n=4, seed=27)
        X = np.array([[1.0], [-1.0], [1.0 + 1e-13], [0.0]])
        traj = train(net, X, y, TrainConfig(eta=4.0 / net.rho**2, t_max=1))
        assert traj.status == "ok"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_inputs_rejected(self, bad):
        net, X, y = easy_setup(n=16, seed=28)
        X = X.copy()
        X[5, 0] = bad
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=2)
        for call in (
            lambda: train(clone_initial(net), X, y, cfg, monitors=False),
            lambda: gd_step(clone_initial(net), X, y, 1.0),
            lambda: empirical_risk(net, X, y),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestInputValidation:
    """Trainer inputs under the rules of ``RegimeConfig``: eta finite and
    positive, r_gd nonnegative or inf, the horizon an integer."""

    @pytest.mark.parametrize("field,value,match", [
        ("eta", math.nan, "eta"),
        ("eta", math.inf, "eta"),
        ("r_gd", math.nan, "r_gd"),
        ("t_max", 2.5, "t_max"),
    ], ids=["eta-nan", "eta-inf", "r_gd-nan", "t_max-fraction"])
    def test_train_config_rejects(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{"eta": 1.0, "t_max": 2, field: value})

    def test_train_config_accepts_infinite_radius(self):
        assert TrainConfig(eta=1.0, t_max=np.int64(2), r_gd=math.inf).r_gd == math.inf

    def test_gd_step_rejects_nan_eta(self):
        net, X, y = easy_setup(n=8, seed=29)
        with pytest.raises(ValueError, match="eta"):
            gd_step(net, X, y, math.nan)
        assert np.array_equal(net.weights, net.init_weights)


class TestDivergenceGuard:
    def test_conflicting_labels_with_huge_step_abort(self):
        net = manual_net([1.0, -1.0], [[1.0], [0.5]])
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])
        cfg = TrainConfig(eta=1e8, t_max=50)
        traj = train(net, X, y, cfg, monitors=False)
        assert traj.status == "diverged"
        assert len(traj.records) <= 51

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_weights_diverge_alike_on_both_paths(self):
        # The first step overflows both rows to +-inf.  That iterate is
        # recorded as diverged with risk inf, without a kernel pass, at
        # d = 2 (arc kernel) and d = 3 (dense kernel) alike.
        runs = []
        for d in (2, 3):
            W = np.zeros((2, d))
            W[:, 0] = 1.0
            X = np.zeros((2, d))
            X[:, 0] = [1e150, 5e149]
            net = manual_net([1.0, -1.0], W)
            with mock.patch.object(trainer_module, "kernel", wraps=trainer_module.kernel) as k:
                traj = train(net, X, np.array([1.0, -1.0]), TrainConfig(eta=1e200, t_max=3),
                             monitors=False)
            assert k.call_count == 1
            assert np.isinf(net.weights[:, 0]).all()
            assert (traj.status, traj.selected_index) == ("diverged", 0)
            assert [r.emp_risk for r in traj.records] == [LOG2, math.inf]
            runs.append([(r.index, r.emp_risk, r.dist_init, r.grad_norm, r.smooth_resid,
                          r.index == traj.selected_index) for r in traj.records])
        assert str(runs[0]) == str(runs[1])

    def test_no_selection_status(self):
        net, X, y = easy_setup(seed=15)
        # negative radius impossible; use tiny radius after forcing a step
        cfg = TrainConfig(eta=4.0 / net.rho**2, t_max=2, r_gd=0.0)
        traj = train(net, X, y, cfg)
        # initialization always qualifies at radius 0
        assert traj.selected_index == 0
        assert traj.status == "ok"


class TestMaskPasses:
    """How often the dense path passes over the n x m grid, as the area of
    the tiles formed over it: ReLU tiles, which read the margins at W
    without a mask, and mask tiles, counted apart."""

    @staticmethod
    def grids_covered(n, m, call):
        """(ReLU passes, mask passes) made by ``call``."""
        area = {"_relus": 0, "_masks": 0}

        def counting(name):
            passes = getattr(DenseKernel, name)

            def count(self, *args):
                for rows, cols, tile in passes(self, *args):
                    area[name] += tile.size
                    yield rows, cols, tile

            return count

        with mock.patch.object(DenseKernel, "_relus", counting("_relus")), \
                mock.patch.object(DenseKernel, "_masks", counting("_masks")):
            call()
        return area["_relus"] / (n * m), area["_masks"] / (n * m)

    @staticmethod
    def setup(n, m=300, d=3):
        dist = make_distribution("sphere-cap-teacher", d=d)
        samp = sample(dist, n, seed=31)
        return init_network(m, d, float(m) ** -0.125, seed=32), samp.points, samp.labels

    def test_monitored_record_forms_the_mask_once(self):
        # Up to 1024 points the tiles are full-height strips: a ReLU pass
        # for the margins at W, and one fused mask pass for the gradient,
        # the frozen risk along the step and the references.
        net, X, y = self.setup(1024)
        refs = [net.weights + 0.1, -net.weights]
        record = lambda: next(descend(net, X, y, 0.5, 1, refs))
        assert self.grids_covered(1024, 300, record) == (1, 1)

    def test_monitored_step_forms_the_mask_once(self):
        # a monitored run of one step: the step, then the last iterate's gradient
        net, X, y = self.setup(1024)
        run = lambda: train(net, X, y, TrainConfig(eta=1.0, t_max=1),
                            regret_refs={"W0": net.weights + 0.1})
        assert self.grids_covered(1024, 300, run) == (1 + 1, 1 + 1)

    @pytest.mark.parametrize(
        "call,passes",
        [
            (lambda net, X, y: empirical_risk(net, X, y), (1, 0)),
            # the path is chosen by value: a copy of W is W
            (lambda net, X, y: frozen_empirical_risk(net, net.weights.copy(), X, y), (1, 0)),
            (lambda net, X, y: frozen_empirical_risk(net, net.init_weights + 0.1, X, y), (0, 1)),
            (lambda net, X, y: gd_step(net, X, y, 1.0), (1, 1)),
            # three iterates; the last takes no step
            (lambda net, X, y: train(net, X, y, TrainConfig(eta=1.0, t_max=2), monitors=False), (3, 3)),
            # a step: the adjoint, then the margins of G and W0 in one pass
            (lambda net, X, y: train(net, X, y, TrainConfig(eta=1.0, t_max=2),
                                     regret_refs={"W0": net.init_weights}), (3, 2 + 2 + 1)),
        ],
        ids=["empirical-risk", "frozen-risk-at-a-copy", "frozen-risk", "gd-step",
             "unmonitored-train", "monitored-train"],
    )
    def test_callers_pay_only_for_what_they_read(self, call, passes):
        # Past 1024 points the tiles are shorter than the sample, so the
        # fused pass falls back to two mask passes.
        net, X, y = self.setup(1025)
        assert self.grids_covered(1025, 300, lambda: call(net, X, y)) == passes

