import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from shallowcal import harness
from shallowcal.distributions import builtin_distributions, make_distribution, sample as draw_sample
from shallowcal.harness import (
    DESK_CAP,
    RegimeConfig,
    compute_bound_terms,
    derive_consistency,
    derive_regime,
    derived_seed,
    json_safe,
    run_experiment,
    sweep,
)
from shallowcal.network import augment_batch, freeze_features, init_network
from shallowcal.reference import model_from_config, sample_reference
from shallowcal.trainer import DIVERGENCE_THRESHOLD, frozen_empirical_risk, step_size_ok


class TestDeriveRegime:
    def test_easy_example(self):
        cfg = derive_regime("easy", 1 / 80)
        assert cfg.rho == 1.0
        assert cfg.m == 4**8 == 65536
        assert cfg.t == 10
        assert cfg.n == 6400
        assert cfg.eta == 4.0
        assert not cfg.capped

    def test_clairvoyant_powers_of_two(self):
        cfg = derive_regime("clairvoyant", 0.5)
        assert cfg.m == 256
        assert cfg.rho == 0.5
        assert cfg.eta == 16.0
        assert cfg.r_gd == 4.0 / 0.5
        assert cfg.t == 1

    def test_worstcase_infinite_radius(self):
        cfg = derive_regime("worstcase", 0.25)
        assert math.isinf(cfg.r_gd)
        assert cfg.capped  # 4^(40/3) blows past the desk cap
        assert cfg.m == DESK_CAP

    def test_eta_rho_coupling_everywhere(self):
        for regime in ("easy", "clairvoyant", "worstcase"):
            for eps in (0.5, 0.11, 1 / 80):
                cfg = derive_regime(regime, eps)
                assert cfg.eta * cfg.rho**2 == pytest.approx(4.0, abs=1e-12)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            derive_regime("easy", 0.7)
        with pytest.raises(ValueError):
            derive_regime("easy", 0.0)
        with pytest.raises(ValueError):
            derive_regime("bogus", 0.1)

    def test_overrides(self):
        cfg = derive_regime("easy", 0.1, overrides={"m": 512, "n": 256})
        assert cfg.m == 512 and cfg.n == 256 and cfg.rho == 1.0

    @pytest.mark.parametrize(
        "overrides", [{"M": 16, "n": 8}, {"ref_config": None}, {"rho": 1e8}, {"r_gd": 0.25}]
    )
    def test_unknown_override_is_error(self, overrides):
        with pytest.raises(ValueError, match="accepted: m, n, eps_gd$"):
            derive_regime("easy", 0.5, overrides=overrides)

    @pytest.mark.parametrize(
        "overrides", [{"m": 64.9}, {"m": 0}, {"m": -5}, {"m": True}, {"n": 0}, {"n": 32.0}]
    )
    def test_override_sizes_are_integers_of_at_least_one(self, overrides):
        # Neither rounded up nor clamped to 1: only derived sizes round.
        (key,) = overrides
        with pytest.raises(ValueError, match=f"override {key} must be an integer >= 1"):
            derive_regime("clairvoyant", 0.5, overrides=overrides)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, 5e-324, "0.1"])
    def test_eps_gd_override_error_names_eps_gd(self, value):
        with pytest.raises(ValueError, match="^eps_gd must be positive"):
            derive_regime("easy", 0.5, overrides={"eps_gd": value})


class TestDeriveConsistency:
    def test_power_example(self):
        cfg = derive_consistency(256, 0.925)
        assert cfg.m == 256
        assert cfg.rho == 0.5
        assert cfg.eta == 16.0
        assert cfg.eps_gd == pytest.approx(256 ** (-0.075), rel=1e-12)
        assert cfg.eps_gd == pytest.approx(0.6598, abs=5e-5)
        assert cfg.t == 1
        assert math.isinf(cfg.r_gd)

    def test_xi_near_one_limit(self):
        cfg = derive_consistency(1000, 1.0 - 1e-12)
        assert cfg.m == 1
        assert cfg.t == 1
        assert cfg.eps_gd == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        a = derive_consistency(512, 0.5)
        b = derive_consistency(512, 0.5)
        assert a.to_flat_dict() == b.to_flat_dict()

    def test_caps_flagged(self):
        cfg = derive_consistency(4096, 0.5)
        assert cfg.capped
        assert cfg.m == DESK_CAP

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_consistency(1, 0.5)
        with pytest.raises(ValueError):
            derive_consistency(100, 1.0)

    @pytest.mark.parametrize("n", [100.5, 100.0, True])
    def test_n_is_an_integer(self, n):
        # 100.5 would otherwise run at n = 100 with every other size derived from 100.5.
        with pytest.raises(ValueError, match="n must be an integer >= 2"):
            derive_consistency(n, 0.5)


class TestRegimeConfigValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["rho", "eta", "eps_gd"])
    def test_rejects_non_finite_or_non_positive(self, field, value):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            dataclasses.replace(cfg, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_rejects_nan_or_negative_radius(self, value):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match="r_gd must be nonnegative"):
            dataclasses.replace(cfg, r_gd=value)
        assert dataclasses.replace(cfg, r_gd=math.inf).r_gd == math.inf

    @pytest.mark.parametrize("value", [0, -1, 2.0, True])
    @pytest.mark.parametrize("field", ["m", "n", "t"])
    def test_rejects_sizes_that_are_not_positive_integers(self, field, value):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            dataclasses.replace(cfg, **{field: value})

    def test_step_size_is_accepted_only_where_the_trainer_accepts_it(self):
        cfg = derive_regime("clairvoyant", 0.5, seed=1, overrides={"m": 64, "n": 32})
        over = cfg.eta * (1 + 5e-11)  # eta * rho^2 = 4.0000000002
        assert not step_size_ok(over, cfg.rho)
        with pytest.raises(ValueError, match="eta <= 4/rho"):
            dataclasses.replace(cfg, eta=over)
        with pytest.raises(ValueError, match="eta <= 4/rho"):
            RegimeConfig.from_flat_dict({**cfg.to_flat_dict(), "eta": over})
        for eta in (cfg.eta * (1 + 5e-13), cfg.eta * (1 - 5e-11)):
            assert run_experiment(dataclasses.replace(cfg, eta=eta)).status == "ok"

    @pytest.mark.parametrize(
        "ref,match",
        [
            ({"kind": "bogus"}, "unknown reference model kind"),
            ({"kind": "linear-teacher", "theta": [True]}, "reference field 'theta'"),
            ({"kind": "linear-teacher", "theta": [1.0, 2.0]}, "reference dimension 2 != input dimension 1"),
        ],
        ids=["unknown-kind", "bool-theta", "dimension-mismatch"],
    )
    def test_reference_is_checked_when_built(self, ref, match):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(cfg, ref_config=ref)
        with pytest.raises(ValueError, match=match):
            RegimeConfig.from_flat_dict({**cfg.to_flat_dict(), "ref_config": ref})

    @pytest.mark.parametrize(
        "edit,match",
        [
            ({"dist_name": "bogus"}, "unknown distribution 'bogus'"),
            ({"dist_name": ["sphere-cap-teacher"]}, "unknown distribution"),
            ({"dist_params": {"d": 4, "width": 0.1}}, "takes no parameter 'width'"),
            ({"dist_params": {"d": 1}}, "d must be an integer >= 2"),
        ],
        ids=["unknown-name", "list-name", "unknown-param", "bad-param"],
    )
    def test_task_is_checked_when_built_without_a_reference(self, edit, match):
        cfg = derive_regime("clairvoyant", 0.5, dist_name="sphere-cap-teacher", dist_params={"d": 4},
                            overrides={"m": 64, "n": 32})
        assert cfg.ref_config is None
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(cfg, **edit)
        with pytest.raises(ValueError, match=match):
            RegimeConfig.from_flat_dict({**cfg.to_flat_dict(), **edit})

    @pytest.mark.parametrize("xi", [None, 0.0, 1.0, -0.5, math.nan], ids=str)
    def test_consistency_config_needs_xi_inside_the_unit_interval(self, xi):
        cfg = derive_consistency(64, 0.5, cap=1024)
        with pytest.raises(ValueError, match="consistency config needs 0 < xi < 1"):
            dataclasses.replace(cfg, xi=xi)
        with pytest.raises(ValueError, match="consistency config needs 0 < xi < 1"):
            RegimeConfig.from_flat_dict({**cfg.to_flat_dict(), "xi": xi})
        if xi is None:
            assert dataclasses.replace(cfg, regime="clairvoyant", xi=xi).xi is None
        else:
            with pytest.raises(ValueError, match=r"xi must be null or in \(0, 1\)"):
                dataclasses.replace(cfg, regime="clairvoyant", xi=xi)

    @pytest.mark.parametrize("eps", [0.0, 0.75, -1.0, math.inf, math.nan, "0.25", True], ids=repr)
    def test_eps_is_null_or_inside_the_preset_range(self, eps):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match=r"eps must be null or in \(0, 1/2\]"):
            dataclasses.replace(cfg, eps=eps)
        assert dataclasses.replace(cfg, eps=None).eps is None
        assert dataclasses.replace(cfg, eps=0.5).eps == 0.5

    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None], ids=repr)
    def test_seed_is_a_nonnegative_integer(self, seed):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            dataclasses.replace(cfg, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            derive_regime("clairvoyant", 0.5, seed=seed, overrides={"m": 64, "n": 32})
        assert dataclasses.replace(cfg, seed=0).seed == 0

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    @pytest.mark.parametrize("field", ["augment_bias", "capped"])
    def test_rejects_flags_that_are_not_booleans(self, field, value):
        cfg = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 32})
        with pytest.raises(ValueError, match=f"{field} must be true or false"):
            dataclasses.replace(cfg, **{field: value})


ONE_D_TASKS = [name for name in builtin_distributions() if make_distribution(name).dim == 1]


class TestRadius:
    """R = max(4, rho, ||w||) of the task's default reference sets the
    clairvoyant radius R/rho, the easy width R^8 and the bound's R."""

    @pytest.mark.parametrize("augment_bias", [False, True])
    @pytest.mark.parametrize("dist_name", ONE_D_TASKS)
    def test_clairvoyant_ball_holds_sampled_reference(self, dist_name, augment_bias):
        cfg = derive_regime("clairvoyant", 0.5, dist_name=dist_name, augment_bias=augment_bias)
        model = model_from_config(cfg.ref_config)
        assert cfg.rho * cfg.r_gd >= model.norm_bound
        net = init_network(cfg.m, cfg.input_dim, cfg.rho, seed=1)
        assert sample_reference(model, net).dist_from_init <= cfg.r_gd * (1 + 1e-12)

    def test_easy_width_is_r_to_the_eighth(self):
        cfg = derive_regime("easy", 1 / 80, dist_name="step-smooth-1d")
        assert cfg.radius == 8.0  # 8^8 > 2^16
        assert cfg.capped and cfg.m == DESK_CAP

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", [1e40, 1e200])
    def test_easy_width_overflow_names_the_reference_norm(self, c):
        # R^8 overflows a float from R of about 3.4e38; R itself stays finite.
        with pytest.raises(ValueError, match="^reference norm .* is too large"):
            derive_regime("easy", 1 / 80, dist_params={"c": c})

    def test_no_reference_keeps_the_floor(self):
        cfg = derive_regime("clairvoyant", 0.5, dist_name="sphere-cap-teacher")
        assert cfg.ref_config is None
        assert (cfg.radius, cfg.r_gd) == (4.0, 8.0)

    def test_bound_reads_config_radius(self):
        cfg = derive_regime(
            "clairvoyant", 0.5, seed=3, dist_name="step-smooth-1d", augment_bias=True,
            overrides={"n": 64},
        )
        report = run_experiment(cfg)
        assert report.bound_terms["radius_scale"] == cfg.radius == cfg.rho * cfg.r_gd
        assert cfg.radius == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-15)


# Each built-in task's default reference: (task, parameters, theta, bias),
# theta None for a task without one.
TEACHERS = [
    ("logistic-1d", {}, 2.0, 0.0),
    ("logistic-1d", {"c": -3}, -3.0, 0.0),
    ("logistic-1d", {"c": 0.5, "lo": 0.0}, 0.5, 0.0),
    ("step-1d", {}, 4.0, 0.0),
    ("step-1d", {"lo": -0.5, "hi": 0.5}, 4.0, 0.0),
    ("step-smooth-1d", {}, 4.0, 0.0),
    ("step-smooth-1d", {"width": 0.3}, 1.3333333333333335, 0.0),
    ("constant-1d", {}, 0.0, 1.0986122886681098),
    ("constant-1d", {"p": 0.2}, 0.0, -1.3862943611198906),
    ("constant-1d", {"p": 0}, 0.0, -13.815509557963773),  # p clamped to 1e-6
    ("constant-1d", {"p": 1}, 0.0, 13.815509557935018),  # p clamped to 1 - 1e-6
    ("sphere-cap-teacher", {}, None, None),
    ("sphere-cap-teacher", {"d": 3, "c": 2.0}, None, None),
]


@pytest.mark.parametrize("augment_bias", [False, True])
@pytest.mark.parametrize("name,params,theta,bias", TEACHERS)
def test_default_reference_of_each_task(name, params, theta, bias, augment_bias):
    cfg = derive_regime("clairvoyant", 0.5, dist_name=name, dist_params=params, augment_bias=augment_bias)
    want = None
    if theta is not None and augment_bias:
        want = {"kind": "affine-teacher", "theta": [theta], "bias": bias}
    elif theta is not None:
        want = {"kind": "linear-teacher", "theta": [theta]}
    assert json.dumps(cfg.ref_config) == json.dumps(want)  # floats to the last bit


class TestBoundTerms:
    @staticmethod
    def transcribed(cfg, R, ref_risk, delta):
        # independent transcription of the printed rate formulas
        d = cfg.input_dim
        m, n, rho, t = cfg.m, cfg.n, cfg.rho, cfg.t
        e = math.e
        tau_n = 80.0 * (d * math.log(e * m**2 * d**3 / delta)) ** 1.5 / math.sqrt(n)
        tau_0 = 6.0 * rho * d * math.log(e * m * d**2 / delta) + 20.0 * R * math.sqrt(
            d * math.log(e * m**2 * d**3 / delta)
        ) / m**0.25
        b = min(
            cfg.r_gd,
            3.0 * R / rho
            + (4.0 * e / rho)
            * math.sqrt(t)
            * math.sqrt(math.exp(tau_0) * ref_risk + R * tau_n),
        )
        tau_1 = (
            100.0
            * rho
            * b ** (4.0 / 3.0)
            * math.sqrt(d * math.log(e * n * m**2 * d**3 / delta))
            / m ** (1.0 / 6.0)
        )
        return tau_n, tau_1, tau_0, b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(regime="clairvoyant", eps=0.5, augment_bias=True),
            dict(regime="easy", eps=1 / 16, overrides={"m": 4096, "n": 4096}),
            dict(regime="worstcase", eps=0.25, augment_bias=True),
        ],
    )
    def test_pinned_formula_reproduction(self, kwargs):
        cfg = derive_regime(**kwargs)
        R, ref_risk, delta = cfg.radius, 0.5, 0.05
        terms = compute_bound_terms(cfg, ref_risk, delta=delta)
        tau_n, tau_1, tau_0, b = self.transcribed(cfg, R, ref_risk, delta)
        assert terms.tau_n == pytest.approx(tau_n, rel=1e-12)
        assert terms.tau_0 == pytest.approx(tau_0, rel=1e-12)
        assert terms.b_eff == pytest.approx(b, rel=1e-12)
        assert terms.tau_1 == pytest.approx(tau_1, rel=1e-12)

    def test_small_radius_pins_b(self):
        cfg = dataclasses.replace(derive_regime("clairvoyant", 0.5), r_gd=0.25)
        terms = compute_bound_terms(cfg, 0.5)
        assert terms.b_eff == 0.25

    def test_tau_monotone_in_m_with_b_fixed(self):
        prev_tau1, prev_tau0_m_part = None, None
        for m in (1024, 4096, 16384):
            cfg = dataclasses.replace(
                derive_regime("clairvoyant", 0.5, overrides={"m": m}), rho=0.5, eta=16.0, r_gd=1.0
            )
            terms = compute_bound_terms(cfg, 0.5)
            d = cfg.input_dim
            tau0_m_part = (
                20.0
                * cfg.radius
                * math.sqrt(d * math.log(math.e * m**2 * d**3 / 0.05))
                / m**0.25
            )
            if prev_tau1 is not None:
                assert terms.tau_1 < prev_tau1
                assert tau0_m_part < prev_tau0_m_part
            prev_tau1, prev_tau0_m_part = terms.tau_1, tau0_m_part

    def test_desk_scale_is_vacuous(self):
        cfg = derive_regime("clairvoyant", 1 / 8, overrides={"m": 4096, "n": 4096})
        terms = compute_bound_terms(cfg, 0.5)
        assert terms.vacuous
        assert terms.tau1_exceeds_assumption

    def test_empirical_radius_form(self):
        cfg = derive_regime("clairvoyant", 0.5)
        terms = compute_bound_terms(cfg, 0.5, emp_ref_risk=0.6)
        expect = min(
            cfg.r_gd,
            3.0 * cfg.radius / cfg.rho + 2.0 * math.e * math.sqrt(cfg.eta * cfg.t * 0.6),
        )
        assert terms.b_eff_empirical == pytest.approx(expect, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("regime", ["clairvoyant", "worstcase"])
    def test_zero_reference_risk_adds_nothing_however_large_its_factor(self, regime):
        # R = 2e200 sends e^(tau_1 + tau_0), and in the worst case e^(tau_0),
        # past the largest float; a zero reference risk times either is 0,
        # not inf * 0 = nan, so the bound reads inf (vacuous), not nan.
        cfg = derive_regime(regime, 0.5, dist_params={"c": 1e200}, overrides={"n": 16, "m": 16})
        terms = compute_bound_terms(cfg, 0.0)
        assert (terms.reference_error, terms.total, terms.vacuous) == (0.0, math.inf, True)
        R, rho = cfg.radius, cfg.rho
        expect = 3.0 * R / rho + (4.0 * math.e / rho) * math.sqrt(cfg.t) * math.sqrt(R * terms.tau_n)
        assert terms.b_eff == min(cfg.r_gd, expect) < math.inf
        report = run_experiment(cfg).bound_terms
        assert report["ref_risk"] == 0.0 and report["total"] == math.inf
        assert not any(isinstance(v, float) and math.isnan(v) for v in report.values())

    def test_validation(self):
        cfg = derive_regime("clairvoyant", 0.5)
        with pytest.raises(ValueError):
            compute_bound_terms(cfg, 0.5, delta=1.5)
        with pytest.raises(ValueError):
            compute_bound_terms(cfg, math.nan)


class TestRunExperiment:
    def test_small_run_monitors_pass_and_round_trip(self):
        cfg = derive_regime(
            "clairvoyant", 0.5, seed=3, overrides={"m": 256, "n": 128}
        )
        report = run_experiment(cfg)
        assert report.status == "ok"
        assert report.monitors["smoothness_ok"]
        assert all(report.monitors["regret_ok"].values())
        d = report.to_dict()
        back = json.loads(json.dumps(d))
        assert back == d  # floats round-trip losslessly through JSON
        assert back["config"]["seed"] == 3
        assert "root_seed" in back

    def test_augmented_run(self):
        cfg = derive_regime(
            "clairvoyant", 0.5, seed=5, augment_bias=True,
            dist_name="constant-1d", dist_params={"p": 0.75},
            overrides={"m": 128, "n": 128},
        )
        assert cfg.input_dim == 2
        report = run_experiment(cfg)
        assert report.status == "ok"
        assert report.reference["kbin"] <= 0.01  # affine teacher matches p

    def test_reported_frozen_reference_risk_recomputes(self):
        cfg = derive_regime(
            "clairvoyant", 0.5, seed=6, augment_bias=True,
            dist_name="constant-1d", dist_params={"p": 0.75},
            overrides={"m": 128, "n": 96},
        )
        report = run_experiment(cfg)
        dist = make_distribution(cfg.dist_name, **cfg.dist_params)
        samp = draw_sample(dist, cfg.n, report.provenance["data_seed"])
        net = init_network(cfg.m, cfg.input_dim, cfg.rho, report.provenance["net_seed"])
        ubar = sample_reference(model_from_config(cfg.ref_config), net).ubar
        expect = frozen_empirical_risk(
            freeze_features(net, at_init=True), ubar, augment_batch(samp.points), samp.labels
        )
        assert report.reference["empirical_frozen_risk"] == pytest.approx(expect, rel=1e-12)

    def test_divergence_at_first_step_selects_nothing(self):
        # rho = 1e8 puts the initial risk far above the divergence threshold
        # while it stays finite: no step is taken, and the diverged iterate 0
        # is not selected, so no risk or reference block is computed.
        cfg = derive_regime("easy", 0.5, seed=1, overrides={"m": 16, "n": 8})
        cfg = dataclasses.replace(cfg, rho=1e8, eta=4e-16)
        report = run_experiment(cfg)
        assert report.status == "diverged"
        assert report.trajectory.records[0].emp_risk > DIVERGENCE_THRESHOLD
        assert report.trajectory.selected_index is None
        assert report.risk == {} and report.reference is None

    def test_large_rho_reference_is_sampled(self):
        # At rho = 1e8 the offset a u(w0) / (rho sqrt(m)) is near the rounding
        # of W0, so Ubar - W0 recomputed by subtraction cancels; the norm
        # bound is checked on the offset, and the run reports its status.
        cfg = derive_regime("easy", 0.5, seed=2, overrides={"m": 16, "n": 8})
        cfg = dataclasses.replace(cfg, rho=1e8, eta=4e-16)
        report = run_experiment(cfg)
        assert report.status == "diverged"
        assert report.trajectory.selected_index is None

    def test_config_flat_round_trip(self):
        flat = derive_regime("worstcase", 0.25, seed=9).to_flat_dict()
        assert flat["r_gd"] == "inf"
        back = RegimeConfig.from_flat_dict(json.loads(json.dumps(flat, allow_nan=False)))
        assert back.to_flat_dict() == flat

    @pytest.mark.parametrize("edit,match", [({"eps": "inf"}, "eps must be null"), ({"xi": "nan"}, "xi must be null")])
    def test_reading_back_a_non_finite_eps_or_xi_is_refused(self, edit, match):
        flat = derive_regime("worstcase", 0.25, seed=9).to_flat_dict()
        with pytest.raises(ValueError, match=match):
            RegimeConfig.from_flat_dict({**flat, **edit})


class TestSweep:
    def test_validation(self):
        base = derive_regime("clairvoyant", 0.5)
        with pytest.raises(ValueError):
            sweep(base, "n", [128], seeds=5)
        with pytest.raises(ValueError):
            sweep(base, "n", [128, 256], seeds=4)
        with pytest.raises(ValueError):
            sweep(base, "width", [128, 256], seeds=5)

    @pytest.mark.parametrize(
        "axis,values",
        [("n", [16, 0]), ("m", [64, -1]), ("n", [16, 16.5]), ("m", [64, 64.9])],
        ids=["n", "m", "n-fraction", "m-fraction"],
    )
    def test_every_cell_is_checked_before_any_run(self, monkeypatch, axis, values):
        base = derive_regime("clairvoyant", 0.5, overrides={"m": 64, "n": 16})
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        with pytest.raises(ValueError, match=f"{axis} must be an integer >= 1"):
            sweep(base, axis, values, seeds=5)
        assert runs == []

    @pytest.mark.parametrize("axis,value", [("n", 64.5), ("n", 64.0), ("m", 64.9)])
    def test_consistency_cells_are_checked_before_any_run(self, monkeypatch, axis, value):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kw: runs.append(cfg))
        with pytest.raises(ValueError, match=f"{axis} must be an integer"):
            sweep(derive_consistency(64, 0.5), axis, [64, value], seeds=5)
        assert runs == []

    def test_seeds_disjoint_across_cells(self):
        seeds = {derived_seed(0, ci, t) for ci in range(4) for t in range(8)}
        assert len(seeds) == 32

    @staticmethod
    def cell_configs(monkeypatch, base, axis, values):
        """The configuration of every run of a sweep, with training stubbed out."""
        runs = []

        def record(cfg, with_reference=True):
            runs.append(cfg)
            risk = {"excess_logistic": 0.1, "l2_calibration_sq": 0.1, "excess_zero_one": 0.1}
            return SimpleNamespace(status="ok", risk=risk)

        monkeypatch.setattr(harness, "run_experiment", record)
        sweep(base, axis, values, seeds=5)
        return runs[::5]

    @pytest.mark.parametrize("regime", ["easy", "clairvoyant", "worstcase"])
    def test_m_axis_keeps_coupling(self, monkeypatch, regime):
        base = derive_regime(regime, 0.5, overrides={"m": 64, "n": 64})
        for m, cell in zip([64, 300], self.cell_configs(monkeypatch, base, "m", [64, 300])):
            expect = derive_regime(regime, 0.5, overrides={"m": m, "n": 64})
            assert (cell.m, cell.rho, cell.eta, cell.r_gd) == (m, expect.rho, expect.eta, expect.r_gd)

    def test_m_axis_consistency_coupling(self, monkeypatch):
        base = derive_consistency(64, 0.5)
        for m, cell in zip([64, 300], self.cell_configs(monkeypatch, base, "m", [64, 300])):
            assert (cell.m, cell.rho, cell.r_gd) == (m, m**-0.125, math.inf)
            assert cell.eta == pytest.approx(4 * m**0.25, rel=1e-14)

    @pytest.mark.parametrize("regime", ["easy", "clairvoyant", "worstcase"])
    def test_eps_axis_derives_each_cell(self, monkeypatch, regime):
        base = derive_regime(
            regime, 0.5, dist_name="constant-1d", augment_bias=True, seed=4,
            overrides={"m": 64, "n": 64},
        )
        for eps, cell in zip([0.5, 0.4], self.cell_configs(monkeypatch, base, "eps", [0.5, 0.4])):
            expect = derive_regime(
                regime, eps, dist_name="constant-1d", augment_bias=True, seed=4
            )
            assert dataclasses.replace(cell, seed=4) == expect

    def test_small_n_sweep(self):
        base = derive_regime(
            "clairvoyant", 0.5, seed=1, overrides={"m": 128, "n": 64}
        )
        result = sweep(base, "n", [64, 256], seeds=5, root_seed=7)
        assert result["base"] == json_safe(base.to_flat_dict())
        assert len(result["cells"]) == 2
        assert len(result["rows"]) == 10
        run_seeds = {r["seed"] for r in result["rows"]}
        assert len(run_seeds) == 10
        for cell in result["cells"]:
            stats = cell["excess_logistic"]
            assert stats["q25"] <= stats["median"] <= stats["q75"]


class TestJsonSafe:
    def test_nonfinite_floats_become_tokens(self):
        obj = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": [1.0, math.inf]}
        safe = json_safe(obj)
        assert safe == {"a": "inf", "b": "-inf", "c": "nan", "d": [1.0, "inf"]}
        json.dumps(safe)

    def test_numpy_scalars_handled(self):
        safe = json_safe({"x": np.float64(1.5), "n": np.int64(3), "arr": np.ones(2)})
        assert safe == {"x": 1.5, "n": 3, "arr": [1.0, 1.0]}
