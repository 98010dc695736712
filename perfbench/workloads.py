"""The four benchmark workloads: inputs, operations and output checks.

An operation is one call of a public shallowcal function.  ``setup`` builds
what every operation shares, ``prepare(ctx, k)`` builds the inputs of
operation k from the workload seed (untimed) and returns the call to time,
and ``check`` compares the operation's outputs with the independent
computations in ``oracles``.  A workload runs its operations in rounds of
``round_size``; every run attempts whole rounds.
"""

from __future__ import annotations

import math
import time

import numpy as np

import oracles
from shallowcal import harness, interpolation, reference
from shallowcal.distributions import evaluator, make_distribution
from shallowcal.network import augment_batch, clone_initial, freeze_features, init_network
from shallowcal.distributions import sample as draw_sample
from shallowcal.trainer import TrainConfig, frozen_empirical_risk, gd_step, train

# Relative agreement of a program risk with its dense recomputation; only
# the summation order differs between the two.
DENSE_RTOL = 1e-12
# Midpoint integral (2^10 nodes) against the program's 512-node composite
# Gauss-Legendre rule on a spline with 2^16 knots; the gaps seen were up to
# 2.2e-8, most of it the quadrature's own error on the kinks.
MIDPOINT_NODES = 1 << 10
MIDPOINT_ATOL = 2e-7
# Monte Carlo agreement, in standard errors.
MC_SIGMAS = 4.0
CHAIN_ATOL = 1e-9


def _fail(failures, ok, message):
    if not ok:
        failures.append(message)


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    name = ""
    dominant = ""  # module expected to take most of the traced time
    layers = ()  # spans a traced run must record
    round_size = 1
    sizes = {}

    def __init__(self, **sizes):
        self.sizes = {**type(self).sizes, **sizes}

    def op_seed(self, seed, k):
        return oracles.derived_seed(seed, k)


class _TrainingWorkload(Workload):
    """``harness.run_experiment`` on one regime configuration."""

    dominant = "trainer"

    def config(self, seed):
        raise NotImplementedError

    def prepare(self, ctx, k):
        cfg = self.config(self.op_seed(ctx["seed"], k))
        return cfg, lambda: harness.run_experiment(cfg)

    def check_training(self, cfg, report, X, y, refs):
        failures = []
        _fail(failures, report.status == "ok", f"status {report.status}")
        mon = report.monitors
        _fail(failures, mon["smoothness_ok"], "smoothness monitor violated")
        _fail(failures, set(mon["regret_ok"]) == set(refs), f"certificates {sorted(mon['regret_ok'])}")
        _fail(failures, all(mon["regret_ok"].values()), f"regret certificate violated {mon['regret_ok']}")
        _, signs = oracles.initial_network(report.provenance["net_seed"], cfg.m, cfg.input_dim)
        W = report.trajectory.selected_weights
        scale = cfg.rho / math.sqrt(cfg.m)
        dense = oracles.empirical_logistic_risk(oracles.margins(W, signs, scale, X), y)
        selected = report.trajectory_summary["selected_emp_risk"]
        _fail(failures, _rel_close(dense, selected, DENSE_RTOL), f"selected risk {selected!r} != dense {dense!r}")
        r = report.risk
        _fail(failures, abs(r["binary_kl"] - r["excess_logistic"]) <= CHAIN_ATOL, "KL != excess logistic")
        _fail(failures, 0.5 * r["excess_zero_one"] ** 2 <= 2 * r["l2_calibration_sq"] + CHAIN_ATOL, "chain: zero-one > calibration")
        _fail(failures, 2 * r["l2_calibration_sq"] <= r["binary_kl"] + CHAIN_ATOL, "chain: calibration > KL")
        return failures, (W, signs, scale)

    def fingerprint(self, report):
        return (report.trajectory_summary["selected_emp_risk"], report.risk.get("logistic_risk"))

    def probes(self, ctx):
        """Trainer layer timings on this workload's own arrays and widths."""
        cfg = self.config(self.op_seed(ctx["seed"], 0))
        dist = make_distribution(cfg.dist_name, **cfg.dist_params)
        samp = draw_sample(dist, cfg.n, harness.derived_seed(cfg.seed, 1))
        X = augment_batch(samp.points) if cfg.augment_bias else samp.points
        y = samp.labels
        net = init_network(cfg.m, cfg.input_dim, cfg.rho, harness.derived_seed(cfg.seed, 2))
        base = clone_initial(net)

        def seconds(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        step_times, frozen_times = [], []
        for _ in range(3):
            ff = freeze_features(net)  # features at W_i; the step moves net to W_(i+1)
            step_times.append(seconds(lambda: gd_step(net, X, y, cfg.eta)))
            frozen_times.append(seconds(lambda: frozen_empirical_risk(ff, net.weights, X, y)))
        tcfg = TrainConfig(eta=cfg.eta, t_max=cfg.t, eps_gd=cfg.eps_gd, r_gd=cfg.r_gd, seed=cfg.seed)
        bare = seconds(lambda: train(clone_initial(base), X, y, tcfg, monitors=True, regret_refs={}))
        with_ref = seconds(
            lambda: train(clone_initial(base), X, y, tcfg, monitors=True, regret_refs={"W0": base.init_weights})
        )
        return {
            "trainer.gd_step_ms": 1e3 * float(np.median(step_times)),
            "trainer.frozen_pass_ms": 1e3 * float(np.median(frozen_times)),
            "trainer.ref_pass_ms": 1e3 * (with_ref - bare) / cfg.t,
        }


class ConsistencyD2(_TrainingWorkload):
    name = "consistency-d2"
    layers = (
        "harness.run_experiment",
        "trainer.train",
        "network.init_network",
        "network.forward_batch",
        "network.frozen_forward_batch",
        "reference.infinite_forward_batch",
        "reference.sample_reference",
        "distributions.sample",
        "distributions.evaluator",
        "distributions.population_risk",
        "metrics.risk_breakdown",
    )
    sizes = {"n": 512, "xi": 0.5, "cap": harness.DESK_CAP}

    def config(self, seed):
        s = self.sizes
        return harness.derive_consistency(
            s["n"], s["xi"], dist_name="step-smooth-1d", augment_bias=True, seed=seed, cap=s["cap"]
        )

    def setup(self, seed):
        return {"seed": seed, "teacher": reference.model_from_config(self.config(seed).ref_config)}

    def check(self, ctx, cfg, report):
        X, y = oracles.uniform_1d_sample(report.provenance["data_seed"], cfg.n, -1.0, 1.0, oracles.step_smooth_p)
        failures, (W, signs, scale) = self.check_training(cfg, report, oracles.augment(X), y, ("W0", "Ubar"))
        mid = oracles.midpoint_risk(
            lambda x: oracles.margins(W, signs, scale, oracles.augment(x[:, None])),
            oracles.step_smooth_p, -1.0, 1.0, MIDPOINT_NODES,
        )
        pop = report.risk["logistic_risk"]
        _fail(failures, abs(mid - pop) <= MIDPOINT_ATOL, f"population risk {pop!r} != midpoint {mid!r}")
        teacher = cfg.ref_config
        theta, bias = teacher["theta"][0], teacher["bias"]
        closed = oracles.midpoint_risk(lambda x: theta * x + bias, oracles.step_smooth_p, -1.0, 1.0, 1 << 15)
        se = oracles.affine_teacher_se(theta, bias, oracles.midpoints(-1.0, 1.0, 1 << 15), ctx["teacher"].mc_features)
        ref_risk = report.reference["population_risk"]
        _fail(failures, abs(ref_risk - closed) <= MC_SIGMAS * se, f"reference risk {ref_risk!r} vs teacher {closed!r} (se {se:.2e})")
        return failures


class SphereCapD4(_TrainingWorkload):
    name = "sphere-cap-d4"
    layers = (
        "harness.run_experiment",
        "trainer.train",
        "network.init_network",
        "network.forward_batch",
        "distributions.sample",
        "distributions.evaluator",
        "distributions.population_risk",
        "metrics.risk_breakdown",
    )
    sizes = {"m": 4096, "n": 1024, "d": 4}

    def config(self, seed):
        s = self.sizes
        return harness.derive_regime(
            "clairvoyant",
            0.5,
            dist_name="sphere-cap-teacher",
            dist_params={"d": s["d"]},
            seed=seed,
            overrides={"m": s["m"], "n": s["n"], "eps_gd": 1 / 120},
        )

    def setup(self, seed):
        return {"seed": seed}

    def check(self, ctx, cfg, report):
        X, y = oracles.sphere_cap_sample(report.provenance["data_seed"], cfg.n, self.sizes["d"], 4.0)
        failures, _ = self.check_training(cfg, report, X, y, ("W0",))
        r, se = report.risk, report.risk["logistic_se"]
        bayes = report.bayes["logistic"]
        _fail(failures, r["logistic_risk"] >= bayes - 3 * se, f"logistic risk {r['logistic_risk']!r} below Bayes {bayes!r} - 3 se")
        return failures


class ReferenceGap(Workload):
    name = "reference-gap"
    dominant = "reference"
    layers = (
        "reference.gap_experiment",
        "reference.infinite_forward_batch",
        "reference.sample_reference",
        "network.frozen_forward_batch",
    )
    sizes = {"widths": (64, 256, 1024, 4096), "mc_features": 200_000, "p": 0.75, "bias": 2.0}

    @property
    def round_size(self):
        return len(self.sizes["widths"])

    def setup(self, seed):
        dist = make_distribution("constant-1d", p=self.sizes["p"])
        return {"seed": seed, "dist": dist, "ev": evaluator(dist)}

    def prepare(self, ctx, k):
        s = self.sizes
        rnd, m = divmod(k, self.round_size)
        m = s["widths"][m]
        teacher_seed = oracles.derived_seed(ctx["seed"], rnd, 0)
        net_seed = oracles.derived_seed(ctx["seed"], rnd, m)
        model = reference.affine_teacher(
            [0.0], bias=s["bias"], mc_features=s["mc_features"], mc_seed=teacher_seed
        )
        net = init_network(m, 2, float(m) ** -0.125, net_seed)
        inputs = {"m": m, "net_seed": net_seed, "rho": net.rho}
        return inputs, lambda: reference.gap_experiment(model, net, ctx["dist"], ctx["ev"], augment_inputs=True)

    def check(self, ctx, inputs, res):
        s, ev = self.sizes, ctx["ev"]
        failures = []
        p = s["p"]
        closed = oracles.expected_logistic_risk(np.array([s["bias"]]), np.array([p]))
        se = oracles.affine_teacher_se(0.0, s["bias"], ev.points[:, 0], s["mc_features"])
        _fail(failures, abs(res.infinite_risk - closed) <= MC_SIGMAS * se, f"MC risk {res.infinite_risk!r} vs teacher {closed!r} (se {se:.2e})")
        m, rho = inputs["m"], inputs["rho"]
        W0, signs = oracles.initial_network(inputs["net_seed"], m, 2)
        u = 2.0 * math.sqrt(2.0) * np.array([0.0, s["bias"]])
        ubar = signs[:, None] * u[None, :] / (rho * math.sqrt(m)) + W0
        X = oracles.augment(ev.points)
        f = oracles.frozen_margins(W0, ubar, signs, rho / math.sqrt(m), X)
        dense = oracles.expected_logistic_risk(f, np.full(len(f), p), ev.weights)
        _fail(failures, _rel_close(dense, res.frozen_risk, DENSE_RTOL), f"frozen risk {res.frozen_risk!r} != dense {dense!r}")
        _fail(failures, res.gap >= 1.0, f"gap {res.gap!r} < 1")
        return failures

    def fingerprint(self, res):
        return (res.frozen_risk, res.infinite_risk)


class InterpLB(Workload):
    name = "interp-lb"
    dominant = "interpolation"
    layers = (
        "interpolation.excess_risk_comparison",
        "interpolation.sorted_sample",
        "interpolation.one_nn_rule",
        "interpolation.knn_rule",
        "interpolation.wrong_pairs",
        "interpolation.excess_zero_one_exact",
        "distributions.sample",
    )
    sizes = {"n_grid": (10_000, 100_000, 1_000_000), "trials": 1, "p": 0.75}

    def setup(self, seed):
        return {"seed": seed, "dist": make_distribution("constant-1d", p=self.sizes["p"], lo=0.0, hi=1.0)}

    def prepare(self, ctx, k):
        s = self.sizes
        root = self.op_seed(ctx["seed"], k)
        return root, lambda: interpolation.excess_risk_comparison(ctx["dist"], s["n_grid"], s["trials"], seed=root)

    def check(self, ctx, root, out):
        rows, summary = out
        s, p = self.sizes, self.sizes["p"]
        failures = []
        minority = 1.0 if p < 0.5 else -1.0
        ones = [r for r in rows if r["rule"] == "1nn"]
        _fail(failures, len(ones) == len(s["n_grid"]) * s["trials"], f"{len(ones)} 1-NN rows")
        for r in ones:
            n_idx = s["n_grid"].index(r["n"])
            X, y = oracles.uniform_1d_sample(
                oracles.derived_seed(root, n_idx, r["trial"]), r["n"], 0.0, 1.0, lambda x: np.full(len(x), p)
            )
            expect = abs(2 * p - 1) * oracles.one_nn_minority_mass(X[:, 0], y, 0.0, 1.0, minority)
            _fail(failures, abs(r["excess_z"] - expect) <= 1e-9 * expect + 1e-12, f"1-NN n={r['n']}: {r['excess_z']!r} != cell mass {expect!r}")
        for r in rows:
            if r["rule"] != "1nn":
                _fail(failures, 0.0 <= r["excess_z"] <= abs(2 * p - 1), f"{r['rule']} excess {r['excess_z']!r} outside [0, |2p-1|]")
        n_max = max(s["n_grid"])
        med = float(np.median([r["excess_z"] for r in ones if r["n"] == n_max]))
        _fail(failures, abs(med - oracles.one_nn_limit(p)) <= 0.02, f"1-NN median {med!r} at n={n_max} not near {oracles.one_nn_limit(p)}")
        return failures

    def fingerprint(self, out):
        return tuple(r["excess_z"] for r in out[0])


WORKLOADS = {w.name: w for w in (ConsistencyD2, SphereCapD4, ReferenceGap, InterpLB)}
