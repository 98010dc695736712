"""Experiment presets, schedule arithmetic, and the bound calculator.

Three preset regimes couple the temperature, width, and early stopping
radius to a target excess risk eps (with eps_gd = eps, t = 1/(8 eps_gd),
and n >= 1/eps^2 shared by all of them):

* easy        - rho = 1, m >= R^8, no early stopping radius;
* clairvoyant - rho = m^(-1/8), m = eps^(-8), radius R/rho;
* worstcase   - rho = m^(-1/8), m = eps^(-40/3), radius infinite.

A preset may pin m, n and eps_gd; rho, eta and the radius always follow
from the width, and R from the reference: the task's teacher.

The consistency schedule drives everything from the sample size n and an
early stopping exponent xi in (0, 1):

    m = n^((40/3)(1-xi)),  rho = m^(-1/8),  eta = 4/rho^2,
    eps_gd = n^(xi-1),     t = n^(1-xi)/8,  radius infinite.

Every generated configuration satisfies eta * rho^2 = 4 exactly.  Widths
and sample sizes are capped at desk scale (2^16) with an explicit flag
rather than silently truncated.  Fractional widths and horizons round up:
more width or optimization never weakens the guarantees being monitored.

The bound calculator evaluates the decomposition

    kbin + (e^(tau_1 + tau_0) - 1) * ref_risk
         + e^(tau_1) * R^2 * eps_gd
         + e^(tau_1) * (rho * B + R) * tau_n

with the printed rates tau_n, tau_1, tau_0 and effective radius B; at desk
scale the total is expected to exceed ln 2 and is flagged vacuous, so
acceptance rests on deterministic inequalities and scaling behavior rather
than on these constants.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import (
    Distribution,
    bayes_risk,
    bayes_zero_one_risk,
    derived_seed,
    evaluator,
    make_distribution,
    population_risk,
    sample as draw_sample,
)
from .metrics import (
    LOG2, RULES, check, check_fields, is_int, is_number, logistic_risk, rule, spread,
)
from .network import augment_batch, forward_batch, init_network
from .reference import (
    InfiniteWidthModel,
    infinite_forward_batch,
    model_from_config,
    sample_reference,
)
from .trainer import TrainConfig, Trajectory, step_size_ok, train

__all__ = [
    "BoundTerms",
    "CellError",
    "DESK_CAP",
    "ExperimentReport",
    "RegimeConfig",
    "compute_bound_terms",
    "default_reference_for",
    "derive_consistency",
    "derive_regime",
    "derived_seed",
    "json_safe",
    "prepare_run",
    "run_experiment",
    "sweep",
]

DESK_CAP = 1 << 16

REGIMES = ("easy", "clairvoyant", "worstcase", "consistency")


def _snap_ceil(value: float) -> int:
    """Ceiling with a relative snap to the nearest integer, so closed-form
    powers that land on integers are not bumped up by float noise."""
    nearest = round(value)
    if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
        value = nearest
    return math.ceil(value)


@dataclass
class RegimeConfig:
    """One run's settings; each field that names a ``metrics.rule`` meets it."""

    regime: str
    rho: float = rule("positive")
    m: int = rule("count")
    n: int = rule("count")
    eta: float = rule("positive")
    t: int = rule("count")
    eps_gd: float = rule("positive")
    r_gd: float = rule("radius")
    seed: int = rule("seed", default=0)
    eps: float | None = rule("eps-or-null", default=None)
    xi: float | None = rule("fraction-or-null", default=None)
    dist_name: str = "logistic-1d"
    dist_params: dict = rule("object", default_factory=dict)
    ref_config: dict | None = rule("object-or-null", default=None)
    augment_bias: bool = rule("flag", default=False)
    capped: bool = rule("flag", default=False)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "consistency" and not RULES["fraction"][0](self.xi):
            raise ValueError(f"a consistency config needs 0 < xi < 1, got {self.xi!r}")
        check_fields(self)
        if not (step_size_ok(self.eta, self.rho) and self.eta * self.rho**2 >= 4.0 - 1e-9):
            raise ValueError("configs must satisfy eta * rho^2 = 4, with eta <= 4/rho^2")
        input_dim = self.input_dim  # builds the task, so checks dist_name and dist_params
        if self.ref_config is not None:
            dim = model_from_config(self.ref_config).dim
            if dim != input_dim:
                raise ValueError(f"reference dimension {dim} != input dimension {input_dim}")

    @property
    def input_dim(self) -> int:
        base = make_distribution(self.dist_name, **self.dist_params).dim
        return base + 1 if self.augment_bias else base

    @property
    def radius(self) -> float:
        """The norm bound R of the run's reference (see ``_radius``)."""
        return _radius(self.ref_config, self.rho)

    def lift(self, points: np.ndarray) -> np.ndarray:
        """Network inputs for task points: the bias lift when ``augment_bias``."""
        return augment_batch(points) if self.augment_bias else np.asarray(points, dtype=float)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            eta=self.eta, t_max=self.t, eps_gd=self.eps_gd, r_gd=self.r_gd, seed=self.seed
        )

    def to_flat_dict(self) -> dict:
        return json_safe(asdict(self))

    @classmethod
    def from_flat_dict(cls, data: dict) -> "RegimeConfig":
        """Inverse of ``to_flat_dict``; raises ValueError unless ``data`` is
        a dict with every required field and no unknown field.  A float
        field may hold ``json_safe``'s "inf", "-inf" or "nan";
        ``__post_init__`` checks every value."""
        check("a config", data, "object")
        known = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        missing = [
            name
            for name, f in known.items()
            if name not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ValueError(f"missing config fields: {', '.join(missing)}")
        data = dict(data)
        for name, value in data.items():
            if value in ("inf", "-inf", "nan") and "float" in known[name].type:
                data[name] = float(value)
        return cls(**data)


def default_reference_for(dist: Distribution, augment_bias: bool) -> dict | None:
    """The reference config of ``dist.teacher``: an affine teacher on
    bias-lifted inputs, else a linear teacher; None without a teacher."""
    if dist.teacher is None:
        return None
    theta, bias = dist.teacher
    if augment_bias:
        return {"kind": "affine-teacher", "theta": list(theta), "bias": bias}
    return {"kind": "linear-teacher", "theta": list(theta)}


def _radius(ref_config: dict | None, rho: float) -> float:
    """R = max(4, rho, ||w||) for a reference with weight vector w (||w|| = 0
    without one): the paper's complexity measure of the true conditional
    model, floored as the bound calculator needs."""
    norm = 0.0 if ref_config is None else model_from_config(ref_config).norm_bound
    return max(4.0, rho, norm)


def _coupling(regime: str, m: int, ref_config: dict | None, r_gd=None):
    """(rho, eta, r_gd) of a width-m run: rho = m^(-1/8) (1 in the easy
    regime), eta = 4/rho^2, radius R/rho in the clairvoyant regime and
    infinite otherwise.  A pinned r_gd (the sweep's m axis keeps the base's)
    replaces the derived one."""
    rho = 1.0 if regime == "easy" else float(m) ** -0.125
    if r_gd is None:
        r_gd = _radius(ref_config, rho) / rho if regime == "clairvoyant" else math.inf
    return rho, 4.0 / rho**2, float(r_gd)


def _build(regime, m, cap, capped=False, **fields) -> RegimeConfig:
    """The presets' one constructor: build the task, pair it with its
    teacher's reference, round the width m up (the easy width R^8 when m is
    None), cap it and couple rho, eta and r_gd to it."""
    fields["dist_params"] = dict(fields["dist_params"] or {})
    dist = make_distribution(fields["dist_name"], **fields["dist_params"])
    ref = default_reference_for(dist, fields["augment_bias"])
    if m is None:  # easy regime: rho = 1, so R does not depend on m
        R = _radius(ref, 1.0)
        try:
            m = _snap_ceil(R**8)
        except OverflowError:
            raise ValueError(f"reference norm {R:g} is too large for the easy width R^8") from None
    m = m if is_int(m) else _snap_ceil(m)  # only a derived width rounds up
    if m > cap:
        m, capped = cap, True
    rho, eta, r_gd = _coupling(regime, m, ref)
    return RegimeConfig(
        regime=regime, m=m, rho=rho, eta=eta, r_gd=r_gd, ref_config=ref, capped=capped, **fields
    )


_OVERRIDE_KEYS = ("m", "n", "eps_gd")


def derive_regime(
    regime: str,
    eps: float,
    dist_name: str = "logistic-1d",
    dist_params: dict | None = None,
    augment_bias: bool = False,
    seed: int = 0,
    cap: int = DESK_CAP,
    overrides: dict | None = None,
) -> RegimeConfig:
    """Populate a full configuration from a target accuracy eps.

    The easy width R^8 and the clairvoyant radius R/rho read the norm bound
    R of the task's teacher (``_radius``).  ``overrides`` may pin
    the derived fields m, n (integers >= 1) and eps_gd; any other key is a
    ValueError, and so is an eps small enough that a derived size
    overflows.  rho, eta and r_gd are derived from the width, overridden or
    not, so the couplings hold; a config built with ``dataclasses.replace``
    or read from a file can set them otherwise.
    """
    if regime == "consistency":
        raise ValueError("use derive_consistency for the consistency schedule")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    check("eps", eps, "eps")
    check("cap", cap, "cap")
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(_OVERRIDE_KEYS))
    if unknown:
        raise ValueError(f"unknown overrides {unknown}; accepted: {', '.join(_OVERRIDE_KEYS)}")
    for key in ("m", "n"):
        if key in overrides:
            check(f"override {key}", overrides[key], "count")
    try:
        n = overrides.get("n") or _snap_ceil(1.0 / eps**2)
        m = None if regime == "easy" else eps ** (-8.0 if regime == "clairvoyant" else -40.0 / 3.0)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"eps = {eps!r} is too small: a derived size is not finite") from None
    eps_gd = overrides.get("eps_gd", eps)
    if not (is_number(eps_gd) and eps_gd > 0 and math.isfinite(1.0 / (8.0 * eps_gd))):
        raise ValueError(f"eps_gd must be positive and t = 1/(8 eps_gd) finite, got {eps_gd!r}")
    return _build(
        regime, overrides.get("m", m), cap, capped=n > cap, n=min(n, cap),
        t=_snap_ceil(1.0 / (8.0 * eps_gd)), eps_gd=float(eps_gd), eps=eps, seed=seed,
        dist_name=dist_name, dist_params=dist_params, augment_bias=augment_bias,
    )


def derive_consistency(
    n: int,
    xi: float,
    dist_name: str = "step-smooth-1d",
    dist_params: dict | None = None,
    augment_bias: bool = True,
    seed: int = 0,
    cap: int = DESK_CAP,
) -> RegimeConfig:
    """Schedule all parameters from the sample size under exponent xi."""
    check("n", n, "pair")
    check("xi", xi, "fraction")
    check("cap", cap, "cap")
    return _build(
        "consistency", float(n) ** ((40.0 / 3.0) * (1.0 - xi)), cap,
        n=n, t=_snap_ceil(float(n) ** (1.0 - xi) / 8.0), eps_gd=float(n) ** (xi - 1.0),
        xi=xi, seed=seed, dist_name=dist_name, dist_params=dist_params, augment_bias=augment_bias,
    )


@dataclass
class BoundTerms:
    tau_n: float
    tau_1: float
    tau_0: float
    b_eff: float
    radius_scale: float
    delta: float
    ref_risk: float
    kbin: float
    reference_error: float
    optimization_error: float
    generalization_error: float
    total: float
    vacuous: bool
    tau1_exceeds_assumption: bool
    b_eff_empirical: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def compute_bound_terms(
    cfg: RegimeConfig,
    ref_risk: float,
    emp_ref_risk: float | None = None,
    kbin: float = 0.0,
    delta: float = 0.05,
) -> BoundTerms:
    """Evaluate the error decomposition exactly as stated.

    R is ``cfg.radius`` (at least 4), reported as ``radius_scale``;
    ``ref_risk`` is the population risk of the infinite-width reference;
    ``kbin`` its binary KL to the true conditional model.  When
    ``emp_ref_risk`` (the empirical frozen risk of the sampled reference)
    is supplied, the alternative empirical form of the effective radius is
    reported too.  The three risks must be finite and nonnegative.
    """
    check("delta", delta, "fraction")
    check("ref_risk", ref_risk, "nonnegative")
    check("kbin", kbin, "nonnegative")
    if emp_ref_risk is not None:
        check("emp_ref_risk", emp_ref_risk, "nonnegative")
    R = cfg.radius
    d = cfg.input_dim
    m, n, rho, t = cfg.m, cfg.n, cfg.rho, cfg.t

    def times_ref_risk(factor: float) -> float:
        """factor * ref_risk, where a zero risk adds nothing however large
        the factor (inf * 0 would be nan)."""
        return factor * ref_risk if ref_risk else 0.0

    log_mn = d * math.log(math.e * m**2 * d**3 / delta)
    tau_n = 80.0 * log_mn**1.5 / math.sqrt(n)
    tau_0 = (
        6.0 * rho * d * math.log(math.e * m * d**2 / delta)
        + 20.0 * R * math.sqrt(log_mn) / m**0.25
    )
    with np.errstate(over="ignore"):
        b_candidate = (3.0 * R / rho) + (4.0 * math.e / rho) * math.sqrt(
            t
        ) * math.sqrt(times_ref_risk(float(np.exp(tau_0))) + R * tau_n)
        b_eff = min(cfg.r_gd, b_candidate)
        tau_1 = (
            100.0
            * rho
            * b_eff ** (4.0 / 3.0)
            * math.sqrt(d * math.log(math.e * n * m**2 * d**3 / delta))
            / m ** (1.0 / 6.0)
        )
        reference_error = kbin + times_ref_risk(float(np.expm1(tau_1 + tau_0)))
        # A numpy power overflows to inf where a float power raises.
        optimization_error = float(np.exp(tau_1)) * float(np.float64(R) ** 2) * cfg.eps_gd
        generalization_error = float(np.exp(tau_1)) * (rho * b_eff + R) * tau_n
        total = reference_error + optimization_error + generalization_error
        b_emp = None
        if emp_ref_risk is not None:
            b_emp = min(
                cfg.r_gd,
                3.0 * R / rho
                + 2.0 * math.e * math.sqrt(cfg.eta * t * emp_ref_risk),
            )
    return BoundTerms(
        tau_n=tau_n,
        tau_1=tau_1,
        tau_0=tau_0,
        b_eff=b_eff,
        radius_scale=R,
        delta=delta,
        ref_risk=ref_risk,
        kbin=kbin,
        reference_error=reference_error,
        optimization_error=optimization_error,
        generalization_error=generalization_error,
        total=total,
        vacuous=not (total <= LOG2),
        tau1_exceeds_assumption=tau_1 > 2.0,
        b_eff_empirical=b_emp,
    )


@dataclass
class ExperimentReport:
    config: RegimeConfig
    root_seed: int
    status: str
    risk: dict
    bayes: dict
    monitors: dict
    bound_terms: dict | None
    reference: dict | None
    trajectory_summary: dict
    provenance: dict
    trajectory: Trajectory  # full record; not serialized

    def to_dict(self) -> dict:
        fields = dataclasses.fields(self)
        out = {f.name: getattr(self, f.name) for f in fields if f.name != "trajectory"}
        out["config"] = self.config.to_flat_dict()
        return json_safe(out)


def json_safe(obj):
    """Recursively replace non-finite floats with distinguished strings so
    reports stay valid JSON."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return json_safe(obj.tolist())
    return obj


def prepare_run(cfg: RegimeConfig):
    """Sample the data and initialize the network of one run.

    Returns ``(dist, X, y, net, seeds)``: the task, the lifted inputs
    (``cfg.lift``), the labels, the width-m network and the provenance
    seeds.  The seed rule splits the root: k=1 data, k=2 network.
    """
    seeds = {"data_seed": derived_seed(cfg.seed, 1), "net_seed": derived_seed(cfg.seed, 2)}
    dist = make_distribution(cfg.dist_name, **cfg.dist_params)
    samp = draw_sample(dist, cfg.n, seeds["data_seed"])
    X = cfg.lift(samp.points)
    net = init_network(cfg.m, X.shape[1], cfg.rho, seeds["net_seed"])
    return dist, X, samp.labels, net, seeds


def run_experiment(cfg: RegimeConfig, with_reference: bool = True) -> ExperimentReport:
    """Full pipeline: sample, initialize, train with monitors, select the
    early-stopped iterate, and measure its population risk decomposition
    against the true conditional model.

    ``with_reference=False`` skips the reference-model machinery (sampled
    regret reference, Monte Carlo reference risk, bound terms); the
    smoothness monitor and the initialization regret certificate still run.
    Sweeps use this mode since their cells only consume risk metrics.
    """
    dist, X, y, net, seeds = prepare_run(cfg)
    model: InfiniteWidthModel | None = None
    refs = {"W0": net.init_weights}  # read-only, so shared without a copy
    sampled_ref = None
    if cfg.ref_config is not None and with_reference:
        model = model_from_config(cfg.ref_config)
        sampled_ref = sample_reference(model, net)
        refs["Ubar"] = sampled_ref.ubar

    traj = train(net, X, y, cfg.train_config(), monitors=True, regret_refs=refs)

    ev = evaluator(dist)
    bayes = {
        "logistic": bayes_risk(dist, ev),
        "zero_one": bayes_zero_one_risk(dist, ev),
    }

    risk = {}
    bound_terms = None
    reference_block = None
    if traj.selected_weights is not None:
        selected = dataclasses.replace(net, weights=traj.selected_weights)
        pop = population_risk(dist, lambda P: forward_batch(selected, cfg.lift(P)), ev)
        risk = pop.breakdown.to_dict()
        risk["logistic_se"] = pop.logistic_se

        if model is not None:
            ref_margins = infinite_forward_batch(model, cfg.lift(ev.points))[0]
            ref_risk = logistic_risk(ref_margins, dist.cond_prob(ev.points), ev.weights)
            kbin = ref_risk - bayes["logistic"]
            # hat-R^(0)(Ubar): the Ubar certificate's first frozen reference
            # risk; a run with a selected iterate took its first step.
            emp_ref_risk = float(traj.certificates["Ubar"].frozen_ref[0])
            bound_terms = compute_bound_terms(
                cfg,
                ref_risk,
                emp_ref_risk=emp_ref_risk,
                kbin=max(kbin, 0.0),
            ).to_dict()
            reference_block = {
                "model": cfg.ref_config,
                "norm_bound": model.norm_bound,
                "population_risk": ref_risk,
                "kbin": kbin,
                "empirical_frozen_risk": emp_ref_risk,
                "ref_dist_from_init": sampled_ref.dist_from_init,
            }

    monitors = traj.monitor_verdicts()
    trajectory_summary = {
        "iterates": len(traj.records),
        "selected_index": traj.selected_index,
        "selected_emp_risk": traj.selected_risk,
        "final_dist_init": traj.records[-1].dist_init if traj.records else None,
        "min_smooth_resid": (
            float(np.nanmin([r.smooth_resid for r in traj.records[:-1]]))
            if len(traj.records) > 1
            else None
        ),
    }
    return ExperimentReport(
        config=cfg,
        root_seed=cfg.seed,
        status=traj.status,
        risk=risk,
        bayes=bayes,
        monitors=monitors,
        bound_terms=bound_terms,
        reference=reference_block,
        trajectory_summary=trajectory_summary,
        provenance={
            **seeds,
            "evaluator": ev.provenance,
            "seed_rule": "SeedSequence((root, k)): k=1 data, k=2 network",
        },
        trajectory=traj,
    )


class CellError(RuntimeError):
    """A sweep run that did not end "ok"; ``status`` is the run's status."""

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


def _cell_config(base: RegimeConfig, axis: str, value) -> RegimeConfig:
    if axis == "eps":
        if base.regime == "consistency":
            raise ValueError("eps axis is not defined for the consistency schedule")
        return derive_regime(
            base.regime, float(value), dist_name=base.dist_name, dist_params=base.dist_params,
            augment_bias=base.augment_bias, seed=base.seed,
        )
    if axis == "n":
        if base.regime == "consistency":
            return derive_consistency(
                value, base.xi, dist_name=base.dist_name, dist_params=base.dist_params,
                augment_bias=base.augment_bias, seed=base.seed,
            )
        return dataclasses.replace(base, n=value)
    if axis == "m":  # uncapped, like the n axis
        cfg = dataclasses.replace(base, m=value)  # checks the width before coupling
        pinned = None if base.regime == "clairvoyant" else base.r_gd
        rho, eta, r_gd = _coupling(base.regime, cfg.m, base.ref_config, r_gd=pinned)
        return dataclasses.replace(cfg, rho=rho, eta=eta, r_gd=r_gd)
    raise ValueError(f"unknown sweep axis {axis!r}; use one of n, m, eps")


def sweep(base: RegimeConfig, axis: str, values, seeds: int, root_seed: int = 0) -> dict:
    """Run a grid of experiments and aggregate per-cell medians/quartiles.

    Cells get disjoint seeds through SeedSequence((root, cell, trial)).
    The result records the base configuration under ``base``.  A run that
    does not end "ok" raises ``CellError``.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("sweep needs at least 2 axis values")
    if check("seeds", seeds, "count") < 5:
        raise ValueError("sweep needs at least 5 seeds per cell")
    configs = [_cell_config(base, axis, value) for value in values]  # all checked before any run
    cells = []
    rows = []
    for ci, (value, cfg) in enumerate(zip(values, configs)):
        metrics = {"excess_logistic": [], "l2_calibration_sq": [], "excess_zero_one": []}
        for trial in range(seeds):
            run_cfg = dataclasses.replace(cfg, seed=derived_seed(root_seed, ci, trial))
            report = run_experiment(run_cfg, with_reference=False)
            if report.status != "ok":
                raise CellError(
                    f"sweep cell {axis}={value} trial {trial}: status {report.status}",
                    report.status,
                )
            for key in metrics:
                metrics[key].append(report.risk[key])
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "trial": trial,
                    "seed": run_cfg.seed,
                    **{k: report.risk[k] for k in metrics},
                }
            )
        cells.append(
            {"value": value, "n": cfg.n, "m": cfg.m, "t": cfg.t, "rho": cfg.rho,
             **{key: spread(vals) for key, vals in metrics.items()}}
        )

    medians = [c["excess_logistic"]["median"] for c in cells]
    steps = np.diff(medians)
    trend = {
        "medians": medians,
        "non_increasing": bool(np.all(steps <= 0)),
        "fraction_non_increasing": float(np.mean(steps <= 0)) if len(steps) else 1.0,
        "final_over_first": float(medians[-1] / medians[0]) if medians[0] else None,
    }
    return json_safe(
        {
            "base": base.to_flat_dict(),
            "axis": axis,
            "values": values,
            "seeds": seeds,
            "root_seed": root_seed,
            "cells": cells,
            "trend": trend,
            "rows": rows,
        }
    )
