"""Infinite-width random-feature reference models.

A model is a deterministic weight map u: R^d -> R^d with bounded output
norm; its predictor integrates the gradient features over the standard
Gaussian measure,

    f(x; u) = integral <u(v), x> [v . x >= 0] dN(v),

and is evaluated by Monte Carlo over a seeded feature sample that is shared
across all evaluation points of one call, so risk comparisons are smooth
in x and reproducible.

Given a concrete network, the model also induces a canonical finite-width
reference matrix coupled to the initialization, row-wise

    ubar_j = a_j u(w0_j) / (rho sqrt(m)) + w0_j,

which satisfies ||Ubar - W0|| <= sup_v ||u(v)|| / rho by construction.

Constructing a weight map from an arbitrary conditional probability model is
out of scope; constructive teachers (zero, constant, linear, affine-on-
augmented-inputs) are provided instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Distribution, PopulationEvaluator, evaluator
from .kernel import kernel
from .metrics import expected_logistic_loss
from .network import Network, freeze_features, frozen_forward_batch

__all__ = [
    "GapResult",
    "InfiniteWidthModel",
    "SampledReference",
    "affine_teacher",
    "constant_model",
    "gap_experiment",
    "infinite_forward_batch",
    "linear_teacher",
    "model_from_config",
    "sample_reference",
    "zero_model",
]

_NORM_CHECK_DRAWS = 10_000


@dataclass
class InfiniteWidthModel:
    """Weight map with certified norm bound and Monte Carlo evaluation budget."""

    weight_map: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    dim: int
    mc_features: int = 100_000
    mc_seed: int = 0

    def __post_init__(self):
        if self.norm_bound < 0:
            raise ValueError("norm bound must be nonnegative")
        if self.mc_features < 2:
            raise ValueError("need at least 2 Monte Carlo features")
        rng = np.random.default_rng(12345)
        draws = rng.standard_normal((_NORM_CHECK_DRAWS, self.dim))
        out = np.asarray(self.weight_map(draws), dtype=float)
        if out.shape != draws.shape:
            raise ValueError("weight map must send (k, d) arrays to (k, d) arrays")
        worst = float(np.linalg.norm(out, axis=1).max())
        if worst > self.norm_bound * (1 + 1e-12) + 1e-12:
            raise ValueError(
                f"weight map norm {worst} exceeds declared bound {self.norm_bound}"
            )


def zero_model(dim: int, **kw) -> InfiniteWidthModel:
    return InfiniteWidthModel(
        weight_map=lambda V: np.zeros_like(V), norm_bound=0.0, dim=dim, **kw
    )


def constant_model(vector, **kw) -> InfiniteWidthModel:
    w = np.asarray(vector, dtype=float)
    return InfiniteWidthModel(
        weight_map=lambda V: np.broadcast_to(w, V.shape).copy(),
        norm_bound=float(np.linalg.norm(w)),
        dim=len(w),
        **kw,
    )


def linear_teacher(theta, **kw) -> InfiniteWidthModel:
    """Constant map 2*theta, whose induced predictor is x -> <theta, x>.

    A Gaussian direction lands on either side of any hyperplane through the
    origin with probability 1/2, so the integral halves the inner product.
    """
    return constant_model(2.0 * np.asarray(theta, dtype=float), **kw)


def affine_teacher(theta, bias: float, **kw) -> InfiniteWidthModel:
    """Teacher on bias-augmented inputs (x, 1)/sqrt(2) in R^(d+1) whose
    induced predictor is x -> <theta, x> + bias."""
    theta = np.asarray(theta, dtype=float)
    w = 2.0 * np.sqrt(2.0) * np.concatenate([theta, [bias]])
    return constant_model(w, **kw)


def model_from_config(cfg: dict) -> InfiniteWidthModel:
    """Build a built-in model from a config dict, e.g.
    {"kind": "constant", "vector": [...]}."""
    kind = cfg.get("kind")
    extra = {k: cfg[k] for k in ("mc_features", "mc_seed") if k in cfg}
    if kind == "zero":
        return zero_model(int(cfg["dim"]), **extra)
    if kind == "constant":
        return constant_model(cfg["vector"], **extra)
    if kind == "linear-teacher":
        return linear_teacher(cfg["theta"], **extra)
    if kind == "affine-teacher":
        return affine_teacher(cfg["theta"], float(cfg["bias"]), **extra)
    raise ValueError(f"unknown reference model kind {kind!r}")


def _mc_directions(model: InfiniteWidthModel) -> np.ndarray:
    return np.random.default_rng(model.mc_seed).standard_normal(
        (model.mc_features, model.dim)
    )


def infinite_forward_batch(
    model: InfiniteWidthModel, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of f(x; u) with per-point standard errors.

    The feature sample is drawn once from the model's seed and shared by
    all rows of X; the directions are the kernel's sources, with scale 1/M.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"X must have shape (n, {model.dim})")
    M = model.mc_features
    dirs = _mc_directions(model)
    A = np.asarray(model.weight_map(dirs), dtype=float)
    est, second = kernel(dirs, np.ones(M), 1.0 / M, X).moments(A)
    var = np.maximum(second - est**2, 0.0) / (M - 1)
    return est, np.sqrt(var)


@dataclass
class SampledReference:
    """Finite-width reference matrix coupled to a network's initialization."""

    ubar: np.ndarray
    dist_from_init: float


def sample_reference(model: InfiniteWidthModel, net: Network) -> SampledReference:
    """Rows ubar_j = a_j u(w0_j) / (rho sqrt(m)) + w0_j."""
    if model.dim != net.d:
        raise ValueError(f"model dim {model.dim} != network dim {net.d}")
    mapped = np.asarray(model.weight_map(net.init_weights), dtype=float)
    offset = net.signs[:, None] * mapped / (net.rho * np.sqrt(net.m))
    # The bound is checked on the offset itself: Ubar - W0 recomputed by
    # subtraction cancels when the offset is tiny against W0 (large rho).
    if net.rho * np.linalg.norm(offset) > model.norm_bound * (1 + 1e-9) + 1e-12:
        raise AssertionError(
            "sampled reference violates rho * ||Ubar - W0|| <= norm bound"
        )
    ubar = offset + net.init_weights
    return SampledReference(
        ubar=ubar, dist_from_init=float(np.linalg.norm(ubar - net.init_weights))
    )


@dataclass
class GapResult:
    m: int
    rho: float
    frozen_risk: float
    infinite_risk: float
    gap: float
    se: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "rho": self.rho,
            "frozen_risk": self.frozen_risk,
            "infinite_risk": self.infinite_risk,
            "gap": self.gap,
            "se": self.se,
        }


def gap_experiment(
    model: InfiniteWidthModel,
    net: Network,
    dist: Distribution,
    ev: PopulationEvaluator | None = None,
    augment_inputs: bool = False,
) -> GapResult:
    """Multiplicative gap between the frozen-feature risk of the sampled
    reference and the Monte Carlo risk of the infinite-width model.

    Both population logistic risks are evaluated on the same weighted point
    set (bias-augmented first when ``augment_inputs`` is set); the reported
    se is a conservative propagation of the per-point Monte Carlo feature
    noise through the 1-Lipschitz loss.
    """
    from .network import augment_batch

    ev = ev or evaluator(dist)
    p = dist.cond_prob(ev.points)
    w = ev.weights
    points = augment_batch(ev.points) if augment_inputs else ev.points

    ref = sample_reference(model, net)
    ff = freeze_features(net, at_init=True)
    frozen_margins = frozen_forward_batch(ff, ref.ubar, points)
    frozen_risk = float(w @ expected_logistic_loss(frozen_margins, p))

    inf_margins, inf_se = infinite_forward_batch(model, points)
    infinite_risk = float(w @ expected_logistic_loss(inf_margins, p))
    risk_se = float(w @ inf_se)

    if frozen_risk <= 0 or infinite_risk <= 0:
        raise ValueError("degenerate (zero) risk in gap experiment")
    gap = max(frozen_risk / infinite_risk, infinite_risk / frozen_risk)
    return GapResult(
        m=net.m,
        rho=net.rho,
        frozen_risk=frozen_risk,
        infinite_risk=infinite_risk,
        gap=gap,
        se=risk_se,
    )
