"""Synthetic joint distributions with known conditional probabilities.

Every distribution bundles a marginal sampler over the unit ball and an
exact conditional probability function x -> P(Y = +1 | X = x).  A 1-d task
is uniform on its ``support``, and population risks over it are composite
Gauss-Legendre quadrature (deterministic, with a panel edge at every cut of
p); the other tasks are evaluated by seeded Monte Carlo.

Population quantities are always computed against the true conditional
model, never estimated from sampled labels.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import (
    RiskBreakdown,
    binary_entropy,
    expected_logistic_loss,
    pairwise_dot,
    risk_breakdown,
    sigmoid,
)

__all__ = [
    "Distribution",
    "LabeledSample",
    "PopulationEvaluator",
    "PopulationRisk",
    "bayes_risk",
    "bayes_zero_one_risk",
    "builtin_distributions",
    "derived_seed",
    "evaluator",
    "gauss_legendre",
    "make_distribution",
    "population_risk",
    "sample",
]

_NORM_SLACK = 1e-12

# The 16-point Gauss-Legendre rule on [-1, 1], shared by the 1-d evaluator
# and the exact zero-one integral; the evaluator's panel count before the
# cuts split them; the size and seed of the Monte Carlo evaluator's points.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_QUAD_PANELS = 32
_MC_EVAL_N = 1 << 14
_MC_EVAL_SEED = 2024


def derived_seed(root: int, *path: int) -> int:
    """Documented seed-splitting rule: SeedSequence((root, *path))."""
    return int(np.random.SeedSequence((root,) + path).generate_state(1)[0])


@dataclass
class LabeledSample:
    points: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class PopulationEvaluator:
    """Weighted point set representing the marginal for risk integrals."""

    points: np.ndarray
    weights: np.ndarray
    provenance: dict

    def __post_init__(self):
        if np.any(self.weights < 0):
            raise ValueError("evaluator weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > _NORM_SLACK:
            raise ValueError("evaluator weights must sum to 1")


@dataclass
class PopulationRisk:
    breakdown: RiskBreakdown
    logistic_se: float | None


@dataclass
class Distribution:
    """Marginal sampler plus exact conditional probability model.

    A 1-d distribution is uniform on ``support``, which gives its density
    ``pdf`` and its CDF.  It also carries its ``cuts``, the abscissas where
    the conditional probability is discontinuous or crosses 1/2, and
    optionally an interval on which p is bounded away from {0, 1/2, 1}
    (used by the interpolation experiments).  A distribution without a
    support is evaluated by Monte Carlo.
    """

    name: str
    dim: int
    sample_x: Callable[[np.random.Generator, int], np.ndarray]
    cond_prob_raw: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None
    cuts: tuple[float, ...] = ()
    wrong_pair_interval: tuple[float, float] | None = None

    def cond_prob(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.clip(self.cond_prob_raw(X), 0.0, 1.0)

    @property
    def pdf(self) -> float:
        """Density of the uniform marginal on ``support``."""
        lo, hi = self.support
        return 1.0 / (hi - lo)

    def cdf(self, x) -> np.ndarray:
        """CDF of the uniform marginal on ``support``."""
        lo, hi = self.support
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)


def sample(dist: Distribution, n: int, seed: int) -> LabeledSample:
    """n iid draws; labels are +1 with probability cond_prob(x)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    X = dist.sample_x(rng, n)
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms > 1 + _NORM_SLACK):
        raise AssertionError("marginal sampler produced a point outside the unit ball")
    p = dist.cond_prob(X)
    y = np.where(rng.uniform(size=n) < p, 1.0, -1.0)
    return LabeledSample(points=X, labels=y)


def gauss_legendre(a: np.ndarray, b: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The 16-point rule on each piece [a_i, b_i]: the (k, 16) nodes, written
    into ``out`` when given, and the k half-widths; the weights on piece i
    are ``half_i * _GL_WEIGHTS``."""
    half = (b - a) / 2.0
    nodes = np.multiply(half[:, None], _GL_NODES, out=out)
    nodes += ((a + b) / 2.0)[:, None]
    return nodes, half


def evaluator(dist: Distribution) -> PopulationEvaluator:
    """Seeded Monte Carlo for a task without a support.  A 1-d task gets
    the 16-point rule on equal panels of its support, split at every cut."""
    if dist.support is None:
        return PopulationEvaluator(
            points=dist.sample_x(np.random.default_rng(_MC_EVAL_SEED), _MC_EVAL_N),
            weights=np.full(_MC_EVAL_N, 1.0 / _MC_EVAL_N),
            provenance={"scheme": "mc", "points": _MC_EVAL_N, "seed": _MC_EVAL_SEED},
        )
    lo, hi = dist.support
    interior = [c for c in dist.cuts if lo < c < hi]
    edges = np.unique(np.concatenate([np.linspace(lo, hi, _QUAD_PANELS + 1), interior]))
    nodes, half = gauss_legendre(edges[:-1], edges[1:])
    return PopulationEvaluator(
        points=nodes.reshape(-1, 1),
        weights=(half[:, None] * _GL_WEIGHTS * dist.pdf).reshape(-1),
        provenance={"scheme": "quadrature", "nodes": nodes.size},
    )


def population_risk(
    dist: Distribution,
    predictor: Callable[[np.ndarray], np.ndarray],
    ev: PopulationEvaluator | None = None,
) -> PopulationRisk:
    """Population risk decomposition of a margin predictor.

    The predictor maps an (n, d) array of points to n margins.  Monte Carlo
    evaluators additionally report the standard error of the logistic risk.
    """
    ev = ev or evaluator(dist)
    margins = np.asarray(predictor(ev.points), dtype=float)
    p = dist.cond_prob(ev.points)
    breakdown = risk_breakdown(margins, p, ev.weights)
    se = None
    if ev.provenance.get("scheme") == "mc":
        losses = expected_logistic_loss(margins, p)
        se = float(np.std(losses, ddof=1) / np.sqrt(len(losses)))
    return PopulationRisk(breakdown=breakdown, logistic_se=se)


def bayes_risk(dist: Distribution, ev: PopulationEvaluator | None = None) -> float:
    """Optimal population logistic risk: the integrated binary entropy of p_y."""
    ev = ev or evaluator(dist)
    return pairwise_dot(ev.weights, binary_entropy(dist.cond_prob(ev.points)))


def bayes_zero_one_risk(dist: Distribution, ev: PopulationEvaluator | None = None) -> float:
    ev = ev or evaluator(dist)
    p = dist.cond_prob(ev.points)
    return pairwise_dot(ev.weights, np.minimum(p, 1 - p))


def _uniform_1d(lo: float, hi: float):
    if not (-1 - _NORM_SLACK <= lo < hi <= 1 + _NORM_SLACK):
        raise ValueError("1-d support must sit inside [-1, 1]")

    def sample_x(rng, n):
        return rng.uniform(lo, hi, size=(n, 1))

    return sample_x


def logistic_1d(c: float = 2.0, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Uniform marginal with smooth logistic conditional p(x) = sigmoid(c x).

    Realizable by a linear-in-feature teacher, so this is the canonical
    easy task.  The Bayes predictor is x -> c x.
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    interval = None
    if c > 0:
        interval = (max(lo, hi / 4.0), hi)
    elif c < 0:
        interval = (lo, min(hi, lo / 4.0))
    return Distribution(
        name=f"logistic-1d(c={c})",
        dim=1,
        sample_x=_uniform_1d(lo, hi),
        cond_prob_raw=lambda X: sigmoid(c * X[:, 0]),
        support=(lo, hi),
        cuts=(0.0,) if c != 0 else (),
        wrong_pair_interval=interval,
    )


def step_1d(lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Uniform marginal with discontinuous conditional 0.3 + 0.4 [x > 0]."""
    return Distribution(
        name="step-1d",
        dim=1,
        sample_x=_uniform_1d(lo, hi),
        cond_prob_raw=lambda X: 0.3 + 0.4 * (X[:, 0] > 0),
        support=(lo, hi),
        cuts=(0.0,),
    )


def step_smooth_1d(width: float = 0.1, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Smoothed step: p(x) = 0.3 + 0.4 sigmoid(x / width).

    Continuous with range (0.3, 0.7); the declared interval keeps p away
    from {0, 1/2, 1} by at least 0.19.
    """
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be finite and positive, got {width!r}")
    interval = (min(5 * width, hi / 2.0), hi)
    return Distribution(
        name=f"step-smooth-1d(width={width})",
        dim=1,
        sample_x=_uniform_1d(lo, hi),
        cond_prob_raw=lambda X: 0.3 + 0.4 * sigmoid(X[:, 0] / width),
        support=(lo, hi),
        cuts=(0.0,),
        wrong_pair_interval=interval,
    )


def constant_1d(p: float = 0.75, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Pure label noise: p_y identically p on a uniform 1-d marginal."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    interval = (lo, hi) if p not in (0.0, 0.5, 1.0) else None
    return Distribution(
        name=f"constant-1d(p={p})",
        dim=1,
        sample_x=_uniform_1d(lo, hi),
        cond_prob_raw=lambda X: np.full(X.shape[0], p),
        support=(lo, hi),
        wrong_pair_interval=interval,
    )


def sphere_cap_teacher(d: int = 4, c: float = 4.0) -> Distribution:
    """Uniform on the hemisphere cap {x in S^(d-1): x_1 >= 0} with a
    logistic teacher p(x) = sigmoid(c x_1).  Monte Carlo evaluation."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"sphere cap marginal requires an integer d >= 2, got {d!r}")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")

    def sample_x(rng, n):
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g[:, 0] = np.abs(g[:, 0])
        return g

    return Distribution(
        name=f"sphere-cap-teacher(d={d},c={c})",
        dim=d,
        sample_x=sample_x,
        cond_prob_raw=lambda X: sigmoid(c * X[:, 0]),
    )


_CATALOG = {
    "logistic-1d": logistic_1d,
    "step-1d": step_1d,
    "step-smooth-1d": step_smooth_1d,
    "constant-1d": constant_1d,
    "sphere-cap-teacher": sphere_cap_teacher,
}


def builtin_distributions() -> dict:
    """Name -> factory for every built-in distribution."""
    return dict(_CATALOG)


def make_distribution(name: str, **params) -> Distribution:
    if name not in _CATALOG:
        raise ValueError(f"unknown distribution {name!r}; have {sorted(_CATALOG)}")
    factory = _CATALOG[name]
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(map(repr, unknown))}")
    return factory(**params)
