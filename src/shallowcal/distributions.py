"""Synthetic tasks with known conditional probabilities.

A task is declared once, in its factory: a marginal over the unit ball,
p(x) = P(Y = +1 | X = x) and the teacher its reference realizes.  A 1-d
task is uniform on its ``support``, and population risks over it are
composite Gauss-Legendre quadrature (deterministic, with a panel edge at
every cut of p); the other tasks are evaluated by seeded Monte Carlo.

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
    check,
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
# cuts split them; the size and seed of the Monte Carlo evaluator's points;
# the number of points ``sample`` labels at a time.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_QUAD_PANELS = 32
_MC_EVAL_N = 1 << 14
_MC_EVAL_SEED = 2024
_SAMPLE_BLOCK = 1 << 15


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
    """A task: a marginal, its exact conditional probability and its teacher.

    ``cond_prob`` maps an (n, dim) array of points to p; ``teacher`` is
    (theta, bias), the reference's logit x -> <theta, x> + bias, or None.  A
    1-d task is uniform on ``support`` (``pdf``, ``cdf``) and lists its
    ``cuts``, where p jumps or crosses 1/2, and optionally an interval on
    which p is bounded away from {0, 1/2, 1} (for the interpolation
    experiments).  A task without a support draws from ``sample_x`` and is
    evaluated by Monte Carlo.
    """

    name: str
    cond_prob: Callable[[np.ndarray], np.ndarray]
    teacher: tuple[tuple[float, ...], float] | None = None
    dim: int = 1
    support: tuple[float, float] | None = None
    sample_x: Callable[[np.random.Generator, int], np.ndarray] | None = None
    cuts: tuple[float, ...] = ()
    wrong_pair_interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.support is not None:
            lo, hi = self.support
            if not -1 - _NORM_SLACK <= lo < hi <= 1 + _NORM_SLACK:
                raise ValueError("1-d support must sit inside [-1, 1]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points of the marginal: uniform on ``support``, else ``sample_x``."""
        if self.support is None:
            return self.sample_x(rng, n)
        return rng.uniform(*self.support, size=(n, 1))

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
    """n iid draws; labels are +1 with probability cond_prob(x).

    X is drawn in one call; the norm check and the label uniforms then go
    ``_SAMPLE_BLOCK`` points at a time, so no other n-long temporary is
    made.  PCG64 gives the uniforms of consecutive blocks as one stream, so
    the labels do not depend on the block size.
    """
    check("n", n, "count")
    rng = np.random.default_rng(seed)
    X = dist.draw(rng, n)
    y = np.empty(n)
    for start in range(0, n, _SAMPLE_BLOCK):
        blk = slice(start, start + _SAMPLE_BLOCK)
        if np.any(np.linalg.norm(X[blk], axis=1) > 1 + _NORM_SLACK):
            raise AssertionError("marginal sampler produced a point outside the unit ball")
        p = dist.cond_prob(X[blk])
        y[blk] = np.where(rng.uniform(size=len(p)) < p, 1.0, -1.0)
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
            points=dist.draw(np.random.default_rng(_MC_EVAL_SEED), _MC_EVAL_N),
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


def bayes_risk(dist: Distribution, ev: PopulationEvaluator) -> float:
    """Optimal population logistic risk: the integrated binary entropy of p_y."""
    return pairwise_dot(ev.weights, binary_entropy(dist.cond_prob(ev.points)))


def bayes_zero_one_risk(dist: Distribution, ev: PopulationEvaluator) -> float:
    p = dist.cond_prob(ev.points)
    return pairwise_dot(ev.weights, np.minimum(p, 1 - p))


def logistic_1d(c: float = 2.0, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Uniform marginal with smooth logistic conditional p(x) = sigmoid(c x).

    Realized by its teacher x -> c x, the Bayes predictor, so this is the
    canonical easy task.
    """
    check("c", c, "finite")
    interval = None
    if c > 0:
        interval = (max(lo, hi / 4.0), hi)
    elif c < 0:
        interval = (lo, min(hi, lo / 4.0))
    return Distribution(
        name=f"logistic-1d(c={c})",
        cond_prob=lambda X: sigmoid(c * X[:, 0]),
        teacher=((float(c),), 0.0),
        support=(lo, hi),
        cuts=(0.0,) if c != 0 else (),
        wrong_pair_interval=interval,
    )


def step_1d(lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Uniform marginal with discontinuous conditional 0.3 + 0.4 [x > 0]."""
    return Distribution(
        name="step-1d",
        cond_prob=lambda X: 0.3 + 0.4 * (X[:, 0] > 0),
        teacher=((4.0,), 0.0),
        support=(lo, hi),
        cuts=(0.0,),
    )


def step_smooth_1d(width: float = 0.1, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Smoothed step: p(x) = 0.3 + 0.4 sigmoid(x / width).

    Continuous with range (0.3, 0.7); the declared interval keeps p away
    from {0, 1/2, 1} by at least 0.19.
    """
    check("width", width, "positive")
    interval = (min(5 * width, hi / 2.0), hi)
    return Distribution(
        name=f"step-smooth-1d(width={width})",
        cond_prob=lambda X: 0.3 + 0.4 * sigmoid(X[:, 0] / width),
        teacher=((0.4 / float(width),), 0.0),  # the logit slope of p at 0
        support=(lo, hi),
        cuts=(0.0,),
        wrong_pair_interval=interval,
    )


def constant_1d(p: float = 0.75, lo: float = -1.0, hi: float = 1.0) -> Distribution:
    """Pure label noise: p_y identically p on a uniform 1-d marginal."""
    check("p", p, "probability")
    interval = (lo, hi) if p not in (0.0, 0.5, 1.0) else None
    q = min(max(float(p), 1e-6), 1 - 1e-6)
    return Distribution(
        name=f"constant-1d(p={p})",
        cond_prob=lambda X: np.full(X.shape[0], float(p)),
        teacher=((0.0,), math.log(q / (1 - q))),
        support=(lo, hi),
        wrong_pair_interval=interval,
    )


def sphere_cap_teacher(d: int = 4, c: float = 4.0) -> Distribution:
    """Uniform on the hemisphere cap {x in S^(d-1): x_1 >= 0} with a
    logistic teacher p(x) = sigmoid(c x_1).  Monte Carlo evaluation."""
    check("d", d, "pair")
    check("c", c, "finite")

    def sample_x(rng, n):
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g[:, 0] = np.abs(g[:, 0])
        return g

    return Distribution(
        name=f"sphere-cap-teacher(d={d},c={c})",
        cond_prob=lambda X: sigmoid(c * X[:, 0]),
        dim=d,
        sample_x=sample_x,
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
    if not isinstance(name, str) or name not in _CATALOG:
        raise ValueError(f"unknown distribution {name!r}; have {sorted(_CATALOG)}")
    factory = _CATALOG[name]
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(map(repr, unknown))}")
    for key, value in params.items():
        check(f"{name} parameter {key!r}", value, "number")
    return factory(**params)
