"""Infinite-width random-feature reference models.

A model is a constant weight map u(v) = w on R^d, held as the vector w; its
predictor integrates the gradient features over the standard Gaussian
measure,

    f(x; w) = integral <w, x> [v . x >= 0] dN(v),

and is evaluated by Monte Carlo over a seeded feature sample, so risk
comparisons are smooth in x and reproducible.  Since <w, x> does not depend
on v, the estimate at x is <w, x> c/M, where c counts the M sampled
directions active at x.  The sample depends only on the model's seed,
feature count and dimension, so it is drawn and prepared for counting once
and then shared by every call on a model with that key: the widths of a
gap experiment and the runs of one teacher read one sample.  The process
holds the prepared sample of the last key evaluated, and no other.

Given a concrete network, the model also induces a canonical finite-width
reference matrix coupled to the initialization, row-wise

    ubar_j = a_j w / (rho sqrt(m)) + w0_j,

which satisfies rho ||Ubar - W0|| = ||w|| by construction.

Constructing a reference from an arbitrary conditional probability model is
out of scope; constructive teachers (zero, constant, linear, affine-on-
augmented-inputs) are provided instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .distributions import Distribution, PopulationEvaluator, evaluator, population_risk
from .kernel import DenseKernel, Ring
from .metrics import frobenius_norm, pairwise_dot
from .network import Network, augment_batch, freeze_features, frozen_forward_batch

__all__ = [
    "GapResult",
    "InfiniteWidthModel",
    "SampledReference",
    "affine_teacher",
    "gap_experiment",
    "infinite_forward_batch",
    "linear_teacher",
    "model_from_config",
    "sample_reference",
    "zero_model",
]


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass
class InfiniteWidthModel:
    """Constant weight map u(v) = ``vector`` and its Monte Carlo budget."""

    vector: np.ndarray
    mc_features: int = 100_000
    mc_seed: int = 0

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        if self.vector.ndim != 1 or not np.isfinite(self.vector).all():
            raise ValueError(f"reference vector must be finite and 1-d: {self.vector.tolist()}")
        if not _is_int(self.mc_features) or self.mc_features < 2:
            raise ValueError(f"mc_features must be an integer >= 2, got {self.mc_features!r}")
        if not _is_int(self.mc_seed) or self.mc_seed < 0:
            raise ValueError(f"mc_seed must be a nonnegative integer, got {self.mc_seed!r}")

    @property
    def dim(self) -> int:
        return len(self.vector)

    @property
    def norm_bound(self) -> float:
        """sup_v ||u(v)||, which is ||w|| for a constant map."""
        return float(np.linalg.norm(self.vector))

    def weight_map(self, V) -> np.ndarray:
        """u(v) = w at every row of V."""
        return np.broadcast_to(self.vector, np.shape(V)).copy()


def zero_model(dim: int, **kw) -> InfiniteWidthModel:
    return InfiniteWidthModel(np.zeros(dim), **kw)


def linear_teacher(theta, **kw) -> InfiniteWidthModel:
    """Constant map 2*theta, whose induced predictor is x -> <theta, x>.

    A Gaussian direction lands on either side of any hyperplane through the
    origin with probability 1/2, so the integral halves the inner product.
    """
    return InfiniteWidthModel(2.0 * np.asarray(theta, dtype=float), **kw)


def affine_teacher(theta, bias: float, **kw) -> InfiniteWidthModel:
    """Teacher on bias-augmented inputs (x, 1)/sqrt(2) in R^(d+1) whose
    induced predictor is x -> <theta, x> + bias."""
    theta = np.asarray(theta, dtype=float)
    return InfiniteWidthModel(2.0 * np.sqrt(2.0) * np.concatenate([theta, [bias]]), **kw)


def model_from_config(cfg: dict) -> InfiniteWidthModel:
    """Build a built-in model from a config dict, e.g.
    {"kind": "constant", "vector": [...]}.  A missing field is a ValueError."""
    kind = cfg.get("kind")
    extra = {k: cfg[k] for k in ("mc_features", "mc_seed") if k in cfg}
    try:
        if kind == "zero":
            return zero_model(int(cfg["dim"]), **extra)
        if kind == "constant":
            return InfiniteWidthModel(cfg["vector"], **extra)
        if kind == "linear-teacher":
            return linear_teacher(cfg["theta"], **extra)
        if kind == "affine-teacher":
            return affine_teacher(cfg["theta"], float(cfg["bias"]), **extra)
    except KeyError as exc:
        raise ValueError(f"reference model {kind!r} needs field {exc.args[0]!r}") from None
    raise ValueError(f"unknown reference model kind {kind!r}")


def _mc_directions(model: InfiniteWidthModel) -> np.ndarray:
    return np.random.default_rng(model.mc_seed).standard_normal(
        (model.mc_features, model.dim)
    )


# The prepared sample of the last (mc_seed, mc_features, dim) evaluated;
# the vector only scales <w, x>, so it is not part of the key.
_held_sample: dict[tuple, Ring | np.ndarray] = {}


def _feature_sample(model: InfiniteWidthModel) -> Ring | np.ndarray:
    """The model's directions, drawn once per key and held read-only: as a
    ``Ring`` for dimension at most 2, else as the array.  A new key drops
    the held sample before drawing its own."""
    key = (model.mc_seed, model.mc_features, model.dim)
    sample = _held_sample.get(key)
    if sample is None:
        _held_sample.clear()
        dirs = _mc_directions(model)
        dirs.flags.writeable = False
        sample = _held_sample[key] = Ring(dirs) if model.dim <= 2 else dirs
    return sample


def _active_count(sample: Ring | np.ndarray, X: np.ndarray) -> np.ndarray:
    """Number of the held sample's directions active at each row of X, as
    integers.  Over a ring it is each point's arc length plus the zero
    directions, otherwise the dense ``mask_sum`` of a ones column.  Both
    raise ``ValueError`` at a point with a NaN or infinite coordinate."""
    if isinstance(sample, Ring):
        lo, hi = sample.arcs(X)
        return hi - lo + len(sample.zero)
    ones = np.ones((len(sample), 1))
    return DenseKernel(sample, ones[:, 0], 1.0, X).mask_sum(ones)[:, 0].astype(np.intp)


def infinite_forward_batch(
    model: InfiniteWidthModel, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of f(x; w) with per-point standard errors.

    The feature sample is drawn from the model's seed and shared by all
    rows of X and by later calls with the same seed, feature count and
    dimension, which count over it without drawing or sorting it again.
    Each direction contributes <w, x> or 0 at x, so the estimate is
    <w, x> c/M and the second moment <w, x>^2 c/M, where c is the number of
    directions active at x, from ``_active_count``, which rejects a point
    with a NaN or infinite coordinate.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"X must have shape (n, {model.dim})")
    M = model.mc_features
    count = _active_count(_feature_sample(model), X)
    lin = X @ model.vector
    est = lin * count / M
    var = np.maximum(lin**2 * count / M - est**2, 0.0) / (M - 1)
    return est, np.sqrt(var)


@dataclass
class SampledReference:
    """Finite-width reference matrix coupled to a network's initialization."""

    ubar: np.ndarray
    dist_from_init: float


def sample_reference(model: InfiniteWidthModel, net: Network) -> SampledReference:
    """Rows ubar_j = a_j w / (rho sqrt(m)) + w0_j."""
    if model.dim != net.d:
        raise ValueError(f"model dim {model.dim} != network dim {net.d}")
    offset = net.signs[:, None] * model.vector / (net.rho * np.sqrt(net.m))
    # The bound is checked on the offset itself: Ubar - W0 recomputed by
    # subtraction cancels when the offset is tiny against W0 (large rho).
    if net.rho * frobenius_norm(offset) > model.norm_bound * (1 + 1e-9) + 1e-12:
        raise AssertionError(
            "sampled reference violates rho * ||Ubar - W0|| <= norm bound"
        )
    ubar = offset + net.init_weights
    return SampledReference(
        ubar=ubar, dist_from_init=frobenius_norm(ubar - net.init_weights)
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
        return asdict(self)


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
    ev = ev or evaluator(dist)
    points = augment_batch(ev.points) if augment_inputs else ev.points

    def risk(margins):
        return population_risk(dist, lambda _: margins, ev).breakdown.logistic_risk

    ref = sample_reference(model, net)
    frozen_risk = risk(frozen_forward_batch(freeze_features(net, at_init=True), ref.ubar, points))

    inf_margins, inf_se = infinite_forward_batch(model, points)
    infinite_risk = risk(inf_margins)
    risk_se = pairwise_dot(ev.weights, inf_se)

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
