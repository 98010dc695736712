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
gap experiment and the runs of one teacher read one sample.  The count c
depends only on the sample and the points, so the held sample also keeps
the last point set it counted and its count, which a later call under the
key on the same points reuses: the widths of a gap experiment count their
evaluator points once.  The process holds the prepared sample of the last
key evaluated, with its count, and no other.

Given a concrete network, the model also induces a canonical finite-width
reference matrix coupled to the initialization, row-wise

    ubar_j = a_j w / (rho sqrt(m)) + w0_j,

which satisfies rho ||Ubar - W0|| = ||w|| by construction.

Constructing a reference from an arbitrary conditional probability model is
out of scope; constructive teachers (zero, constant, linear, affine-on-
augmented-inputs) are provided instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import Distribution, PopulationEvaluator
from .kernel import DenseKernel, Ring
from .metrics import check, check_fields, frobenius_norm, logistic_risk, pairwise_dot, rule
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


@dataclass
class InfiniteWidthModel:
    """Constant weight map u(v) = ``vector`` and its Monte Carlo budget."""

    vector: np.ndarray
    mc_features: int = rule("pair", default=100_000)
    mc_seed: int = rule("seed", default=0)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        if self.vector.ndim != 1 or not np.isfinite(self.vector).all():
            raise ValueError(f"reference vector must be finite and 1-d: {self.vector.tolist()}")
        check_fields(self)

    @property
    def dim(self) -> int:
        return len(self.vector)

    @property
    def norm_bound(self) -> float:
        """sup_v ||u(v)||, which is ||w|| for a constant map.  Where ||w||^2
        overflows, ``frobenius_norm`` scales w by max |w_i| first, so the
        norm is finite whenever it is representable."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.vector))
        return frobenius_norm(self.vector) if math.isinf(norm) else norm

    def weight_map(self, V) -> np.ndarray:
        """u(v) = w at every row of V."""
        return np.broadcast_to(self.vector, np.shape(V)).copy()


def zero_model(dim: int, **kw) -> InfiniteWidthModel:
    return InfiniteWidthModel(np.zeros(check("dim", dim, "count")), **kw)


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


# The fields each kind reads, with their rules, and the builder it passes them
# to; every kind also reads "kind" and the Monte Carlo budget, "mc_features"
# and "mc_seed".
_KINDS = {
    "zero": ({"dim": "count"}, zero_model),
    "constant": ({"vector": "numbers"}, InfiniteWidthModel),
    "linear-teacher": ({"theta": "numbers"}, linear_teacher),
    "affine-teacher": ({"theta": "numbers", "bias": "number"}, affine_teacher),
}


def model_from_config(cfg: dict) -> InfiniteWidthModel:
    """Build a built-in model from a config dict, e.g.
    {"kind": "constant", "vector": [...]}.  An unknown kind, a field the
    kind does not read, a missing field, or one its rule refuses (a
    string, a bool, an empty list, a ``dim`` below 1) is a ValueError."""
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown reference model kind {kind!r}")
    rules, build = _KINDS[kind]
    unread = sorted(set(cfg) - {"kind", "mc_features", "mc_seed", *rules})
    if unread:
        raise ValueError(f"reference model {kind!r} does not read {', '.join(map(repr, unread))}")
    for name in rules:
        if name not in cfg:
            raise ValueError(f"reference model {kind!r} needs field {name!r}")
    extra = {k: cfg[k] for k in ("mc_features", "mc_seed") if k in cfg}
    args = [check(f"reference field {name!r}", cfg[name], kind) for name, kind in rules.items()]
    return build(*args, **extra)


def _mc_directions(model: InfiniteWidthModel) -> np.ndarray:
    return np.random.default_rng(model.mc_seed).standard_normal(
        (model.mc_features, model.dim)
    )


@dataclass
class _HeldSample:
    """The prepared directions of one key, read-only, and the last point set
    counted over them, as its bytes, with its read-only count."""

    directions: Ring | np.ndarray
    points: bytes | None = None
    count: np.ndarray | None = None


# The held sample of the last (mc_seed, mc_features, dim) evaluated; the
# vector only scales <w, x>, so it is not part of the key.
_held_sample: dict[tuple, _HeldSample] = {}


def _feature_sample(model: InfiniteWidthModel) -> _HeldSample:
    """The model's held sample, its directions drawn once per key and held
    read-only: as a ``Ring`` for dimension at most 2, else as the array.  A
    new key drops the held sample, its last count with it, before drawing
    its own."""
    key = (model.mc_seed, model.mc_features, model.dim)
    held = _held_sample.get(key)
    if held is None:
        _held_sample.clear()
        dirs = _mc_directions(model)
        dirs.flags.writeable = False
        held = _held_sample[key] = _HeldSample(Ring(dirs) if model.dim <= 2 else dirs)
    return held


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
    with a NaN or infinite coordinate.  The held sample keeps the last
    point set it counted and its count, so a later call under the same key
    on a bitwise equal X, from a model with any vector, reuses c.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"X must have shape (n, {model.dim})")
    M = model.mc_features
    held = _feature_sample(model)
    points = X.tobytes()
    if points != held.points:
        count = _active_count(held.directions, X)
        count.flags.writeable = False
        held.points, held.count = points, count
    count = held.count
    lin = X @ model.vector
    est = lin * count / M
    with np.errstate(over="ignore", invalid="ignore"):
        se = np.sqrt(np.maximum(lin**2 * count / M - est**2, 0.0) / (M - 1))
    # Where lin^2 overflows, the same variance lin^2 q (1 - q) / (M - 1),
    # q = c/M, is taken with |lin| outside the square root.
    if not np.isfinite(se).all():
        lost = ~np.isfinite(se) & np.isfinite(est)
        q = count[lost] / M
        se[lost] = np.abs(lin[lost]) * np.sqrt(np.maximum(q - q * q, 0.0) / (M - 1))
    return est, se


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
    ev: PopulationEvaluator,
    augment_inputs: bool = False,
) -> GapResult:
    """Multiplicative gap between the frozen-feature risk of the sampled
    reference and the Monte Carlo risk of the infinite-width model.

    Both population logistic risks are evaluated on the points and weights
    of ``ev`` (the points bias-augmented first when ``augment_inputs`` is
    set); the reported se is a conservative propagation of the per-point
    Monte Carlo feature noise through the 1-Lipschitz loss.
    """
    points = augment_batch(ev.points) if augment_inputs else ev.points
    p = dist.cond_prob(ev.points)

    ref = sample_reference(model, net)
    frozen_margins = frozen_forward_batch(freeze_features(net, at_init=True), ref.ubar, points)
    frozen_risk = logistic_risk(frozen_margins, p, ev.weights)

    inf_margins, inf_se = infinite_forward_batch(model, points)
    infinite_risk = logistic_risk(inf_margins, p, ev.weights)
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
