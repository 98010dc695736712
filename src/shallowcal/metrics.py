"""Scalar loss identities for binary classification with the logistic loss.

Everything downstream leans on a small set of exact relationships:

* logistic loss      loss(r) = ln(1 + exp(-r))
* sigmoid            sigmoid(r) = 1 / (1 + exp(-r))
* binary KL          kl(p, q) = p ln(p/q) + (1-p) ln((1-p)/(1-q))
* multiplicative     loss(-a) / loss(-b) <= exp(a - b)  whenever a >= b
* error chain        0.5 * (excess zero-one)^2
                       <= 2 * integral (sigmoid(f) - p)^2
                       <= binary KL aggregate
                       == excess logistic risk

The chain is exact for discrete weighted point sets, which is how every
population and empirical risk in this package is ultimately represented.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

__all__ = [
    "LOG2",
    "RULES",
    "RiskBreakdown",
    "binary_entropy",
    "binary_kl",
    "check",
    "check_fields",
    "expected_logistic_loss",
    "frobenius_norm",
    "is_int",
    "is_number",
    "logistic_loss",
    "logistic_loss_derivative",
    "logistic_risk",
    "pairwise_dot",
    "risk_breakdown",
    "rule",
    "sigmoid",
    "sign_convention",
    "spread",
]

LOG2 = math.log(2.0)

_WEIGHT_TOL = 1e-9


def pairwise_dot(a, b) -> float:
    """sum(a * b) over all entries, by numpy's pairwise summation.

    ``a @ b`` on vectors and ``np.linalg.norm`` reach BLAS ``ddot``, which
    OpenBLAS splits across its threads above about 10^4 entries, so their
    last bits change with the BLAS thread count; every reported sum and
    norm uses this instead.
    """
    return float(np.sum(np.multiply(a, b)))


def frobenius_norm(A) -> float:
    """sqrt(sum(A * A)) by ``pairwise_dot``.  Where the sum overflows and A
    is finite, A is scaled by max |a| first, so the norm is finite whenever
    it is representable."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(pairwise_dot(A, A))
    if math.isinf(norm):
        big = float(np.max(np.abs(A)))
        if math.isfinite(big):
            scaled = np.divide(A, big)
            norm = big * math.sqrt(pairwise_dot(scaled, scaled))
    return norm


def is_number(v) -> bool:
    """A real number that is not a bool, the type of every numeric setting."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def is_int(v) -> bool:
    """An integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# The single-value setting rules: kind -> (predicate, the phrase an error
# uses).  Each predicate tests the type first, so a value of the wrong type
# is refused as one out of range is, with a ValueError.
RULES = {
    "positive": (lambda v: is_number(v) and 0 < v < math.inf, "finite and positive"),
    "nonnegative": (lambda v: is_number(v) and 0 <= v < math.inf, "finite and nonnegative"),
    "finite": (lambda v: is_number(v) and -math.inf < v < math.inf, "finite"),
    "number": (is_number, "a number"),
    "numbers": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_number, v)),
                "a nonempty list of numbers"),
    "count": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "cap": (lambda v: (is_int(v) and v >= 1) or (is_number(v) and v == math.inf),
            "an integer >= 1 or inf"),
    "pair": (lambda v: is_int(v) and v >= 2, "an integer >= 2"),
    "seed": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "radius": (lambda v: is_number(v) and v >= 0, "nonnegative or inf"),
    "probability": (lambda v: is_number(v) and 0 <= v <= 1, "in [0, 1]"),
    "fraction": (lambda v: is_number(v) and 0 < v < 1, "in (0, 1)"),
    "eps": (lambda v: is_number(v) and 0 < v <= 0.5, "in (0, 1/2]"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
}


def _null_or(kind: str):
    accepts, phrase = RULES[kind]
    return (lambda v: v is None or accepts(v)), f"null or {phrase}"


RULES.update({f"{kind}-or-null": _null_or(kind) for kind in ("fraction", "eps", "object")})


def check(name: str, value, kind: str):
    """``value``, or a ValueError naming ``name`` where the rule ``kind`` of
    ``RULES`` refuses it."""
    accepts, phrase = RULES[kind]
    if not accepts(value):
        raise ValueError(f"{name} must be {phrase}, got {value!r}")
    return value


def rule(kind: str, **kw):
    """A dataclass field that ``check_fields`` checks by the rule ``kind``."""
    return field(metadata={"rule": kind}, **kw)


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj`` that names a rule."""
    for f in fields(obj):
        if "rule" in f.metadata:
            check(f.name, getattr(obj, f.name), f.metadata["rule"])


def spread(values) -> dict:
    """Median and quartiles of a sample, the summary of every repeated cell."""
    values = np.asarray(values, dtype=float)
    return {
        "median": float(np.median(values)),
        "q25": float(np.percentile(values, 25)),
        "q75": float(np.percentile(values, 75)),
    }


def logistic_loss(margin):
    """ln(1 + exp(-margin)), computed in softplus form.

    Stable for |margin| up to at least 1e4: large positive margins
    underflow gracefully toward 0 (staying positive while representable),
    large negative margins grow linearly without overflow.
    """
    margin = np.asarray(margin, dtype=float)
    out = np.logaddexp(0.0, -margin)
    return float(out) if out.ndim == 0 else out


def expected_logistic_loss(margins, p):
    """p * loss(f) + (1 - p) * loss(-f) per point: the logistic loss of
    margin f when the label is +1 with probability p."""
    return p * logistic_loss(margins) + (1 - p) * logistic_loss(-margins)


def logistic_loss_derivative(margin):
    """d/dr ln(1 + exp(-r)) = -sigmoid(-r); always in (-1, 0)."""
    margin = np.asarray(margin, dtype=float)
    out = -sigmoid(-margin)
    return float(out) if np.ndim(out) == 0 else out


def sigmoid(r):
    """1 / (1 + exp(-r)) without overflow on either tail."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def sign_convention(margin):
    """Classifier sign with sign(0) = +1, i.e. 2 * [r >= 0] - 1."""
    margin = np.asarray(margin, dtype=float)
    out = np.where(margin >= 0, 1.0, -1.0)
    return float(out) if out.ndim == 0 else out


def binary_kl(p, q):
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Uses the 0 * ln 0 = 0 convention.  When q sits on the boundary {0, 1}
    and p disagrees, the divergence is genuinely infinite and ``inf`` is
    returned; report serializers are responsible for rendering that as a
    distinguished token rather than a bare float.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((p < 0) | (p > 1)) or np.any((q < 0) | (q > 1)):
        raise ValueError("binary_kl arguments must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
        term0 = np.where(p < 1, (1 - p) * (np.log1p(-p) - np.log1p(-q)), 0.0)
    out = term1 + term0
    # p == q on a boundary gives 0 * (-inf - -inf) = nan above; that is 0.
    out = np.where(p == q, 0.0, out)
    return float(out) if out.ndim == 0 else out


def binary_entropy(p):
    """-p ln p - (1-p) ln(1-p); the pointwise-optimal logistic loss at p."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h1 = np.where(p > 0, -p * np.log(p), 0.0)
        h0 = np.where(p < 1, -(1 - p) * np.log1p(-p), 0.0)
    out = h1 + h0
    return float(out) if out.ndim == 0 else out


@dataclass
class RiskBreakdown:
    """Risk of a margin predictor against a known conditional model.

    All members refer to one weighted point set.  ``binary_kl`` equals
    ``excess_logistic`` by construction whenever both are evaluated
    against the same conditional probabilities, and the chain

        0.5 * excess_zero_one**2  <=  2 * l2_calibration_sq
                                  <=  binary_kl  ==  excess_logistic

    holds exactly (up to accumulation order) for every instance.
    """

    logistic_risk: float
    excess_logistic: float
    binary_kl: float
    l2_calibration_sq: float
    zero_one_risk: float
    excess_zero_one: float

    def to_dict(self) -> dict:
        return asdict(self)


def logistic_risk(margins, cond_probs, weights) -> float:
    """Population logistic risk sum_k w_k [p_k loss(f_k) + (1 - p_k) loss(-f_k)]
    over a weighted point set, the ``logistic_risk`` of ``risk_breakdown``
    on the same arguments, which it checks in the same way."""
    m = np.asarray(margins, dtype=float)
    p = np.asarray(cond_probs, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (m.shape == p.shape == w.shape and m.ndim == 1):
        raise ValueError("margins, cond_probs, weights must be 1-d and matching")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("conditional probabilities must lie in [0, 1]")
    return pairwise_dot(w, expected_logistic_loss(m, p))


def risk_breakdown(margins, cond_probs, weights) -> RiskBreakdown:
    """Full risk decomposition over a weighted point set.

    Parameters
    ----------
    margins : array (n,)
        Predictor output f(x_k) at each point.
    cond_probs : array (n,)
        True conditional probability p(y = +1 | x_k) at each point.
    weights : array (n,)
        Nonnegative weights summing to 1 (quadrature or Monte Carlo).
    """
    risk = logistic_risk(margins, cond_probs, weights)  # checks the arguments
    m = np.asarray(margins, dtype=float)
    p = np.asarray(cond_probs, dtype=float)
    w = np.asarray(weights, dtype=float)
    losses = expected_logistic_loss(m, p)
    entropies = binary_entropy(p)
    bayes_logistic = pairwise_dot(w, entropies)

    # Pointwise KL(p, sigmoid(f)) is the expected loss less the entropy, which
    # reads log sigmoid(f) = -loss(f) and log(1 - sigmoid(f)) = -loss(-f) off
    # f itself; binary_kl(p, sigmoid(f)) loses 1 - sigmoid(f) past f ~ 17.
    kl = pairwise_dot(w, losses - entropies)
    phi = sigmoid(m)
    l2_sq = pairwise_dot(w, (phi - p) ** 2)

    predicted_sign = sign_convention(m)
    # P[sign(f(X)) != Y] pointwise: wrong with prob p when predicting -1,
    # wrong with prob 1-p when predicting +1.
    zero_one = pairwise_dot(w, np.where(predicted_sign > 0, 1 - p, p))
    bayes_zero_one = pairwise_dot(w, np.minimum(p, 1 - p))

    return RiskBreakdown(
        logistic_risk=risk,
        excess_logistic=risk - bayes_logistic,
        binary_kl=kl,
        l2_calibration_sq=l2_sq,
        zero_one_risk=zero_one,
        excess_zero_one=zero_one - bayes_zero_one,
    )
