"""Empirical verification lab for the concentration and linearization bounds.

Each check runs a seeded experiment against a closed-form high-probability
bound and reports the observed violation frequency next to the nominal one.
The bounds are theorems: persistent violations beyond binomial slack point
to an implementation bug, which is precisely what this module exists to
surface.  Bound constants are evaluated exactly as stated even where they
are vacuously large at desk scale; scaling assertions elsewhere rely on
slopes and monotonicity instead.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .distributions import Distribution, derived_seed, evaluator, sample as draw_sample
from .kernel import tiles
from .metrics import frobenius_norm, logistic_risk
from .network import Network, clone_initial, forward_batch, freeze_features, frozen_forward_batch
from .trainer import TrainConfig, frozen_empirical_risk, train

__all__ = [
    "FlipStats",
    "GenGapReport",
    "LemmaCheckReport",
    "LemmaReport",
    "RiskRatioReport",
    "SphereGapReport",
    "activation_flip_count",
    "gaussian_row_count_check",
    "gen_gap_slope",
    "generalization_gap",
    "risk_ratio_check",
    "sphere_linearization_gap",
    "sphere_points",
]

# The row dimension of the Gaussian count check, whose bound holds in any
# dimension, and the size and seed of the sphere gap's point set.
_GAUSS_COUNT_DIM = 8
_SPHERE_POINTS, _SPHERE_SEED = 4096, 0


class LemmaReport:
    """A lemma check's outcome: its dataclass fields, a ``lemma_id`` and a
    ``verdict`` property that states the pass rule next to ``bound_value``."""

    lemma_id: ClassVar[str]

    def to_dict(self) -> dict:
        verdict = "pass" if self.verdict else "fail"
        return {"lemma_id": self.lemma_id, **asdict(self), "verdict": verdict}


@dataclass
class LemmaCheckReport(LemmaReport):
    """Monte Carlo verdict for one high-probability bound."""

    lemma_id: str
    trials: int
    observed_failures: int
    observed_freq: float = field(init=False)
    nominal: float
    observed_max_stat: float
    bound_value: float
    details: dict

    def __post_init__(self):
        self.observed_freq = self.observed_failures / self.trials

    @property
    def verdict(self) -> bool:
        """The observed failure frequency exceeds the nominal one by at most
        three binomial standard errors."""
        slack = 3.0 * math.sqrt(self.nominal * (1 - self.nominal) / self.trials)
        return self.observed_freq <= self.nominal + slack


def gaussian_row_count_check(
    m: int,
    tau: float,
    trials: int = 2000,
    delta: float = 0.05,
    seed: int = 0,
) -> LemmaCheckReport:
    """Count of Gaussian rows nearly orthogonal to a fixed direction.

    For W with iid standard normal entries and any unit x, the number of
    rows with |w_j . x| <= tau falls below m tau + sqrt(8 m tau ln(1/delta))
    except with probability 3 delta.  Rows have ``_GAUSS_COUNT_DIM`` entries.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(_GAUSS_COUNT_DIM)
    x /= np.linalg.norm(x)
    bound = m * tau + math.sqrt(8 * m * tau * math.log(1 / delta))
    counts = np.empty(trials)
    for t in range(trials):
        W = rng.standard_normal((m, _GAUSS_COUNT_DIM))
        counts[t] = int(np.sum(np.abs(W @ x) <= tau))
    failures = int(np.sum(counts > bound))
    return LemmaCheckReport(
        lemma_id="gauss-count",
        trials=trials,
        observed_failures=failures,
        nominal=min(1.0, 3 * delta),
        observed_max_stat=float(counts.max()),
        bound_value=bound,
        details={
            "m": m,
            "tau": tau,
            "delta": delta,
            "mean_count": float(counts.mean()),
            "expected_count": 2 * m * tau / math.sqrt(2 * math.pi),
            "count_se": float(counts.std(ddof=1) / math.sqrt(trials)),
        },
    )


@dataclass
class FlipStats(LemmaReport):
    lemma_id: ClassVar[str] = "flip-count"
    max_flips: int
    mean_flips: float
    bound_value: float
    radius: float
    band_width: float

    @property
    def verdict(self) -> bool:
        return self.max_flips <= self.bound_value


def activation_flip_count(
    W_before: np.ndarray, W_after: np.ndarray, X: np.ndarray, delta: float = 0.05
) -> FlipStats:
    """Per-example count of rows whose activation indicator differs between
    two weight matrices, against the band-plus-movement bound

        r m + sqrt(8 r m ln(1/delta)) + ||W_after - W_before||^2 / r^2

    at the optimizing band width r = R^(2/3) m^(-1/3)."""
    W_before = np.asarray(W_before, dtype=float)
    W_after = np.asarray(W_after, dtype=float)
    if W_before.shape != W_after.shape:
        raise ValueError("weight matrices must share a shape")
    X = np.asarray(X, dtype=float)
    m = W_before.shape[0]
    radius = frobenius_norm(W_after - W_before)
    flips = np.zeros(len(X), dtype=np.intp)
    for rows, cols in tiles(len(X), m):
        before, after = X[rows] @ W_before[cols].T, X[rows] @ W_after[cols].T
        flips[rows] += np.sum((before >= 0) != (after >= 0), axis=1)
    if radius == 0.0:
        r, bound = 0.0, 0.0
    else:
        r = radius ** (2.0 / 3.0) * m ** (-1.0 / 3.0)
        bound = r * m + math.sqrt(8 * r * m * math.log(1 / delta)) + radius**2 / r**2
    return FlipStats(
        max_flips=int(flips.max()),
        mean_flips=float(flips.mean()),
        bound_value=bound,
        radius=radius,
        band_width=r,
    )


def sphere_points(d: int, resolution: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit-sphere grid for d <= 3, seeded Monte Carlo beyond."""
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        angles = np.linspace(0, 2 * np.pi, resolution, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if d == 3:
        # Fibonacci lattice
        i = np.arange(resolution) + 0.5
        phi = np.arccos(1 - 2 * i / resolution)
        theta = np.pi * (1 + 5**0.5) * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    g = np.random.default_rng(seed).standard_normal((resolution, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@dataclass
class SphereGapReport(LemmaReport):
    lemma_id: ClassVar[str] = "sphere-gap"
    sup_gap: float
    bound_value: float
    radius: float
    points: int
    mode: str

    @property
    def verdict(self) -> bool:
        return self.sup_gap <= self.bound_value


def sphere_linearization_gap(net: Network, V: np.ndarray, delta: float = 0.05) -> SphereGapReport:
    """Estimated sup over the unit sphere of |f(x; V) - <grad f(x; W0), V>|.

    Both functions are positively homogeneous in x, so the sup over the ball
    is attained on the sphere; a grid (d <= 3) or Monte Carlo (d > 3)
    estimate over ``_SPHERE_POINTS`` points is a lower bound on the true
    sup, the conservative direction when checking an upper bound.  Reported
    next to the closed-form rate 25 rho R^(4/3) sqrt(ln(e d m / delta)) /
    m^(1/6), with R = max(1, ||V - W0||)."""
    V = np.asarray(V, dtype=float)
    X = sphere_points(net.d, _SPHERE_POINTS, _SPHERE_SEED)
    direct = forward_batch(replace(net, weights=V), X)
    linear = frozen_forward_batch(freeze_features(net, at_init=True), V, X)
    sup_gap = float(np.max(np.abs(direct - linear)))
    radius = frobenius_norm(V - net.init_weights)
    bound = (
        25.0
        * net.rho
        * max(1.0, radius) ** (4.0 / 3.0)
        * math.sqrt(math.log(math.e * net.d * net.m / delta))
        / net.m ** (1.0 / 6.0)
    )
    return SphereGapReport(
        sup_gap=sup_gap,
        bound_value=bound,
        radius=radius,
        points=len(X),
        mode="grid" if net.d <= 3 else "mc",
    )


# Largest argument of math.exp with a finite result.
_EXP_MAX = math.log(sys.float_info.max)


@dataclass
class RiskRatioReport(LemmaReport):
    lemma_id: ClassVar[str] = "risk-ratio"
    max_ratio: float
    bound_value: float
    iterates: int
    radius_iterates: float
    radius_ref: float
    frozen_risks: np.ndarray

    @property
    def verdict(self) -> bool:
        return self.max_ratio <= self.bound_value


def risk_ratio_check(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    B: np.ndarray,
    delta: float = 0.05,
) -> RiskRatioReport:
    """Max over iterate pairs (i, j) of hat-R^(i)(B) / hat-R^(j)(B).

    Replays the run deterministically from the network's initialization
    with B as a regret reference, whose certificate holds the frozen risk
    of B under every stepped iterate's activation pattern; the last
    iterate, which takes no step, adds one frozen pass.  The multiplicative
    bound uses the largest observed iterate radius (floored at 1, its
    domain of validity)."""
    B = np.asarray(B, dtype=float)
    replay = clone_initial(net)
    traj = train(replay, X, y, cfg, monitors=False, regret_refs={"B": B})
    last = frozen_empirical_risk(replay, B, X, y)
    risks_arr = np.append(traj.certificates["B"].frozen_ref, last)
    radius = max(rec.dist_init for rec in traj.records)
    max_ratio = float(risks_arr.max() / risks_arr.min())
    r_v = max(1.0, radius)
    r_b = frobenius_norm(B - net.init_weights)
    exponent = (
        6.0
        * net.rho
        * (r_b + 2 * r_v)
        * r_v ** (1.0 / 3.0)
        * math.log(math.e / delta) ** 0.25
        / net.m ** (1.0 / 6.0)
    )
    bound = math.exp(exponent) if exponent <= _EXP_MAX else math.inf
    return RiskRatioReport(
        max_ratio=max_ratio,
        bound_value=bound,
        iterates=len(risks_arr),
        radius_iterates=radius,
        radius_ref=r_b,
        frozen_risks=risks_arr,
    )


@dataclass
class GenGapReport(LemmaReport):
    lemma_id: ClassVar[str] = "gen-gap"
    population_risk: float
    empirical_risk: float
    gap: float
    bound_value: float
    n: int

    @property
    def verdict(self) -> bool:
        return abs(self.gap) <= self.bound_value


def generalization_gap(
    net: Network,
    V: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    dist: Distribution,
    delta: float = 0.05,
) -> GenGapReport:
    """Population minus empirical logistic risk of the predictor at V in the
    gradient features of ``net`` at its weights, next to the norm-based rate
    80 rho R (d ln(e m^2 d^3/delta))^(3/2)/sqrt(n)."""
    V = np.asarray(V, dtype=float)
    ev = evaluator(dist)
    pop = logistic_risk(frozen_forward_batch(net, V, ev.points), dist.cond_prob(ev.points), ev.weights)
    emp = frozen_empirical_risk(net, V, X, y)
    n = len(y)
    d = net.d
    radius = max(1.0, frobenius_norm(V - net.weights))
    log_term = d * math.log(math.e * net.m**2 * d**3 / delta)
    bound = 80.0 * net.rho * radius * log_term**1.5 / math.sqrt(n)
    return GenGapReport(
        population_risk=pop, empirical_risk=emp, gap=pop - emp, bound_value=bound, n=n
    )


def gen_gap_slope(
    net: Network,
    V: np.ndarray,
    dist: Distribution,
    n_grid,
    seeds: int = 20,
    root_seed: int = 0,
) -> dict:
    """Median |population - empirical| gap across sample sizes and the
    log-log slope fitted through the medians."""
    frozen = freeze_features(net, at_init=True)
    medians = []
    for n_idx, n in enumerate(n_grid):
        gaps = []
        for s in range(seeds):
            samp = draw_sample(dist, int(n), derived_seed(root_seed, n_idx, s))
            rep = generalization_gap(frozen, V, samp.points, samp.labels, dist)
            gaps.append(abs(rep.gap))
        medians.append(float(np.median(gaps)))
    slope = float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(medians), 1)[0])
    return {"n_grid": list(map(int, n_grid)), "medians": medians, "slope": slope}
