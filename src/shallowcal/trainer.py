"""Constant-step full-batch gradient descent on the empirical logistic risk.

``train`` reads the descent loop's stream of per-iterate ``Step`` records
and keeps two families of per-run monitors built on frozen-feature risks.
Writing hat-R^(i) for the empirical risk of the linear predictor in the
gradient features captured at iterate i, every run with step size
eta <= 4/rho^2 on inputs with norm <= 1 must satisfy, step by step,

    (eta/2) * ||grad hat-R(W_i)||^2  <=  hat-R^(i)(W_i) - hat-R^(i)(W_{i+1})

and, for any fixed reference matrix Z and any horizon t,

    ||W_t - Z||^2 + 2 eta sum_{i<t} hat-R^(i)(W_{i+1})
        <=  ||W_0 - Z||^2 + 2 eta sum_{i<t} hat-R^(i)(Z).

Both are deterministic inequalities; a violation beyond float accumulation
noise indicates an implementation bug, which is exactly what the monitors
exist to catch.

Iterate selection keeps the recorded iterate of minimal empirical risk among
those within the early stopping radius of the initialization whose risk did
not diverge, breaking ties toward the earliest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import kernel
from .metrics import (
    check, check_fields, frobenius_norm, logistic_loss, logistic_loss_derivative, rule,
)
from .network import Network, frozen_forward_batch

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "IterateRecord",
    "RegretCertificate",
    "Step",
    "TrainConfig",
    "Trajectory",
    "descend",
    "empirical_risk",
    "frozen_empirical_risk",
    "gd_step",
    "step_size_ok",
    "train",
]

DIVERGENCE_THRESHOLD = 1e6

SMOOTHNESS_TOL = 1e-9
REGRET_TOL = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters of one gradient descent run.

    ``eps_gd`` is the optimization accuracy the horizon was derived from and
    is carried as metadata; ``r_gd`` is the early stopping radius (may be
    ``inf`` for no early stopping).
    """

    eta: float = rule("positive")
    t_max: int = rule("count")
    eps_gd: float | None = None
    r_gd: float = rule("radius", default=math.inf)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


def step_size_ok(eta: float, rho: float) -> bool:
    """The monitors' precondition eta <= 4/rho^2, up to one part in 10^12."""
    return eta <= 4.0 / rho**2 * (1 + 1e-12)


@dataclass
class IterateRecord:
    index: int
    emp_risk: float
    dist_init: float
    grad_norm: float
    smooth_resid: float


@dataclass
class RegretCertificate:
    """Both sides of the descent regret inequality against a reference matrix.

    ``frozen_next[i]`` holds hat-R^(i)(W_{i+1}) and ``frozen_ref[i]`` holds
    hat-R^(i)(Z); ``dist_sq[j]`` holds ||W_j - Z||^2 for every recorded
    iterate, so the inequality can be evaluated at any prefix.
    """

    name: str
    eta: float
    frozen_next: np.ndarray
    frozen_ref: np.ndarray
    dist_sq: np.ndarray

    def sides(self, t: int) -> tuple[float, float]:
        if not 0 <= t <= len(self.frozen_next):
            raise ValueError(f"prefix must lie in [0, {len(self.frozen_next)}]")
        lhs = self.dist_sq[t] + 2 * self.eta * float(self.frozen_next[:t].sum())
        rhs = self.dist_sq[0] + 2 * self.eta * float(self.frozen_ref[:t].sum())
        return lhs, rhs

    def holds(self) -> bool:
        """Whether the inequality holds at every prefix, to ``REGRET_TOL``;
        a NaN side fails it."""
        for t in range(len(self.frozen_next) + 1):
            lhs, rhs = self.sides(t)
            if not lhs <= rhs + REGRET_TOL * max(1.0, rhs):
                return False
        return True


@dataclass
class Trajectory:
    """Per-iterate scalars plus the retained selected iterate."""

    config: TrainConfig
    rho: float
    n_examples: int
    records: list[IterateRecord] = field(default_factory=list)
    status: str = "ok"
    selected_index: int | None = None
    selected_weights: np.ndarray | None = None
    certificates: dict[str, RegretCertificate] = field(default_factory=dict)

    @property
    def selected_risk(self) -> float | None:
        if self.selected_index is None:
            return None
        return self.records[self.selected_index].emp_risk

    def smoothness_ok(self) -> bool:
        for rec in self.records[:-1]:
            if rec.smooth_resid < -SMOOTHNESS_TOL * max(1.0, rec.emp_risk):
                return False
        return True

    def monitor_verdicts(self) -> dict:
        return {
            "smoothness_ok": self.smoothness_ok(),
            "regret_ok": {k: c.holds() for k, c in self.certificates.items()},
            "status": self.status,
        }


def empirical_risk(net: Network, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of the network over a labeled sample."""
    return frozen_empirical_risk(net, net.weights, X, y)


def gd_step(net: Network, X: np.ndarray, y: np.ndarray, eta: float) -> np.ndarray:
    """One full-batch descent step in place; returns the applied gradient."""
    check("eta", eta, "positive")
    X, y = _check_sample(X, y, net.d)
    grad = next(descend(net, X, y, eta, 1)).grad
    if grad is None:
        raise ValueError("weights must be finite")
    net.weights -= eta * grad
    return grad


def frozen_empirical_risk(net: Network, V: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of the linear predictor at V in the gradient
    features of ``net`` at its weights."""
    X, y = _check_sample(X, y, net.d)
    return float(np.mean(logistic_loss(y * frozen_forward_batch(net, V, X))))


def _check_sample(X, y, d):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"X must have shape (n, {d})")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be one per example")
    if X.shape[0] == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +/-1")
    return X, y


@dataclass
class Step:
    """Iterate i of ``descend``; ``grad`` is None where W_i is not all finite."""

    index: int
    risk: float
    grad: np.ndarray | None
    frozen_next: float = math.nan
    ref_risks: list[float] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return not math.isfinite(self.risk) or self.risk > DIVERGENCE_THRESHOLD


def descend(net: Network, X: np.ndarray, y: np.ndarray, eta: float, t_max: int, refs=None):
    """The descent loop on a checked sample: a ``Step`` per iterate 0..t_max,
    ending early at the first diverged one.  ``net.weights`` holds W_i while
    record i is out and steps in place when the next is asked for.  With
    ``refs`` (reference matrices, possibly none) and i < t_max, W_i's fused
    ``adjoint_margins`` pass also reads hat-R^(i) of W_{i+1}, as f - eta g
    with g the margins of G, and of each reference."""

    def mean_loss(margins):
        return float(logistic_loss(margins * y).sum()) / len(y)

    for i in range(t_max + 1):
        if not np.isfinite(net.weights).all():
            yield Step(i, math.inf, None)
            return
        K = kernel(net.weights, net.signs, net.scale, X)
        f = K.margins(net.weights)
        coeff = logistic_loss_derivative(f * y) * y / len(y)
        if refs is None or i == t_max:
            step = Step(i, mean_loss(f), K.adjoint(coeff))
        else:
            grad, g, *ref_margins = K.adjoint_margins(coeff, refs)
            step = Step(i, mean_loss(f), grad, mean_loss(f - eta * g),
                        [mean_loss(r) for r in ref_margins])
        yield step
        if step.diverged or i == t_max:
            return
        net.weights -= eta * step.grad


def train(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    monitors: bool = True,
    regret_refs: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Run ``cfg.t_max`` descent steps, recording every iterate of ``descend``.

    The network is mutated in place and finishes at iterate t_max; the
    selected iterate's weights are retained in the trajectory.  When
    ``monitors`` is set, eta <= 4/rho^2 and input norms <= 1 are required
    and the smoothness residual is recorded at every step.  ``regret_refs``
    maps names to reference matrices; a regret certificate is accumulated
    for each.  The last recorded iterate (t_max, or the first whose risk
    diverged) takes no step and evaluates no reference.  Weights that are
    not all finite have diverged, with risk inf and no kernel pass.
    """
    X, y = _check_sample(X, y, net.d)
    if monitors and not step_size_ok(cfg.eta, net.rho):
        raise ValueError(f"monitors require eta <= 4/rho^2 = {4.0 / net.rho**2}, got {cfg.eta}")
    if monitors and np.max(np.linalg.norm(X, axis=1)) > 1 + 1e-12:
        raise ValueError("monitors require input norms <= 1")
    refs = dict(regret_refs or {})
    for name, Z in refs.items():
        Z = np.asarray(Z, dtype=float)
        if Z.shape != net.weights.shape:
            raise ValueError(f"regret reference {name!r} has shape {Z.shape}")
        refs[name] = Z

    traj = Trajectory(config=cfg, rho=net.rho, n_examples=X.shape[0])
    frozen_rows = []  # per stepped iterate: frozen_next, then each reference's frozen risk
    dist_sq = []  # per iterate: ||W_i - Z||^2 for each reference
    for step in descend(net, X, y, cfg.eta, cfg.t_max, refs.values() if monitors or refs else None):
        grad_norm = math.nan if step.diverged else frobenius_norm(step.grad)
        resid = math.nan
        if step.index < cfg.t_max and not step.diverged:
            frozen_rows.append([step.frozen_next, *step.ref_risks])
            if monitors:
                resid = (step.risk - step.frozen_next) - 0.5 * cfg.eta * grad_norm**2
        dist_sq.append([float(np.sum((net.weights - Z) ** 2)) for Z in refs.values()])
        # ||W_i - W_0|| is the root of a reference's dist_sq when that
        # reference is W_0 itself; both sums have the same bits.
        at_init = [sq for sq, Z in zip(dist_sq[-1], refs.values()) if Z is net.init_weights]
        dist = math.sqrt(at_init[0]) if at_init else net.dist_from_init()
        traj.records.append(IterateRecord(step.index, step.risk, dist, grad_norm, resid))
        if dist <= cfg.r_gd and not step.diverged and (
                traj.selected_index is None or step.risk < traj.selected_risk):
            traj.selected_index, traj.selected_weights = step.index, net.weights.copy()

    rows, dist_sq = np.array(frozen_rows).reshape(-1, 1 + len(refs)).T, np.array(dist_sq).T
    for r, name in enumerate(refs):
        traj.certificates[name] = RegretCertificate(
            name, cfg.eta, np.array(rows[0]), np.array(rows[1 + r]), np.array(dist_sq[r]))

    if step.diverged:
        traj.status = "diverged"
    elif traj.selected_index is None:
        traj.status = "no-selection"
    return traj

