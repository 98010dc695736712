"""Constant-step full-batch gradient descent on the empirical logistic risk.

Besides the plain descent loop, the trainer maintains two families of
per-run monitors built on frozen-feature risks.  Writing hat-R^(i) for the
empirical risk of the linear predictor in the gradient features captured at
iterate i, every run with step size eta <= 4/rho^2 on inputs with norm <= 1
must satisfy, step by step,

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

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .kernel import kernel
from .metrics import frobenius_norm, logistic_loss, logistic_loss_derivative
from .network import Network, frozen_forward_batch

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "IterateRecord",
    "RegretCertificate",
    "TrainConfig",
    "Trajectory",
    "empirical_risk",
    "frozen_empirical_risk",
    "gd_step",
    "train",
    "write_trajectory",
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

    eta: float
    t_max: int
    eps_gd: float | None = None
    r_gd: float = math.inf
    seed: int = 0

    def __post_init__(self):
        _check_eta(self.eta)
        t = self.t_max
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 1:
            raise ValueError(f"t_max must be an integer >= 1, got {t!r}")
        if not self.r_gd >= 0:
            raise ValueError(f"r_gd must be nonnegative or inf, got {self.r_gd!r}")


def _check_eta(eta) -> None:
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


@dataclass
class IterateRecord:
    index: int
    emp_risk: float
    dist_init: float
    grad_norm: float
    smooth_resid: float
    selected: bool = False


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

    def sides(self, t: int | None = None) -> tuple[float, float]:
        if t is None:
            t = len(self.frozen_next)
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

    def regret_ok(self) -> bool:
        return all(c.holds() for c in self.certificates.values())

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
    _check_eta(eta)
    X, y = _check_sample(X, y, net.d)
    _, grad, _, _ = _risk_and_grad(net.weights, net.signs, net.scale, X, y)
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


def _risk_and_grad(W, signs, scale, X, y, refs=None):
    """One pass over the sample at weights W.

    Returns (empirical risk, full-batch gradient G, frozen risks of each ref
    matrix under W's activation pattern, and the frozen risk along the step:
    the function eta -> frozen risk of W - eta G under that pattern).  One
    kernel of W serves all of them, so the results are deterministic.  The
    margins f at W are the network itself, read without a mask.  Frozen
    margins are linear in their values matrix, so those along the step are
    f - eta g, with g the margins of G, which ``adjoint_margins`` returns
    with G and the margins of every reference: on the dense path a step
    thus forms W's activation mask once.  With ``refs`` None, as for a plain
    step, the last two items are [] and None and G comes from the plain
    adjoint pass.
    """
    n = X.shape[0]
    K = kernel(W, signs, scale, X)

    def mean_loss(margins):
        return float(logistic_loss(margins * y).sum()) / n

    f = K.margins(W)
    coeff = logistic_loss_derivative(f * y) * y / n
    if refs is None:
        return mean_loss(f), K.adjoint(coeff), [], None
    grad, g, *ref_margins = K.adjoint_margins(coeff, refs)
    ref_risks = [mean_loss(r) for r in ref_margins]
    return mean_loss(f), grad, ref_risks, lambda eta: mean_loss(f - eta * g)


def train(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    monitors: bool = True,
    regret_refs: dict[str, np.ndarray] | None = None,
) -> Trajectory:
    """Run ``cfg.t_max`` descent steps, recording every iterate.

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
    if monitors and cfg.eta > 4.0 / net.rho**2 * (1 + 1e-12):
        raise ValueError(
            f"monitors require eta <= 4/rho^2 = {4.0 / net.rho ** 2}, got {cfg.eta}"
        )
    if monitors and np.max(np.linalg.norm(X, axis=1)) > 1 + 1e-12:
        raise ValueError("monitors require input norms <= 1")
    refs = dict(regret_refs or {})
    for name, Z in refs.items():
        Z = np.asarray(Z, dtype=float)
        if Z.shape != net.weights.shape:
            raise ValueError(f"regret reference {name!r} has shape {Z.shape}")
        refs[name] = Z

    traj = Trajectory(config=cfg, rho=net.rho, n_examples=X.shape[0])
    ref_names = list(refs)
    ref_mats = [refs[k] for k in ref_names]
    frozen_next: list[float] = []
    frozen_ref: list[list[float]] = [[] for _ in ref_names]
    dist_sq_ref: list[list[float]] = [[] for _ in ref_names]

    frozen = monitors or bool(ref_mats)
    best = None  # (risk, index, weights copy)
    for i in range(cfg.t_max + 1):
        last = i == cfg.t_max
        risk = math.inf
        if np.isfinite(net.weights).all():
            risk, grad, ref_risks, frozen_along = _risk_and_grad(
                net.weights, net.signs, net.scale, X, y, ref_mats if frozen and not last else None
            )
        diverged = not math.isfinite(risk) or risk > DIVERGENCE_THRESHOLD
        step = not (last or diverged)
        grad_norm = float("nan") if diverged else frobenius_norm(grad)
        resid = float("nan")
        if step:
            W_next = net.weights - cfg.eta * grad
            frozen_at_next = frozen_along(cfg.eta) if frozen else float("nan")
            if monitors:
                resid = (risk - frozen_at_next) - 0.5 * cfg.eta * grad_norm**2
            frozen_next.append(frozen_at_next)
            for acc, ref_risk in zip(frozen_ref, ref_risks):
                acc.append(ref_risk)

        dist = net.dist_from_init()
        traj.records.append(IterateRecord(i, risk, dist, grad_norm, resid))
        for r, Z in enumerate(ref_mats):
            dist_sq_ref[r].append(float(np.sum((net.weights - Z) ** 2)))
        if dist <= cfg.r_gd and not diverged and (best is None or risk < best[0]):
            best = (risk, i, net.weights.copy())
        if not step:
            break
        net.weights[...] = W_next

    for r, name in enumerate(ref_names):
        traj.certificates[name] = RegretCertificate(
            name=name,
            eta=cfg.eta,
            frozen_next=np.array(frozen_next),
            frozen_ref=np.array(frozen_ref[r]),
            dist_sq=np.array(dist_sq_ref[r]),
        )

    if diverged:
        traj.status = "diverged"
    if best is not None:
        traj.selected_index = best[1]
        traj.selected_weights = best[2]
        traj.records[best[1]].selected = True
    elif not diverged:
        traj.status = "no-selection"
    return traj


def write_trajectory(traj: Trajectory, csv_path, json_path=None) -> None:
    """CSV of per-iterate scalars plus an optional JSON metadata sidecar."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iter", "emp_risk", "dist_init", "grad_norm", "smooth_resid", "selected"]
        )
        for rec in traj.records:
            writer.writerow(
                [
                    rec.index,
                    f"{rec.emp_risk:.17g}",
                    f"{rec.dist_init:.17g}",
                    f"{rec.grad_norm:.17g}",
                    f"{rec.smooth_resid:.17g}",
                    int(rec.selected),
                ]
            )
    if json_path is not None:
        # the config's fields, then every scalar field of the trajectory
        meta = asdict(traj.config)
        meta["r_gd"] = "inf" if math.isinf(meta["r_gd"]) else meta["r_gd"]
        for f in fields(traj):
            if f.name not in ("config", "records", "selected_weights", "certificates"):
                meta[f.name] = getattr(traj, f.name)
        meta["monitors"] = traj.monitor_verdicts()
        with open(json_path, "w") as fh:
            json.dump(meta, fh, indent=2)
