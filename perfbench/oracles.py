"""Independent oracles for the benchmark's output checks.

Nothing here imports shallowcal.  Inputs are regenerated from the seeds a
report records, through the package's documented seed and stream contracts
(``SeedSequence((root, *path))`` splits; a network stream is all of W
row-major, then the signs; a sample stream is the marginal draw, then one
uniform per label), and every quantity is recomputed with plain dense numpy.
A check that compares a program output with one of these functions
therefore compares two computations that share no code.
"""

from __future__ import annotations

import math

import numpy as np

# Rows of X per dense (rows x m) block; 32 x 2^16 float64 is 16 MiB.
_ROWS = 32


def derived_seed(root: int, *path: int) -> int:
    return int(np.random.SeedSequence((root,) + tuple(path)).generate_state(1)[0])


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def step_smooth_p(x, width=0.1):
    return 0.3 + 0.4 * sigmoid(np.asarray(x, dtype=float) / width)


def initial_network(seed: int, m: int, d: int):
    """(W0, signs) of a network initialized from ``seed``."""
    rng = np.random.default_rng(seed)
    W0 = rng.standard_normal((m, d))
    signs = rng.integers(0, 2, size=m).astype(float) * 2.0 - 1.0
    return W0, signs


def uniform_1d_sample(seed: int, n: int, lo: float, hi: float, p_of_x):
    """(x as an (n, 1) array, labels) for a uniform marginal on [lo, hi]."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n, 1))
    y = np.where(rng.uniform(size=n) < p_of_x(X[:, 0]), 1.0, -1.0)
    return X, y


def sphere_cap_sample(seed: int, n: int, d: int, c: float):
    """Uniform on {x in S^(d-1): x_1 >= 0} with p(x) = sigmoid(c x_1)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[:, 0] = np.abs(X[:, 0])
    y = np.where(rng.uniform(size=n) < sigmoid(c * X[:, 0]), 1.0, -1.0)
    return X, y


def augment(X):
    X = np.asarray(X, dtype=float)
    return np.hstack([X, np.ones((X.shape[0], 1))]) / math.sqrt(2.0)


def margins(W, signs, scale, X):
    """scale * relu(X W^T) a, in dense row blocks."""
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _ROWS):
        out[lo : lo + _ROWS] = np.maximum(X[lo : lo + _ROWS] @ W.T, 0.0) @ signs
    return scale * out


def frozen_margins(W_source, V, signs, scale, X):
    """scale * sum_j a_j [w_j . x >= 0] (v_j . x), in dense row blocks."""
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _ROWS):
        Xc = X[lo : lo + _ROWS]
        out[lo : lo + _ROWS] = ((Xc @ V.T) * (Xc @ W_source.T >= 0)) @ signs
    return scale * out


def empirical_logistic_risk(f, y):
    return float(np.mean(np.logaddexp(0.0, -y * f)))


def expected_logistic_risk(f, p, weights=None):
    """Weighted mean of p loss(f) + (1 - p) loss(-f)."""
    losses = p * np.logaddexp(0.0, -f) + (1 - p) * np.logaddexp(0.0, f)
    return float(np.mean(losses) if weights is None else weights @ losses)


def midpoints(lo: float, hi: float, nodes: int):
    return lo + (np.arange(nodes) + 0.5) * (hi - lo) / nodes


def midpoint_risk(f_of_x, p_of_x, lo: float, hi: float, nodes: int) -> float:
    """Population logistic risk under a uniform marginal on [lo, hi] by the
    midpoint rule; ``f_of_x`` maps an (N,) abscissa array to margins."""
    x = midpoints(lo, hi, nodes)
    return expected_logistic_risk(f_of_x(x), p_of_x(x))


def affine_teacher_se(theta: float, bias: float, x, features: int) -> float:
    """Bound on the Monte Carlo standard error of the affine teacher's risk.

    The teacher's feature contribution at x is 2 (theta x + b) times a fair
    coin [v . x~ >= 0], so its per-point standard error is
    |theta x + b| / sqrt(M); the loss is 1-Lipschitz, so the risk error is
    at most the mean of that over the marginal.
    """
    return float(np.mean(np.abs(theta * np.asarray(x) + bias)) / math.sqrt(features))


def one_nn_minority_mass(x, y, lo: float, hi: float, minority: float) -> float:
    """Uniform mass of the 1-NN cells whose training label is ``minority``.

    Cell i runs from the midpoint with its left neighbour to the midpoint
    with its right neighbour, clipped to [lo, hi].
    """
    order = np.argsort(x, kind="stable")
    xs, ys = np.asarray(x)[order], np.asarray(y)[order]
    edges = np.concatenate([[lo], (xs[:-1] + xs[1:]) / 2.0, [hi]])
    lengths = np.diff(edges)
    return float(lengths[ys == minority].sum() / (hi - lo))


def one_nn_limit(p: float) -> float:
    """Asymptotic 1-NN excess zero-one risk on pure label noise p:
    the nearest label is an independent Bernoulli(p)."""
    return 2 * p * (1 - p) - min(p, 1 - p)
