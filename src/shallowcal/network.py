"""Width-m shallow ReLU predictor and its frozen-feature linearization.

The predictor is

    f(x; rho, a, W) = (rho / sqrt(m)) * sum_j a_j * max(0, w_j . x)

with fixed random signs a_j in {-1, +1}, trainable rows w_j, and an output
temperature rho.  The weight gradient has rows

    (rho / sqrt(m)) * a_j * [w_j . x >= 0] * x

and the indicator at zero preactivation is taken to be 1, so that the
1-homogeneity identity <grad f(x; W), W> = f(x; W) is exact.

Randomness contract: networks are initialized from ``numpy.random.default_rng``
(PCG64); the stream is consumed as all of W (row-major, standard normal via
NumPy's ziggurat ``standard_normal``) followed by the m signs (``integers``).
This order is fixed so that runs are reproducible across versions of this
package on a given NumPy build.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .arcs import ArcKernel

__all__ = [
    "AugmentedInput",
    "FrozenFeatures",
    "MAGIC",
    "Network",
    "augment",
    "augment_batch",
    "clone_initial",
    "feature_gradient",
    "forward",
    "forward_batch",
    "freeze_features",
    "frozen_forward",
    "frozen_forward_batch",
    "init_network",
    "load_network",
    "save_network",
]

MAGIC = b"SRLN1"

# Largest number of scalars held by one (chunk x m) intermediate; keeps peak
# additional memory around 256 MB of float64 even at width 2**16.
_CHUNK_BUDGET = 1 << 22


def _chunk_rows(n: int, m: int) -> int:
    return max(1, min(n, _CHUNK_BUDGET // max(1, m)))


@dataclass
class Network:
    """Shallow ReLU network state.

    ``init_weights`` is a frozen snapshot of the weights at construction;
    training mutates ``weights`` in place and never touches the snapshot.
    """

    m: int
    d: int
    rho: float
    signs: np.ndarray
    weights: np.ndarray
    init_weights: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be at least 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.signs.shape != (self.m,):
            raise ValueError("signs must have shape (m,)")
        if self.weights.shape != (self.m, self.d):
            raise ValueError("weights must have shape (m, d)")
        if self.init_weights.shape != (self.m, self.d):
            raise ValueError("init_weights must have shape (m, d)")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError("signs must be +/-1")
        self.init_weights.setflags(write=False)
        self.signs.setflags(write=False)

    @property
    def scale(self) -> float:
        return self.rho / np.sqrt(self.m)

    def dist_from_init(self) -> float:
        return float(np.linalg.norm(self.weights - self.init_weights))


def init_network(m: int, d: int, rho: float, seed: int) -> Network:
    """Fresh network with standard normal weights and fair random signs.

    The RNG stream order is fixed: all of W row-major first, then the signs.
    """
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((m, d))
    signs = rng.integers(0, 2, size=m).astype(float) * 2.0 - 1.0
    return Network(
        m=m,
        d=d,
        rho=float(rho),
        signs=signs,
        weights=weights,
        init_weights=weights.copy(),
        seed=seed,
    )


def clone_initial(net: Network) -> Network:
    """A network reset to its initialization (weights = init snapshot)."""
    return Network(
        m=net.m,
        d=net.d,
        rho=net.rho,
        signs=net.signs.copy(),
        weights=net.init_weights.copy(),
        init_weights=net.init_weights.copy(),
        seed=net.seed,
    )


def forward(net: Network, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (net.d,):
        raise ValueError(f"input must have shape ({net.d},), got {x.shape}")
    pre = net.weights @ x
    return float(net.scale * (net.signs @ np.maximum(pre, 0.0)))


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Margins f(x_k; W) for all rows of X: exact arcs when d <= 2, else
    dense products chunked over examples."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"X must have shape (n, {net.d})")
    if X.shape[1] <= 2:
        return ArcKernel(net.weights, net.signs, net.scale, X).margins(net.weights)
    n = X.shape[0]
    out = np.empty(n)
    step = _chunk_rows(n, net.m)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        pre = X[lo:hi] @ net.weights.T
        np.maximum(pre, 0.0, out=pre)
        out[lo:hi] = pre @ net.signs
    out *= net.scale
    return out


def feature_gradient(net: Network, x: np.ndarray) -> np.ndarray:
    """Weight gradient of f at x: row j is scale * a_j * [w_j.x >= 0] * x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.d,):
        raise ValueError(f"input must have shape ({net.d},), got {x.shape}")
    active = (net.weights @ x >= 0).astype(float)
    return net.scale * (net.signs * active)[:, None] * x[None, :]


@dataclass
class FrozenFeatures:
    """Gradient features captured at a fixed weight matrix.

    Evaluating the induced linear predictor at the source matrix itself
    reproduces the network output exactly (1-homogeneity of the ReLU).
    """

    sign_source: np.ndarray
    signs: np.ndarray
    rho: float
    m: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        self.sign_source = np.array(self.sign_source, dtype=float)
        self.sign_source.setflags(write=False)
        self.m, self.d = self.sign_source.shape
        if self.signs.shape != (self.m,):
            raise ValueError("signs must have shape (m,)")

    @property
    def scale(self) -> float:
        return self.rho / np.sqrt(self.m)


def freeze_features(net: Network, at_init: bool = False) -> FrozenFeatures:
    """Capture the network's gradient features at its current (or initial) weights."""
    source = net.init_weights if at_init else net.weights
    return FrozenFeatures(sign_source=source.copy(), signs=net.signs, rho=net.rho)


def frozen_forward(ff: FrozenFeatures, V: np.ndarray, x: np.ndarray) -> float:
    """Linear predictor <grad f(x; W_frozen), V> at a single point."""
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    if x.shape != (ff.d,):
        raise ValueError(f"input must have shape ({ff.d},), got {x.shape}")
    if V.shape != (ff.m, ff.d):
        raise ValueError(f"V must have shape ({ff.m}, {ff.d})")
    active = (ff.sign_source @ x >= 0).astype(float)
    return float(ff.scale * (ff.signs * active) @ (V @ x))


def frozen_forward_batch(ff: FrozenFeatures, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Frozen-feature margins over all rows of X: exact arcs when d <= 2,
    else dense products chunked over examples."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if X.ndim != 2 or X.shape[1] != ff.d:
        raise ValueError(f"X must have shape (n, {ff.d})")
    if V.shape != (ff.m, ff.d):
        raise ValueError(f"V must have shape ({ff.m}, {ff.d})")
    if X.shape[1] <= 2:
        return ArcKernel(ff.sign_source, ff.signs, ff.scale, X).margins(V)
    n = X.shape[0]
    out = np.empty(n)
    step = _chunk_rows(n, ff.m)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        act = X[lo:hi] @ ff.sign_source.T >= 0
        proj = X[lo:hi] @ V.T
        proj *= act
        out[lo:hi] = proj @ ff.signs
    out *= ff.scale
    return out


@dataclass
class AugmentedInput:
    """Bias-augmented input (x, 1) / sqrt(2); unit ball maps into unit ball."""

    x_tilde: np.ndarray


def augment(x: np.ndarray, assert_unit_ball: bool = False) -> AugmentedInput:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("augment expects a single vector")
    if assert_unit_ball and np.linalg.norm(x) > 1 + 1e-12:
        raise ValueError(f"input norm {np.linalg.norm(x)} exceeds 1")
    return AugmentedInput(x_tilde=np.concatenate([x, [1.0]]) / np.sqrt(2.0))


def augment_batch(X: np.ndarray, assert_unit_ball: bool = False) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("augment_batch expects an (n, d) array")
    if assert_unit_ball:
        norms = np.linalg.norm(X, axis=1)
        if np.any(norms > 1 + 1e-12):
            raise ValueError("input norms exceed 1")
    ones = np.ones((X.shape[0], 1))
    return np.hstack([X, ones]) / np.sqrt(2.0)


def save_network(net: Network, path) -> None:
    """Binary format: magic "SRLN1"; m, d as little-endian int64; rho as
    little-endian float64; signs as int8; W then W0 as row-major little-endian
    float64."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<qqd", net.m, net.d, net.rho))
        fh.write(net.signs.astype(np.int8).tobytes())
        fh.write(net.weights.astype("<f8").tobytes(order="C"))
        fh.write(net.init_weights.astype("<f8").tobytes(order="C"))


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(struct.calcsize("<qqd"))
        m, d, rho = struct.unpack("<qqd", header)
        signs = np.frombuffer(fh.read(m), dtype=np.int8).astype(float)
        nbytes = m * d * 8
        weights = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(m, d).copy()
        init_weights = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(m, d).copy()
        if len(signs) != m or weights.size != m * d:
            raise ValueError("truncated network file")
    return Network(
        m=m, d=d, rho=rho, signs=signs, weights=weights, init_weights=init_weights
    )
