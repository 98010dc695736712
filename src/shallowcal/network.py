"""Width-m shallow ReLU predictor and its frozen-feature linearization.

The predictor is

    f(x; rho, a, W) = (rho / sqrt(m)) * sum_j a_j * max(0, w_j . x)

with fixed random signs a_j in {-1, +1}, trainable rows w_j, and an output
temperature rho.  The weight gradient has rows

    (rho / sqrt(m)) * a_j * [w_j . x >= 0] * x

and the indicator at zero preactivation is taken to be 1, so that the
1-homogeneity identity <grad f(x; W), W> = f(x; W) is exact.  So a network
at W also stands for its gradient features frozen at W: the linear predictor
<grad f(x; W), V> is ``frozen_forward_batch(net, V, X)``, and
``freeze_features`` keeps it by copying the network with its weights.

For inputs of dimension at most 2 the kernel tests w_j . x >= 0 without fused
multiply-adds, so an exactly perpendicular pair counts as active.  For
d > 2 the indicator is the sign of the BLAS product X @ W^T, which may fuse
multiply-adds and so round a w_j . x within rounding of zero to either
sign.  An unfused mask costs more than three times as much per pass (33 ms
against 9 ms for one masked sum at n = 1024, m = 4096, d = 4 on a 2-vCPU
x86_64 machine with OpenBLAS), so the dense path keeps the BLAS sign.
On the dense path ``forward_batch`` forms no mask: f is read as
(rho / sqrt(m)) * relu(X W^T) a in one pass (see
``kernel.DenseKernel.margins``), which rounds differently from the masked
sum.  The pass is chosen by value, so ``frozen_forward_batch`` at V equal
to W and the trainer's risk at W take it too, and all three agree exactly.
The kernel checks both passes' operands: X is (n, d), V is (m, d), and
weights and inputs are finite, or it raises ``ValueError``.

Randomness contract: networks are initialized from ``numpy.random.default_rng``
(PCG64); the stream is consumed as all of W (row-major, standard normal via
NumPy's ziggurat ``standard_normal``) followed by the m signs (``integers``).
This order is fixed so that runs are reproducible across versions of this
package on a given NumPy build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import kernel
from .metrics import check, frobenius_norm

__all__ = [
    "Network",
    "augment_batch",
    "clone_initial",
    "forward_batch",
    "freeze_features",
    "frozen_forward_batch",
    "init_network",
]


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

    def __post_init__(self):
        check("m", self.m, "count")
        check("d", self.d, "count")
        check("rho", self.rho, "positive")
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
        return frobenius_norm(self.weights - self.init_weights)


def init_network(m: int, d: int, rho: float, seed: int) -> Network:
    """Fresh network with standard normal weights and fair random signs.

    The RNG stream order is fixed: all of W row-major first, then the signs.
    """
    check("m", m, "count")
    check("d", d, "count")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((m, d))
    signs = rng.integers(0, 2, size=m).astype(float) * 2.0 - 1.0
    return Network(
        m=m,
        d=d,
        rho=float(check("rho", rho, "positive")),
        signs=signs,
        weights=weights,
        init_weights=weights.copy(),
    )


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Margins f(x_k; W) for all rows of X."""
    return kernel(net.weights, net.signs, net.scale, X).margins(net.weights)


def freeze_features(net: Network, at_init: bool = False) -> Network:
    """A snapshot of the network at its current (or initial) weights, which
    stands for its gradient features there.

    The weights are copied, so later training of ``net`` leaves the snapshot
    as it was; the read-only signs and initialization are shared.
    """
    source = net.init_weights if at_init else net.weights
    return replace(net, weights=source.copy())


def clone_initial(net: Network) -> Network:
    """A network reset to its initialization (weights = init snapshot)."""
    return freeze_features(net, at_init=True)


def frozen_forward_batch(net: Network, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Linear predictor <grad f(x_k; W), V> at every row of X, W = net.weights."""
    return kernel(net.weights, net.signs, net.scale, X).margins(V)


def augment_batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("augment_batch expects an (n, d) array")
    ones = np.ones((X.shape[0], 1))
    return np.hstack([X, ones]) / np.sqrt(2.0)
