"""The masked margin, the package's core operation, and its adjoint.

Every predictor, gradient and frozen-feature risk in the package is the
masked margin

    f_k = scale * sum_j a_j [s_j . x_k >= 0] (v_j . x_k)

over sources s_j, values v_j and signs a_j, or its adjoint.  Both are sums
over the 0/1 activation matrix M[k, j] = [s_j . x_k >= 0]: f_k is scale
times x_k . (M @ (a * V))_k, and the adjoint is scale * a * (M^T @ (c * X)).
So each backend supplies only ``mask_sum(R) = M @ R`` (n x c) and
``mask_adjoint(C) = M^T @ C`` (m x c), and shared code builds ``margins``,
``margins_many`` (several values matrices read by one ``mask_sum`` of the
stacked a * V) and ``adjoint`` on them.  ``kernel`` returns the object for
one source matrix on one point set; it is the only place that chooses a
backend:

* ``ArcKernel`` for inputs of dimension at most 2.  In the plane, the closed
  half-plane s_j . x >= 0 meets the angle-sorted points in one contiguous
  circular arc, so a sum over the sources active at a point is a cumulative
  sum of a difference array, and a sum over the points active for a source
  is a difference of prefix sums: O((n + m) log(n + m)) in all.  In 1-d,
  where inputs are x or (x, 1)/sqrt(2), a shallow ReLU network is thus a
  linear spline with m knots (Savarese et al., COLT 2019; Williams et al.,
  NeurIPS 2019).  A 1-d input x is treated as the planar point (x, 0).
* ``DenseKernel`` otherwise: over tiles of points and sources, each tile's
  mask is formed once per pass as a float 0/1 array and meets one matrix
  product whose inner dimension is the tile width; every temporary is at
  most ``_CHUNK_BUDGET`` scalars.

``adjoint_margins(coeff)`` returns the adjoint G and the margins of G
together: the trainer's frozen risk along a step W - eta G has margins
f - eta * margins(G), linear in eta.  The shared code composes the two
passes; ``DenseKernel`` fuses them into one pass over full-height strips,
where each strip's mask is complete for every point, so a strip's rows of G
are final as soon as they are formed and meet the same mask again at once.

``count_active(sources, X)`` is ``mask_sum`` of a ones column, the number of
sources active at each point, which is all the Monte Carlo reference needs.
For dimension at most 2 it turns the arcs around: each point's closed
half-plane meets the angle-sorted sources in one contiguous arc, so the
sources are sorted once and the arc work runs over the points.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArcKernel", "DenseKernel", "count_active", "kernel", "tiles"]

# Scalars in one tile of the dense kernel: 512 KiB of float64, so the
# preactivations, their mask and the masked products of a tile stay in a
# core's L2 cache.  Up to _CHUNK_BUDGET // 64 = 1024 points, a tile is a
# full-height strip of _CHUNK_BUDGET // n sources; for more points it is at
# most 1024 sources wide, so one block of sources stays cached while the
# blocks of points pass over it (Goto & van de Geijn, ACM TOMS 2008).  Every
# pass forms each tile's mask once, which costs less than streaming a stored
# n x m mask through main memory, and the fused ``adjoint_margins`` pass
# serves two sums from each strip's one mask.
_CHUNK_BUDGET = 1 << 16


def tiles(n: int, m: int) -> list[tuple[slice, slice]]:
    """(points, sources) slice pairs tiling the n x m grid in a fixed order:
    blocks of sources, and within each, blocks of points, each tile at most
    ``_CHUNK_BUDGET`` scalars (one row at least).  Up to
    ``_CHUNK_BUDGET // 64`` points each block of sources is one full-height
    strip of ``_CHUNK_BUDGET // n`` sources; above that, a block is at most
    ``_CHUNK_BUDGET // 64`` sources wide."""
    tall = max(1, n if n <= _CHUNK_BUDGET // 64 else 64)
    width = max(1, min(m, _CHUNK_BUDGET // tall))
    step = max(1, _CHUNK_BUDGET // width)
    return [
        (slice(lo, min(n, lo + step)), slice(c0, min(m, c0 + width)))
        for c0 in range(0, m, width)
        for lo in range(0, n, step)
    ]


def _operands(sources, X) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    sources = np.asarray(sources, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must form an (n, d) array")
    if sources.ndim != 2 or sources.shape[1] != X.shape[1]:
        raise ValueError(f"sources must have shape (m, {X.shape[1]})")
    return sources, X


def kernel(sources, signs, scale: float, X):
    """Masked margins of ``sources`` on the rows of X: exact arcs when the
    points have dimension at most 2, dense tiled products otherwise."""
    sources, X = _operands(sources, X)
    return (ArcKernel if X.shape[1] <= 2 else DenseKernel)(sources, signs, scale, X)


def _plane(A: np.ndarray) -> np.ndarray:
    """Rows of A as planar points; A itself when it already has 2 columns."""
    if A.shape[1] == 2:
        return A
    out = np.zeros((A.shape[0], 2))
    out[:, : A.shape[1]] = A
    return out


def _angles(P: np.ndarray) -> np.ndarray:
    """Polar angles of planar rows in [-pi, pi)."""
    theta = np.arctan2(P[:, 1], P[:, 0])
    theta[theta >= np.pi] -= 2.0 * np.pi
    return theta


def _by_angle(P: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows``, indices of finite nonzero rows of the planar P, in the order
    of their polar angles, and the sorted angles.

    The unstable default sort is used, since distinct angles have only one
    sorted order.  When two adjacent sorted angles compare equal, the rows
    are directions closer than arctan2 resolves: the stable sort is made
    instead, and each run of equal angles is ordered counterclockwise by
    cross products with its first row, so an arc end never splits a run out
    of order.
    """
    theta = _angles(P.take(rows, axis=0))
    order = np.argsort(theta)
    phi = theta[order]
    if np.any(phi[1:] == phi[:-1]):
        order = np.argsort(theta, kind="stable")
        phi, Q = theta[order], P.take(rows[order], axis=0)
        run = np.cumsum(np.diff(phi, prepend=phi[:1]) != 0)
        ref = Q[np.searchsorted(run, run)]
        order = order[np.lexsort((ref[:, 0] * Q[:, 1] - ref[:, 1] * Q[:, 0], run))]
    return rows[order], phi


def _ranks(ring: np.ndarray, keys: np.ndarray, order, side: str) -> np.ndarray:
    """``np.searchsorted(ring, keys, side)``.

    With ``order`` None the keys are searched in the ring directly.  When
    the keys outnumber the ring entries, ``order`` sorts them: the ring is
    searched in the sorted keys instead, and the counts are accumulated
    back; this avoids one unpredictable binary search per key.
    """
    if order is None:
        return np.searchsorted(ring, keys, side=side)
    q = np.searchsorted(keys[order], ring, side="right" if side == "left" else "left")
    out = np.empty(len(keys), dtype=np.intp)
    out[order] = np.cumsum(np.bincount(q, minlength=len(keys) + 1)[:-1])
    return out


def _arcs(S: np.ndarray, P: np.ndarray, ring: np.ndarray, phi: np.ndarray):
    """Arc [lo, hi) of every planar row of S over a ring of rows of P.

    ``ring`` and ``phi`` are the rows of P and their angles from
    ``_by_angle``.  Position p < k is ring row p and position p + k its
    copy one turn later, so 0 <= lo < k and lo <= hi <= lo + k.  A zero
    row of S spans the whole ring.

    The ends come from a search over angles and are settled with the
    rounded predicate s1*x1 + s2*x2 >= 0: the ring rows just inside each
    end pass it and those just outside fail it.  Only the ends are tested,
    so [lo, hi) is exactly the set of ring rows passing the predicate
    where those rows are contiguous in angle order.  That holds when the
    products are exact, as on dyadic inputs, and it held on every Gaussian
    set measured; it fails for rows a few ulps apart in direction, whose
    rounded products can interleave across an end.
    """
    k = len(phi)
    if k == 0:
        return np.zeros(len(S), dtype=np.intp), np.zeros(len(S), dtype=np.intp)
    s1, s2 = S[:, 0].copy(), S[:, 1].copy()
    Q = P.take(ring, axis=0)
    start = _angles(S) - 0.5 * np.pi
    start[start < -np.pi] += 2.0 * np.pi
    doubled = np.empty(2 * k)
    doubled[:k] = phi
    np.add(phi, 2.0 * np.pi, out=doubled[k:])
    by_start = np.argsort(start) if len(S) >= 2 * k else None
    a = _ranks(doubled, start, by_start, "left")
    b = _ranks(doubled, start + np.pi, by_start, "right")
    # arctan2(0, 0) = 0 gives a zero row half a circle; the settling
    # below would widen it one point per pass, so set the full circle.
    zero = (s1 == 0) & (s2 == 0)
    a[zero], b[zero] = 0, k

    def moves(r, end, probe, step, grow):
        """Rows whose end must step: its probed point is active (grow) or not (trim)."""
        room = (b[r] - a[r] < k) if grow else (b[r] > a[r])
        q = Q.take(end[r] + probe, axis=0, mode="wrap")
        act = s1[r] * q[:, 0] + s2[r] * q[:, 1] >= 0
        return room & (act == grow)

    # Extend the start backwards, trim inactive points off the start,
    # extend the end forwards, trim inactive points off the end.  Only
    # rows failing one of the four end tests can move at all.
    steps = ((a, -1, -1, True), (a, 0, 1, False), (b, 0, 1, True), (b, -1, -1, False))
    suspect = np.flatnonzero(np.logical_or.reduce([moves(slice(None), *s) for s in steps]))
    for end, probe, step, grow in steps:
        r = suspect
        while r.size:
            r = r[moves(r, end, probe, step, grow)]
            end[r] += step
    shift = np.floor_divide(a, k) * k
    return a - shift, b - shift


def count_active(sources, X) -> np.ndarray:
    """Number of sources active at each row of X, shape (n,): ``mask_sum``
    of a ones column, under the kernels' tie rules, as integers.  A point
    with a non-finite coordinate counts 0.

    For points of dimension at most 2 the arcs are turned around: the
    nonzero sources are sorted by angle once, each point's closed
    half-plane is the arc of them that ``_arcs`` finds and settles, and
    every zero source is active everywhere.  The count then equals that
    of the rounded predicate s1*x1 + s2*x2 >= 0 under ``_arcs``'s
    condition: where the sources active at a point are contiguous in
    angle order.  Otherwise the dense kernel sums a ones column.
    """
    sources, X = _operands(sources, X)
    finite = np.isfinite(X).all(axis=1)
    if X.shape[1] > 2:
        ones = np.ones((len(sources), 1))
        count = DenseKernel(sources, ones[:, 0], 1.0, X).mask_sum(ones)[:, 0].astype(np.intp)
        count[~finite] = 0
        return count
    S = _plane(sources)
    kept = np.flatnonzero((S[:, 0] != 0) | (S[:, 1] != 0))
    ring, phi = _by_angle(S, kept)
    lo, hi = _arcs(_plane(X[finite]), S, ring, phi)
    count = np.zeros(len(X), dtype=np.intp)
    count[finite] = hi - lo + (len(S) - len(kept))
    return count


class _MaskedSums:
    """Margins and adjoint of one source matrix on one point set,
    built on the backend's ``mask_sum`` and ``mask_adjoint``."""

    def __init__(self, sources, signs, scale: float, X):
        self.sources, self.X = _operands(sources, X)
        self.n, self.d = self.X.shape
        self.signs = np.asarray(signs, dtype=float)
        self.scale = float(scale)
        self._nonfinite = np.flatnonzero(~np.isfinite(self.X).all(axis=1))

    def _rowdot(self, S: np.ndarray) -> np.ndarray:
        """scale * x_k . S_k at every point; NaN where x_k is not finite."""
        out = self.scale * np.einsum("ij,ij->i", self.X, S)
        out[self._nonfinite] = np.nan
        return out

    def margins_many(self, values_list) -> list[np.ndarray]:
        """``margins`` of each values matrix, all read by one ``mask_sum``."""
        d = self.d
        R = np.empty((len(self.signs), d * len(values_list)))
        for i, V in enumerate(values_list):
            np.multiply(self.signs[:, None], V, out=R[:, i * d : (i + 1) * d])
        S = self.mask_sum(R)
        return [self._rowdot(block) for block in np.split(S, len(values_list), axis=1)]

    def margins(self, values) -> np.ndarray:
        """scale * sum_j a_j [s_j . x >= 0] (v_j . x) at every point, shape (n,)."""
        return self.margins_many([values])[0]

    def adjoint(self, coeff) -> np.ndarray:
        """Rows scale * a_j * sum_k c_k [s_j . x_k >= 0] x_k, shape (m, d)."""
        return self.scale * self.signs[:, None] * self.mask_adjoint(self._weighted(coeff))

    def adjoint_margins(self, coeff) -> tuple[np.ndarray, np.ndarray]:
        """``adjoint(coeff)`` and the ``margins`` of it, shape (m, d) and (n,)."""
        G = self.adjoint(coeff)
        return G, self.margins(G)

    def _weighted(self, coeff) -> np.ndarray:
        """The rows c_k x_k the adjoint sums."""
        return np.asarray(coeff, dtype=float)[:, None] * self.X


class ArcKernel(_MaskedSums):
    """Activation arcs of one source matrix on one point set of dimension <= 2.

    ``mask_sum`` and ``mask_adjoint`` agree with ``DenseKernel`` up to
    summation order, under the same tie rule: a point with s.x == 0 is
    active, a zero source row is active on every point, and every source is
    active on a zero point.  Each arc's ends come from a search over angles
    and are then settled with the rounded predicate s1*x1 + s2*x2 >= 0,
    without fused multiply-add.  The mask is that predicate's wherever the
    points active for each source are contiguous in angle order (see
    ``_arcs``): for exact products, such as dyadic inputs, and on every
    Gaussian set measured, but not for clusters of rows a few ulps apart.
    A BLAS product that fuses can round an s.x within rounding of zero to
    the other sign, so the dense path can disagree on such points too.
    The mask rows of a point with a non-finite coordinate are zero.
    """

    def __init__(self, sources, signs, scale: float, X):
        super().__init__(sources, signs, scale, X)
        if self.d > 2:
            raise ValueError("arc kernel needs points of dimension at most 2")

        pts = _plane(self.X)
        finite = np.isfinite(pts).all(axis=1)
        nonzero = (pts != 0).any(axis=1)
        self._zero = np.flatnonzero(finite & ~nonzero)
        self.order, phi = _by_angle(pts, np.flatnonzero(finite & nonzero))
        self.lo, self.hi = _arcs(_plane(self.sources), pts, self.order, phi)

    def mask_sum(self, R: np.ndarray) -> np.ndarray:
        """M @ R, shape (n, c): the rows of R summed over the sources
        active at each point, by a difference array over the arcs."""
        k = len(self.order)
        acc = np.empty((2 * k, R.shape[1]))
        for c in range(R.shape[1]):
            diff = np.bincount(self.lo, R[:, c], minlength=2 * k + 1)
            diff -= np.bincount(self.hi, R[:, c], minlength=2 * k + 1)
            np.cumsum(diff[: 2 * k], out=acc[:, c])
        out = np.zeros((self.n, R.shape[1]))
        out[self.order] = acc[:k] + acc[k:]
        if self._zero.size:
            out[self._zero] = R.sum(axis=0)
        return out

    def mask_adjoint(self, C: np.ndarray) -> np.ndarray:
        """M^T @ C, shape (m, c): the rows of C summed over each source's
        arc, as a difference of prefix sums."""
        k = len(self.order)
        sorted_rows = C[self.order]
        prefix = np.zeros((2 * k + 1, C.shape[1]))
        np.cumsum(np.concatenate([sorted_rows, sorted_rows]), axis=0, out=prefix[1:])
        out = prefix[self.hi] - prefix[self.lo]
        if self._zero.size:
            out += C[self._zero].sum(axis=0)
        return out


class DenseKernel(_MaskedSums):
    """Masked sums by dense products, for points of any dimension.

    Each sum makes one pass over the ``tiles`` of points and sources in
    order, and ``adjoint_margins`` one pass for two sums when the tiles are
    full-height strips.  A tile's preactivations are formed afresh and
    turned in place into a float 0/1 mask, which then meets matrix
    products, so results
    are deterministic and no n x m array is held.  The sources are read on
    every call and must not change while the kernel is in use.  The mask is
    the sign of the BLAS product, which may fuse multiply-adds.
    """

    def _masks(self, grid=None):
        for rows, cols in tiles(self.n, len(self.sources)) if grid is None else grid:
            pre = self.X[rows] @ self.sources[cols].T
            yield rows, cols, np.greater_equal(pre, 0.0, out=pre)

    def mask_sum(self, R: np.ndarray) -> np.ndarray:
        """M @ R, shape (n, c)."""
        out = np.zeros((self.n, R.shape[1]))
        for rows, cols, mask in self._masks():
            out[rows] += mask @ R[cols]
        return out

    def mask_adjoint(self, C: np.ndarray) -> np.ndarray:
        """M^T @ C, shape (m, c)."""
        out = np.zeros((len(self.sources), C.shape[1]))
        for rows, cols, mask in self._masks():
            out[cols] += mask.T @ C[rows]
        return out

    def adjoint_margins(self, coeff) -> tuple[np.ndarray, np.ndarray]:
        """``adjoint(coeff)`` and the ``margins`` of it from one pass when the
        tiles are full-height strips: a strip's mask is complete for every
        point, so its rows of G are final and meet the same mask again at
        once.  Shorter tiles fall back to the two passes."""
        grid = tiles(self.n, len(self.sources))
        if any(rows.stop - rows.start < self.n for rows, _ in grid):
            return super().adjoint_margins(coeff)
        C = self._weighted(coeff)
        G = np.empty_like(self.sources)
        S = np.zeros((self.n, self.d))
        for _, cols, mask in self._masks(grid):
            G[cols] = self.scale * self.signs[cols, None] * (mask.T @ C)
            S += mask @ (self.signs[cols, None] * G[cols])
        return G, self._rowdot(S)
