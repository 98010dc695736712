"""The masked margin, the package's core operation, and its adjoint.

Every predictor, gradient and frozen-feature risk in the package is the
masked margin

    f_k = scale * sum_j a_j [s_j . x_k >= 0] (v_j . x_k)

over sources s_j, values v_j and signs a_j, or its adjoint.  Both are sums
over the 0/1 activation matrix M[k, j] = [s_j . x_k >= 0]: f_k is scale
times x_k . (M @ (a * V))_k, and the adjoint is scale * a * (M^T @ (c * X)).
So each backend supplies only the two sums ``mask_sum(R) = M @ R`` (n x c)
and ``mask_adjoint(C) = M^T @ C`` (m x c), and shared code builds
``margins``, ``margins_many`` (several values matrices read by one
``mask_sum`` of the stacked a * V) and ``adjoint`` on them.

The shared code holds every m-long array as a contiguous row: the stacked
a * V is a (c, m) array and the adjoint is formed as the d rows of G.T.  At
m = 2^16 a numpy pass over the columns of an (m, c) array costs several
times one over (c, m) rows.  So a backend takes each sum's operand
transposed: ``_sum_rows(R.T)`` returns M @ R and ``_adjoint_rows(C.T)``
returns (M^T @ C).T, and ``mask_sum`` and ``mask_adjoint`` are those two
read through transposes.  ``adjoint`` still returns G as a C-ordered
(m, d) array.  ``kernel`` returns the object for one source matrix on one
point set; it is the only place that chooses a backend:

* ``ArcKernel`` for inputs of dimension at most 2.  In the plane, the closed
  half-plane s . x_k >= 0 of a point meets its sources, sorted by angle
  into a ``Ring``, in one contiguous circular arc, and the ends of the n
  arcs cut the ring into at most 2n + 1 segments.  So a sum over the
  sources active at each point is a difference of the segments' prefix
  sums, and a sum over the points active for each source is a cumulative
  sum of a difference array over the segments; each reads the m sources
  in one pass in their own order.  One sort of the sources and one binary
  search per point make it O((n + m) log m) in all.  In 1-d, where
  inputs are x or (x, 1)/sqrt(2), a shallow ReLU network is thus a linear
  spline with m knots (Savarese et al., COLT 2019; Williams et al., NeurIPS
  2019).  A 1-d input x is treated as the planar point (x, 0).
* ``DenseKernel`` otherwise: over tiles of points and sources, each tile's
  mask is formed once per pass as a float 0/1 array and meets one matrix
  product whose inner dimension is the tile width; every temporary is at
  most ``_CHUNK_BUDGET`` scalars, besides a C-ordered (d, width) copy of
  the current block of sources, transposed.  It copies its operand to a
  C-ordered (m, c) or (n, c) array once per pass: BLAS can round a product
  of a transposed operand differently, and the copy keeps the bits
  independent of the layout the caller passed.  At the sources themselves the masked
  margin is the ReLU network, [s . x >= 0] (s . x) = max(0, s . x), so
  ``margins`` of a values matrix equal to the sources forms no mask: each
  tile's preactivations are turned into their positive parts in place and
  meet the signs.  The choice is made by value, not identity.

Points and sources must be finite: ``_operands``, the one entry of both
backends, and ``Ring`` raise ``ValueError`` for a NaN or infinite
coordinate, and no code below them handles one.

``adjoint_margins(coeff, refs)`` returns the adjoint G, the margins of G and
the margins of each reference matrix: the trainer's frozen risk along a
step W - eta G has margins f - eta * margins(G), linear in eta, and its
regret references are read under the same mask.  The shared code makes the
adjoint pass and then one ``margins_many`` of G and the references;
``DenseKernel`` fuses them into one pass over full-height strips, where each
strip's mask is complete for every point, so a strip's rows of G are final
as soon as they are formed and meet the same mask again at once, beside
the references' rows.  A dense trainer step thus forms W's mask once.

A ``Ring`` is read-only and stands alone, so a caller that needs only the
number of sources active at each point, ``mask_sum`` of a ones column,
sorts the sources once and reads each point set's arc lengths
``hi - lo``, plus the zero sources, from ``Ring.arcs``: the Monte Carlo
reference counts its held feature sample that way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArcKernel", "DenseKernel", "Ring", "kernel", "tiles"]

# Scalars in one tile of the dense kernel: 512 KiB of float64, so the
# preactivations, their mask and the masked products of a tile stay in a
# core's L2 cache.  Up to _CHUNK_BUDGET // 64 = 1024 points, a tile is a
# full-height strip of _CHUNK_BUDGET // n sources; for more points it is at
# most 1024 sources wide, so one block of sources stays cached while the
# blocks of points pass over it (Goto & van de Geijn, ACM TOMS 2008).  Every
# pass forms each tile's mask once, which costs less than streaming a stored
# n x m mask through main memory, and the fused ``adjoint_margins`` pass
# serves the adjoint and every margin it returns from each strip's one mask.
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


def _checked(A, name: str) -> np.ndarray:
    """A as a float array; a NaN or infinite entry is a ValueError."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError(f"{name} must be finite")
    return A


def _operands(sources, X) -> tuple[np.ndarray, np.ndarray]:
    sources = np.ascontiguousarray(_checked(sources, "sources"))
    X = np.ascontiguousarray(_checked(X, "points"))
    if sources.ndim != 2:
        raise ValueError("sources must form an (m, d) array")
    if X.ndim != 2 or X.shape[1] != sources.shape[1]:
        raise ValueError(f"X must have shape (n, {sources.shape[1]}), got {X.shape}")
    return sources, X


def kernel(sources, signs, scale: float, X):
    """Masked margins of ``sources`` on the rows of X: exact arcs when the
    points have dimension at most 2, dense tiled products otherwise."""
    arcs = np.ndim(X) == 2 and np.shape(X)[1] <= 2
    return (ArcKernel if arcs else DenseKernel)(sources, signs, scale, X)


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
    """``rows``, indices of nonzero rows of the planar P, in the order
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


class Ring:
    """Sources of dimension at most 2 sorted by angle, over which the closed
    half-plane s . x >= 0 of every point x is one contiguous circular arc.

    ``order`` indexes the nonzero sources in the order of ``_by_angle``,
    ``phi`` holds their angles and ``rows`` their planar rows in that order.
    ``zero`` indexes the zero sources, which are active at every point.
    Sources and points must be finite.  The arrays are read-only, so one
    ring serves any number of point sets.
    """

    def __init__(self, sources):
        S = _plane(_checked(sources, "sources"))
        # Column-wise tests: a reduction over each short row costs ten times more.
        nonzero = (S[:, 0] != 0) | (S[:, 1] != 0)
        self.zero = np.flatnonzero(~nonzero)
        self.order, self.phi = _by_angle(S, np.flatnonzero(nonzero))
        self.rows = S.take(self.order, axis=0)
        for a in (self.zero, self.order, self.phi, self.rows):
            a.flags.writeable = False

    def arcs(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Arc [lo, hi) of the ring at every row of X.

        Position p < k is ring row p and position p + k its copy one turn
        later, so 0 <= lo < k and lo <= hi <= lo + k.  A zero point spans
        the whole ring.

        The ends come from a search over angles and are settled with the
        rounded predicate s1*x1 + s2*x2 >= 0: the ring rows just inside
        each end pass it and those just outside fail it.  Only the ends are
        tested, so [lo, hi) is exactly the set of ring rows passing the
        predicate where those rows are contiguous in angle order.  That
        holds when the products are exact, as on dyadic inputs, and it held
        on every Gaussian set measured; it fails for rows a few ulps apart
        in direction, whose rounded products can interleave across an end.
        """
        P, Q, phi = _plane(_checked(X, "points")), self.rows, self.phi
        k = len(Q)
        if k == 0:
            return np.zeros(len(P), dtype=np.intp), np.zeros(len(P), dtype=np.intp)
        x1, x2 = P[:, 0].copy(), P[:, 1].copy()
        start = _angles(P) - 0.5 * np.pi
        start[start < -np.pi] += 2.0 * np.pi

        def rank(end, side):
            """Position of an end angle in [-pi, 2 pi] on the ring's two turns."""
            late = end >= np.pi
            return np.searchsorted(phi, end - 2.0 * np.pi * late, side) + k * late

        a, b = rank(start, "left"), rank(start + np.pi, "right")
        # arctan2(0, 0) = 0 gives a zero point half a circle; the settling
        # below would widen it one source per pass, so set the full circle.
        zero = (x1 == 0) & (x2 == 0)
        a[zero], b[zero] = 0, k

        def moves(r, end, probe, step, grow):
            """Points whose end must step: its probed source is active (grow) or not (trim)."""
            room = (b[r] - a[r] < k) if grow else (b[r] > a[r])
            q = Q.take(end[r] + probe, axis=0, mode="wrap")
            act = x1[r] * q[:, 0] + x2[r] * q[:, 1] >= 0
            return room & (act == grow)

        # Extend the start backwards, trim inactive sources off the start,
        # extend the end forwards, trim inactive sources off the end.  Only
        # points failing one of the four end tests can move at all.
        steps = ((a, -1, -1, True), (a, 0, 1, False), (b, 0, 1, True), (b, -1, -1, False))
        suspect = np.flatnonzero(np.logical_or.reduce([moves(slice(None), *s) for s in steps]))
        for end, probe, step, grow in steps:
            r = suspect
            while r.size:
                r = r[moves(r, end, probe, step, grow)]
                end[r] += step
        shift = np.floor_divide(a, k) * k
        return a - shift, b - shift


class _MaskedSums:
    """Margins and adjoint of one source matrix on one point set, built on
    the backend's ``_sum_rows`` and ``_adjoint_rows``."""

    def __init__(self, sources, signs, scale: float, X):
        self.sources, self.X = _operands(sources, X)
        self.n, self.d = self.X.shape
        self.signs = np.asarray(signs, dtype=float)
        m = len(self.sources)
        if self.signs.shape != (m,):
            raise ValueError(f"signs must have shape ({m},), got {self.signs.shape}")
        self.scale = float(scale)

    def mask_sum(self, R) -> np.ndarray:
        """M @ R, shape (n, c)."""
        return self._sum_rows(np.asarray(R, dtype=float).T)

    def mask_adjoint(self, C) -> np.ndarray:
        """M^T @ C, shape (m, c)."""
        return self._adjoint_rows(np.asarray(C, dtype=float).T).T

    def _rowdot(self, S: np.ndarray) -> np.ndarray:
        """scale * x_k . S_k at every point."""
        return self.scale * np.einsum("ij,ij->i", self.X, S)

    def _values(self, V) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        if V.shape != self.sources.shape:
            raise ValueError(f"values must have shape {self.sources.shape}, got {V.shape}")
        return V

    def margins_many(self, values_list) -> list[np.ndarray]:
        """``margins`` of each values matrix, all read by one ``mask_sum``."""
        d = self.d
        rows = np.empty((d * len(values_list), len(self.sources)))
        for i, V in enumerate(values_list):
            np.multiply(self._values(V).T, self.signs, out=rows[i * d : (i + 1) * d])
        S = self._sum_rows(rows)
        return [self._rowdot(block) for block in np.split(S, len(values_list), axis=1)]

    def margins(self, values) -> np.ndarray:
        """scale * sum_j a_j [s_j . x >= 0] (v_j . x) at every point, shape (n,)."""
        return self.margins_many([values])[0]

    def adjoint(self, coeff) -> np.ndarray:
        """Rows scale * a_j * sum_k c_k [s_j . x_k >= 0] x_k, a C-ordered
        array of shape (m, d).  The sign scaling writes the rows of G.T
        into a transposed view of G: at m = 2^16, d = 2 that pass takes
        about as long as a contiguous one, and a transposing copy after it
        would take 2.5 times as long again."""
        G = np.empty((len(self.sources), self.d))
        np.multiply(self._adjoint_rows(self._weighted_rows(coeff)), self.scale * self.signs,
                    out=G.T)
        return G

    def adjoint_margins(self, coeff, refs=()) -> tuple[np.ndarray, ...]:
        """``adjoint(coeff)``, the ``margins`` of it, then the ``margins`` of
        each values matrix in ``refs``: G of shape (m, d), then (n,) arrays.
        The margins of G and of the references come from one ``margins_many``."""
        G = self.adjoint(coeff)
        return G, *self.margins_many([G, *refs])

    def _weighted_rows(self, coeff) -> np.ndarray:
        """The points c_k x_k the adjoint sums, as d rows of length n."""
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (self.n,):
            raise ValueError(f"coeff must have shape ({self.n},), got {coeff.shape}")
        return self.X.T * coeff


class ArcKernel(_MaskedSums):
    """Activation arcs of one point set of dimension <= 2 over the ring of
    its sources.

    ``mask_sum`` and ``mask_adjoint`` agree with ``DenseKernel`` up to
    summation order, under the same tie rule: a point with s.x == 0 is
    active, a zero source row is active on every point, and every source is
    active on a zero point.  Each arc's ends come from a search over angles
    and are then settled with the rounded predicate s1*x1 + s2*x2 >= 0,
    without fused multiply-add.  The mask is that predicate's wherever the
    sources active at each point are contiguous in angle order (see
    ``Ring.arcs``): for exact products, such as dyadic inputs, and on every
    Gaussian set measured, but not for clusters of rows a few ulps apart.
    A BLAS product that fuses can round an s.x within rounding of zero to
    the other sign, so the dense path can disagree on such points too.
    """

    def __init__(self, sources, signs, scale: float, X):
        super().__init__(sources, signs, scale, X)
        if self.d > 2:
            raise ValueError("arc kernel needs points of dimension at most 2")
        ring = Ring(self.sources)
        k = len(ring.order)
        lo, hi = ring.arcs(self.X)
        # An arc past the end of the ring ends at hi - k on the same turn
        # and also covers the ring's start.  The distinct arc ends c_0 <
        # c_1 < ... cut the ring into segments: segment s holds positions
        # [c_(s-1), c_s), those with s cuts at or before them, so every arc
        # is the run of segments [lo_at, end_at).
        self.wrap = hi > k
        end = hi - k * self.wrap
        cuts = np.zeros(k + 1, dtype=np.intp)
        cuts[lo] = cuts[end] = 1
        rank = np.cumsum(cuts)
        self.lo_at, self.end_at, self.n_seg = rank[lo], rank[end], rank[k] + 1
        # Segment n_seg holds the zero sources.
        self.segment = np.empty(len(self.sources), dtype=np.intp)
        self.segment[ring.order] = rank[:k]
        self.segment[ring.zero] = self.n_seg

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """M @ rows.T, shape (n, c): each m-long row summed into segments in
        one pass in source order, and each point's arc read as a difference
        of the segments' prefix sums P, where an arc past the end of the
        ring adds the total P[n_seg], and then the zero sources' sum."""
        out = np.empty((self.n, len(rows)))
        for row, s in zip(rows, out.T):
            seg = np.bincount(self.segment, row, minlength=self.n_seg + 1)
            prefix = np.concatenate(([0.0], np.cumsum(seg[: self.n_seg])))
            s[:] = (prefix[self.end_at] + np.where(self.wrap, prefix[-1], 0.0)
                    - prefix[self.lo_at] + seg[self.n_seg])
        return out

    def _adjoint_rows(self, rows: np.ndarray) -> np.ndarray:
        """(M^T @ rows.T).T, shape (c, m): each n-long row summed over the
        arcs holding each segment by a difference array, where an arc past
        the end of the ring also starts at segment 0, then read out to the
        sources in source order; a zero source takes every point."""
        out = np.empty((len(rows), len(self.sources)))
        for row, o in zip(rows, out):
            diff = np.bincount(self.lo_at, row, minlength=self.n_seg + 1)
            diff -= np.bincount(self.end_at, row, minlength=self.n_seg + 1)
            diff[0] += row[self.wrap].sum()
            value = np.concatenate((np.cumsum(diff[: self.n_seg]), [row.sum()]))
            value.take(self.segment, out=o)
        return out


class DenseKernel(_MaskedSums):
    """Masked sums by dense products, for points of any dimension.

    Each sum makes one pass over the ``tiles`` of points and sources in
    order, and ``adjoint_margins`` one pass for all its sums when the tiles
    are full-height strips.  A tile's preactivations are formed afresh and
    turned in place into a float 0/1 mask, which then meets matrix
    products with a C-ordered copy of the operand, so results are
    deterministic whatever the operand's layout and no n x m array is held.
    ``margins`` at the sources themselves needs no mask: it is the ReLU
    network, and its pass turns each tile's preactivations in place into
    their positive parts.  The sources are read on every call and must not
    change while the kernel is in use.  The mask is the sign of the BLAS
    product, which may fuse multiply-adds.
    """

    def _preactivations(self, grid=None):
        # Each block of sources is copied once, transposed, to a C-ordered
        # (d, width) array: X @ that runs 11-15% faster than X @ S[cols].T,
        # with the same bits (m = 4096, d = 4, OpenBLAS on x86_64).
        block = None
        for rows, cols in tiles(self.n, len(self.sources)) if grid is None else grid:
            if cols != block:
                block, ST = cols, np.ascontiguousarray(self.sources[cols].T)
            yield rows, cols, self.X[rows] @ ST

    def _masks(self, grid=None):
        for rows, cols, pre in self._preactivations(grid):
            yield rows, cols, np.greater_equal(pre, 0.0, out=pre)

    def _relus(self):
        for rows, cols, pre in self._preactivations():
            yield rows, cols, np.maximum(pre, 0.0, out=pre)

    def margins(self, values) -> np.ndarray:
        """As ``_MaskedSums.margins``.  When ``values`` equals the sources,
        [s . x >= 0] (s . x) = max(0, s . x), so the margins are
        scale * relu(X S^T) @ a: one pass of preactivation products and
        in-place ReLUs, each tile's met by the signs."""
        if not np.array_equal(values, self.sources):
            return super().margins(values)
        out = np.zeros(self.n)
        for rows, cols, relu in self._relus():
            out[rows] += relu @ self.signs[cols]
        out *= self.scale
        return out

    def _sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """M @ rows.T, shape (n, c)."""
        R = np.ascontiguousarray(rows.T)
        out = np.zeros((self.n, R.shape[1]))
        for pts, cols, mask in self._masks():
            out[pts] += mask @ R[cols]
        return out

    def _adjoint_rows(self, rows: np.ndarray) -> np.ndarray:
        """(M^T @ rows.T).T, shape (c, m)."""
        C = np.ascontiguousarray(rows.T)
        out = np.zeros((len(self.sources), C.shape[1]))
        for pts, cols, mask in self._masks():
            out[cols] += mask.T @ C[pts]
        return out.T

    def adjoint_margins(self, coeff, refs=()) -> tuple[np.ndarray, ...]:
        """``adjoint(coeff)``, the ``margins`` of it and of each reference
        from one pass when the tiles are full-height strips: a strip's mask
        is complete for every point, so its rows of G are final, and one
        product of the same mask with [a G | a Z_1 | ...] on the strip's
        sources reads the margins of G and of every reference at once.
        Shorter tiles fall back to the adjoint and one ``margins_many``."""
        grid = tiles(self.n, len(self.sources))
        if any(rows.stop - rows.start < self.n for rows, _ in grid):
            return super().adjoint_margins(coeff, refs)
        C = np.ascontiguousarray(self._weighted_rows(coeff).T)
        d = self.d
        AV = np.empty((len(self.sources), d * (1 + len(refs))))
        for i, Z in enumerate(refs, 1):
            np.multiply(self.signs[:, None], self._values(Z), out=AV[:, i * d : (i + 1) * d])
        G = np.empty_like(self.sources)
        S = np.zeros((self.n, AV.shape[1]))
        for _, cols, mask in self._masks(grid):
            G[cols] = self.scale * self.signs[cols, None] * (mask.T @ C)
            np.multiply(self.signs[cols, None], G[cols], out=AV[cols, :d])
            S += mask @ AV[cols]
        return G, *(self._rowdot(block) for block in np.split(S, 1 + len(refs), axis=1))
