"""Exact masked margins for inputs of dimension at most 2.

The package's core operation is the masked margin

    f_k = scale * sum_j a_j [s_j . x_k >= 0] (v_j . x_k)

over sources s_j, values v_j and signs a_j, with its adjoint.  Dense
products cost O(n m d).  In the plane, the closed half-plane s_j . x >= 0
meets the angle-sorted points in one contiguous circular arc, so a sum over
the sources active at a point is a cumulative sum of a difference array,
and a sum over the points active for a source is a difference of prefix
sums: O((n + m) log(n + m)) in all.  In 1-d, where inputs are x or
(x, 1)/sqrt(2), a shallow ReLU network is thus a linear spline with m
knots (Savarese et al., COLT 2019; Williams et al., NeurIPS 2019).

A 1-d input x is treated as the planar point (x, 0).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArcKernel"]


def _plane(A: np.ndarray) -> np.ndarray:
    out = np.zeros((A.shape[0], 2))
    out[:, : A.shape[1]] = A
    return out


def _angles(P: np.ndarray) -> np.ndarray:
    """Polar angles of planar rows in [-pi, pi)."""
    theta = np.arctan2(P[:, 1], P[:, 0])
    theta[theta >= np.pi] -= 2.0 * np.pi
    return theta


def _ranks(ring: np.ndarray, keys: np.ndarray, order: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(ring, keys, side)`` for many keys and a short ring.

    ``order`` sorts ``keys``.  The ring is searched in the sorted keys
    instead, and the counts are accumulated back; this avoids one
    unpredictable binary search per key.
    """
    q = np.searchsorted(keys[order], ring, side="right" if side == "left" else "left")
    out = np.empty(len(keys), dtype=np.intp)
    out[order] = np.cumsum(np.bincount(q, minlength=len(keys) + 1)[:-1])
    return out


class ArcKernel:
    """Activation arcs of one source matrix on one point set of dimension <= 2.

    ``margins``, ``adjoint`` and ``second_moment`` agree with the dense
    products ``(X @ S.T >= 0)`` up to summation order, under the same tie
    rule: a point with s.x == 0 is active, a zero source row is active on
    every point, and a zero point contributes nothing.  Each arc's ends come
    from a search over angles and are then settled with the elementwise
    predicate, so rounding in the angles cannot move a point across an arc
    boundary.  The predicate is s1*x1 + s2*x2 >= 0 without fused
    multiply-add; a BLAS product that fuses can round an s.x within rounding
    of zero to the other sign, so the dense path can disagree on such
    points.  A point with a non-finite coordinate gets a NaN margin.
    """

    def __init__(self, sources, signs, scale: float, X):
        X = np.asarray(X, dtype=float)
        sources = np.asarray(sources, dtype=float)
        if X.ndim != 2 or X.shape[1] > 2:
            raise ValueError("arc kernel needs points of dimension at most 2")
        if sources.ndim != 2 or sources.shape[1] != X.shape[1]:
            raise ValueError(f"sources must have shape (m, {X.shape[1]})")
        self.n, self.d = X.shape
        self.signs = np.asarray(signs, dtype=float)
        self.scale = float(scale)

        pts = _plane(X)
        finite = np.isfinite(pts).all(axis=1)
        self._nonfinite = np.flatnonzero(~finite)
        kept = np.flatnonzero(finite & (pts != 0).any(axis=1))
        theta = _angles(pts[kept])
        order = np.argsort(theta, kind="stable")
        # Directions closer than arctan2 resolves share an angle; order each
        # such run counterclockwise by cross products with its first point.
        phi, P = theta[order], pts[kept[order]]
        run = np.cumsum(np.diff(phi, prepend=phi[:1]) != 0)
        ref = P[np.searchsorted(run, run)]
        order = order[np.lexsort((ref[:, 0] * P[:, 1] - ref[:, 1] * P[:, 0], run))]
        self.order = kept[order]
        self.points = pts[self.order]
        self.lo, self.hi = self._arcs(_plane(sources), phi)

    def _arcs(self, S: np.ndarray, phi: np.ndarray):
        """Arc [lo, hi) of every source over the doubled sorted order.

        Position p < k is sorted point p and position p + k its copy one turn
        later, so 0 <= lo < k and lo <= hi <= lo + k.
        """
        k = len(phi)
        if k == 0:
            return np.zeros(len(S), dtype=np.intp), np.zeros(len(S), dtype=np.intp)
        s1, s2 = S[:, 0].copy(), S[:, 1].copy()
        start = _angles(S) - 0.5 * np.pi
        start[start < -np.pi] += 2.0 * np.pi
        ring = np.concatenate([phi, phi + 2.0 * np.pi])
        by_start = np.argsort(start)
        a = _ranks(ring, start, by_start, "left")
        b = _ranks(ring, start + np.pi, by_start, "right")
        # arctan2(0, 0) = 0 gives a zero row half a circle; the settling
        # below would widen it one point per pass, so set the full circle.
        zero = (s1 == 0) & (s2 == 0)
        a[zero], b[zero] = 0, k
        px, py = self.points[:, 0].copy(), self.points[:, 1].copy()

        def moves(r, end, probe, step, grow):
            """Rows whose end must step: its probed point is active (grow) or not (trim)."""
            room = (b[r] - a[r] < k) if grow else (b[r] > a[r])
            pos = end[r] + probe
            act = s1[r] * px.take(pos, mode="wrap") + s2[r] * py.take(pos, mode="wrap") >= 0
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

    def _arc_sum(self, rows: np.ndarray) -> np.ndarray:
        """Sum of ``rows[j]`` over the sources whose arc covers each sorted point."""
        k = len(self.order)
        out = np.empty((2 * k, rows.shape[1]))
        for c in range(rows.shape[1]):
            diff = np.bincount(self.lo, rows[:, c], minlength=2 * k + 1)
            diff -= np.bincount(self.hi, rows[:, c], minlength=2 * k + 1)
            np.cumsum(diff[: 2 * k], out=out[:, c])
        return out[:k] + out[k:]

    def _scatter(self, sorted_values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        out[self.order] = sorted_values
        out[self._nonfinite] = np.nan
        return out

    def margins(self, values) -> np.ndarray:
        """scale * sum_j a_j [s_j . x >= 0] (v_j . x) at every point, shape (n,)."""
        S = self._arc_sum(self.signs[:, None] * _plane(np.asarray(values, dtype=float)))
        return self._scatter(self.scale * np.einsum("ij,ij->i", self.points, S))

    def second_moment(self, values) -> np.ndarray:
        """scale * sum_j [s_j . x >= 0] (v_j . x)^2 at every point; signs do not enter."""
        V = _plane(np.asarray(values, dtype=float))
        S = self._arc_sum(np.stack([V[:, 0] ** 2, V[:, 0] * V[:, 1], V[:, 1] ** 2], axis=1))
        x1, x2 = self.points[:, 0], self.points[:, 1]
        quad = x1 * x1 * S[:, 0] + 2.0 * x1 * x2 * S[:, 1] + x2 * x2 * S[:, 2]
        return self._scatter(self.scale * quad)

    def adjoint(self, coeff) -> np.ndarray:
        """Rows scale * a_j * sum_k c_k [s_j . x_k >= 0] x_k, shape (m, d)."""
        k = len(self.order)
        cx = np.asarray(coeff, dtype=float)[self.order, None] * self.points
        prefix = np.zeros((2 * k + 1, 2))
        np.cumsum(np.concatenate([cx, cx]), axis=0, out=prefix[1:])
        rows = prefix[self.hi] - prefix[self.lo]
        return self.scale * self.signs[:, None] * rows[:, : self.d]
