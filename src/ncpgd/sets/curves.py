"""Two planar example sets built on the kinked graph y = max(0, t^(3/5)).

Both sets fail to be smooth at the origin; their cones there have closed
forms, including a proximal normal cone that is a strict, non-closed subset
of the regular normal cone.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Point, norm
from .base import FeasibleSet


def _graph_height(t: float) -> float:
    return t ** 0.6 if t > 0.0 else 0.0


def _graph_point(t: float) -> Point:
    return Point._of(np.array([t, _graph_height(t)]), (2,))


def _nearest_parameter(p: np.ndarray) -> float:
    """Parameter of a closest graph point to p = (a, b), in closed form.

    Candidates: the left ray's (min(a, 0), 0), and the right branch's
    (u^5, u^3) at the positive real roots of 5u^7 + 3u^3 - 5a u^2 - 3b, where
    the squared distance is critical; np.roots finds them, Newton steps polish
    them. Roots returned as a complex pair are skipped: two positive roots can
    only merge at an inflection of the distance, which the origin beats. The
    nearest candidate wins; ties go to the smaller parameter t.

    For |a| >= 1 or |b| >= 1 the polynomial is solved for w = u / 2^e, with
    2^e >= max(|a|^(1/5), |b|^(1/7)), so its coefficients stay of order one
    and the rescaling is exact; distances are compared with hypot. Neither
    overflows for |p| up to about 1e307.
    """
    a, b = float(p[0]), float(p[1])
    e = max(0, math.frexp(max(abs(a) ** 0.2, abs(b) ** (1.0 / 7.0)))[1])
    c3, c2, c0 = math.ldexp(3.0, -4 * e), math.ldexp(5.0 * a, -5 * e), math.ldexp(3.0 * b, -7 * e)
    roots = np.roots([5.0, 0.0, 0.0, 0.0, c3, -c2, 0.0, -c0])
    w = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
    for _ in range(3):
        g = ((5.0 * w ** 4 + c3) * w - c2) * w * w - c0
        dg = ((35.0 * w ** 4 + 3.0 * c3) * w - 2.0 * c2) * w
        w = w - np.divide(g, dg, out=np.zeros_like(w), where=dg != 0.0)
    u = np.ldexp(np.sort(w[w > 0.0]), e)
    ts = np.concatenate(([min(a, 0.0)], u ** 5))
    heights = np.power(np.maximum(ts, 0.0), 0.6)
    d = np.hypot(ts - a, heights - b)
    return float(ts[int(np.argmin(d))])


class _KinkedGraph(FeasibleSet):
    """A planar set whose boundary is the kinked graph, with its kink at the origin.

    Strata 0, 1 and 2 are the kink and the open left and right graph pieces;
    at the kink both the curve and the epigraph have the fourth quadrant as
    regular normal cone and the same proximal cone inside it.
    """

    def __init__(self):
        super().__init__((2,))

    @staticmethod
    def _graph_stratum(t: float, tl: float) -> int:
        if abs(t) <= tl:
            return 0
        return 1 if t < 0.0 else 2

    @staticmethod
    def _dist_kink_normal(v: np.ndarray) -> float:
        # The regular normal cone at the kink is the fourth quadrant.
        q = np.array([max(v[0], 0.0), min(v[1], 0.0)])
        return float(np.linalg.norm(v - q))

    def in_proximal_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        tl = self._tol(tol)
        kink = self.stratum_id(x, tol) == 0
        if self.dist_regular_normal(x, v, tol) > tl:
            return False
        # At the kink the proximal cone is the fourth quadrant minus the open
        # positive horizontal ray.
        return not (kink and float(v.data[0]) > tl and abs(float(v.data[1])) <= tl)

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = self._pick_stratum(rng, stratum)
        if k == 0:
            return Point.zeros((2,))
        if k in (1, 2):
            t = float(rng.uniform(0.2, 2.0))
            return _graph_point(-t if k == 1 else t)
        t = float(rng.uniform(-2.0, 2.0))
        return Point([t, _graph_height(t) + float(rng.uniform(0.1, 2.0))], (2,))

    @staticmethod
    def _sample_kink_normal(v_rng: np.random.Generator) -> Point:
        g = v_rng.standard_normal(2)
        return Point([abs(g[0]), -abs(g[1])], (2,))


class CurveSet(_KinkedGraph):
    """The curve {(t, max(0, t^(3/5))) : t real}.

    Stratum 0 is the kink at the origin, stratum 1 the open left ray,
    stratum 2 the open right branch.
    """

    def __repr__(self):
        return "curve"

    @property
    def stratum_ids(self):
        return (0, 1, 2)

    def _param(self, x: Point, tol: float | None) -> float:
        self._require_shape(x)
        t = float(x.data[0])
        if abs(float(x.data[1]) - _graph_height(t)) > self._tol(tol):
            self._infeasible(x, "not on the graph")
        return t

    def contains(self, x: Point, tol: float | None = None) -> bool:
        self._require_shape(x)
        t = float(x.data[0])
        return abs(float(x.data[1]) - _graph_height(t)) <= self._tol(tol)

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        t = float(x.data[0])
        if abs(float(x.data[1]) - _graph_height(t)) <= 1e-12 * max(1.0, abs(t)):
            return _graph_point(t)
        return _graph_point(_nearest_parameter(np.asarray(x.data)))

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return self._graph_stratum(self._param(x, tol), self._tol(tol))

    def _unit_tangent(self, t: float) -> np.ndarray:
        if t < 0.0:
            return np.array([1.0, 0.0])
        d = np.array([1.0, 0.6 * t ** -0.4])
        return d / np.linalg.norm(d)

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        t = self._param(x, tol)
        if abs(t) <= self._tol(tol):
            return self._dist_kink_normal(v.data)
        # Smooth point: the normal cone is the line orthogonal to the tangent.
        tau = self._unit_tangent(t)
        return abs(float(v.data.dot(tau)))

    @staticmethod
    def _kink_tangent(v: np.ndarray) -> tuple[np.ndarray, float]:
        """A projection of v onto the tangent cone at the kink, and its distance to v.

        The cone is the union of the up and left rays; the nearer of v's
        projections onto them wins, ties going to the up ray.
        """
        up = np.array([0.0, max(float(v[1]), 0.0)])
        left = np.array([min(float(v[0]), 0.0), 0.0])
        d_up, d_left = np.linalg.norm(v - up), np.linalg.norm(v - left)
        return (up if d_up <= d_left else left), min(float(d_up), float(d_left))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        t = self._param(x, tol)
        tl = self._tol(tol)
        if abs(t) <= tl:
            # Union of the regular normal cone and the tangent cone.
            if self.dist_regular_normal(x, v, tol) <= tl:
                return True
            return self._kink_tangent(v.data)[1] <= tl
        return self.dist_regular_normal(x, v, tol) <= tl

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        t = self._param(x, tol)
        if abs(t) <= self._tol(tol):
            return Point._of(self._kink_tangent(v.data)[0], (2,))
        tau = self._unit_tangent(t)
        return Point._of(float(v.data.dot(tau)) * tau, (2,))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        t = self._param(x, tol)
        if abs(t) <= self._tol(tol):
            return self._sample_kink_normal(v_rng)
        tau = self._unit_tangent(t)
        normal = np.array([-tau[1], tau[0]])
        return Point(float(v_rng.standard_normal()) * normal, (2,))


class EpigraphSet(_KinkedGraph):
    """The region {(x1, x2) : x2 >= max(0, x1^(3/5))}.

    Stratum 0 is the origin, strata 1 and 2 the open left and right boundary
    pieces, stratum 3 the interior.
    """

    def __repr__(self):
        return "epigraph"

    @property
    def stratum_ids(self):
        return (0, 1, 2, 3)

    def contains(self, x: Point, tol: float | None = None) -> bool:
        self._require_shape(x)
        return float(x.data[1]) >= _graph_height(float(x.data[0])) - self._tol(tol)

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        if float(x.data[1]) >= _graph_height(float(x.data[0])):
            return x
        # Outside points project onto the boundary graph.
        return _graph_point(_nearest_parameter(np.asarray(x.data)))

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        self._require_shape(x)
        tl = self._tol(tol)
        t = float(x.data[0])
        slack = float(x.data[1]) - _graph_height(t)
        if slack < -tl:
            self._infeasible(x, "below the boundary graph")
        if slack > tl:
            return 3
        return self._graph_stratum(t, tl)

    def _outward_normal(self, t: float) -> np.ndarray:
        if t < 0.0:
            return np.array([0.0, -1.0])
        d = np.array([0.6 * t ** -0.4, -1.0])
        return d / np.linalg.norm(d)

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        stratum = self.stratum_id(x, tol)
        if stratum == 3:
            return norm(v)
        if stratum == 0:
            return self._dist_kink_normal(v.data)
        nhat = self._outward_normal(float(x.data[0]))
        s = float(v.data.dot(nhat))
        if s <= 0.0:
            return norm(v)
        return float(np.linalg.norm(v.data - s * nhat))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        # Limits of regular normals at nearby points land inside the regular
        # normal cone, even at the kink, so the general cone adds nothing.
        return self.dist_regular_normal(x, v, tol) <= self._tol(tol)

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        stratum = self.stratum_id(x, tol)
        if stratum == 3:
            return v
        if stratum == 0:
            # Tangent cone at the kink is the second quadrant.
            return Point._of(np.array([min(float(v.data[0]), 0.0), max(float(v.data[1]), 0.0)]),
                             (2,))
        nhat = self._outward_normal(float(x.data[0]))
        s = float(v.data.dot(nhat))
        if s <= 0.0:
            return v
        return Point._of(v.data - s * nhat, (2,))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        stratum = self.stratum_id(x, tol)
        if stratum == 3:
            return Point.zeros((2,))
        if stratum == 0:
            return self._sample_kink_normal(v_rng)
        nhat = self._outward_normal(float(x.data[0]))
        return Point(abs(float(v_rng.standard_normal())) * nhat, (2,))
