"""Feasible-set interface and set-generic cone utilities."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..core import Point, ShapeError, _describe, _sq_dist, inner, norm

DEFAULT_TOL = 1e-9

# Step-length grid used by the sampling-based proximal-normal certificate.
WITNESS_ALPHA_GRID = tuple(2.0 ** -k for k in range(21))


class InfeasiblePointError(ValueError):
    """A cone query was issued at a point that is not on the set."""


class FeasibleSet(ABC):
    """Closed subset of a Euclidean space with projection and cone queries.

    Every implementation provides an exact (up to the class attribute
    ``tol``, which every query's tol defaults to) metric projection,
    membership testing, stratum identification, and closed-form
    distance/membership queries against the tangent, regular normal, proximal
    normal, and general normal cones where those forms are known. Set objects
    are immutable and a query's answer depends on its arguments alone, so one
    object can serve any number of concurrent solver runs. The matrix sets keep a point's decomposition on that point (see
    ``Point``), which changes how fast later queries answer, never what.
    """

    tol = DEFAULT_TOL

    def __init__(self, ambient_shape: tuple[int, ...]):
        self.ambient_shape = tuple(int(m) for m in ambient_shape)

    # -- helpers ------------------------------------------------------------

    def _tol(self, tol: float | None) -> float:
        return self.tol if tol is None else float(tol)

    def _require_shape(self, x: Point):
        if x.shape != self.ambient_shape:
            raise ShapeError(f"{self!r} lives in shape {self.ambient_shape}, got {x.shape}")

    def _infeasible(self, x: Point, why: str):
        raise InfeasiblePointError(f"point not on {self!r}: {why} (x={_describe(x)})")

    def _pick_stratum(self, rng: np.random.Generator, stratum: int | None) -> int:
        """A uniform draw from stratum_ids, or the given stratum once checked against them."""
        ids = self.stratum_ids
        k = ids[int(rng.integers(0, len(ids)))] if stratum is None else int(stratum)
        if k not in ids:
            raise ValueError(f"stratum must be in {ids[0]}..{ids[-1]}, got {k}")
        return k

    # -- interface ----------------------------------------------------------

    @abstractmethod
    def project(self, x: Point) -> Point:
        """One deterministic element of the metric projection of x."""

    def contains(self, x: Point, tol: float | None = None) -> bool:
        self._require_shape(x)
        return math.sqrt(_sq_dist(x.data, self.project(x).data)) <= self._tol(tol)

    @abstractmethod
    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        """Index of the smooth stratum the feasible point x lies on."""

    @property
    @abstractmethod
    def stratum_ids(self) -> tuple[int, ...]:
        """All stratum indices, lowest-dimensional first."""

    @abstractmethod
    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        """Distance from v to the regular normal cone at the feasible point x."""

    def dist_proximal_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        """Infimum distance from v to the proximal normal cone at x.

        For every shipped set this equals the regular-normal distance: either
        the two cones coincide, or (2-D example sets at their kink) the
        proximal cone is dense in the regular one, so the infimum is
        unchanged. Membership can still differ; see in_proximal_normal.

        Nothing in the package calls it. It stays only because ``SET_METHODS``
        in ``perfbench/tracer.py`` lists it, until ROADMAP item 1.
        """
        return self.dist_regular_normal(x, v, tol)

    def in_proximal_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        """Closed-form proximal-normal membership (exact, unlike the witness)."""
        return self.dist_regular_normal(x, v, tol) <= self._tol(tol)

    @abstractmethod
    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        """Membership of v in the general (limiting) normal cone at x."""

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        """One element of the metric projection of v onto the tangent cone at x."""
        raise NotImplementedError(f"tangent projection is not available for {self!r}")

    @abstractmethod
    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        """Random feasible point, optionally on a prescribed stratum."""

    @abstractmethod
    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        """Random element of the regular normal cone at the feasible point x."""


def _witness_test(set_: FeasibleSet, x: Point, v: Point, alphas, tol: float | None):
    """The validated step grid and the per-step test of the two witness queries."""
    tol = set_._tol(tol)
    nv = norm(v)
    # The default grid is valid by construction; only a caller's grid is checked.
    if alphas is not WITNESS_ALPHA_GRID:
        alphas = tuple(float(a) for a in alphas)
        if not all(a > 0.0 for a in alphas):
            raise ValueError("witness step lengths must be positive")
        if any(b >= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("witness step lengths must be strictly decreasing")

    def certifies(a: float) -> bool:
        if nv == 0.0:
            return True
        # An overflowed norm would pass any step: a*inf - d <= tol*a*inf.
        if not math.isfinite(nv):
            return False
        z = x + a * v
        gap = a * nv - norm(z - set_.project(z))
        return gap <= tol * a * max(1.0, nv)

    return alphas, certifies


def proximal_normal_witness(set_: FeasibleSet, x: Point, v: Point,
                            alphas=WITNESS_ALPHA_GRID, tol: float | None = None) -> float | None:
    """Largest step length of the grid certifying v as a proximal normal at x.

    A step a certifies when x is in P_C(x + a*v): the achieved distance
    d(x + a*v, C) must match a*||v|| up to tol * a * max(1, ||v||), a test
    relative to a so that it does not become vacuous at small a. ``alphas``
    must be positive and strictly decreasing; returns the largest certifying
    entry, else None.

    The certifying steps are closed downward: phi(a) = d(x + a*v, C)^2 -
    a^2 ||v||^2 is a minimum of affine functions of a, so it is concave with
    phi(0) = 0, and the exact certifying steps form an interval (0, a*]
    (Rockafellar & Wets, Variational Analysis, Ex. 6.16). So the search tests
    alphas[0] (a hit returns it: 1 projection), then alphas[-1] (a miss
    returns None: 2 projections), and otherwise bisects between them: at most
    2 + ceil(log2(len(alphas) - 1)) projections, 7 on the default grid.

    Its answer equals the first certifying entry of a scan over the grid
    except where roundoff decides the test: when tol * a * max(1, ||v||) at
    the smallest steps falls below the rounding error of x + a*v (tol near
    1e-12, or ||v|| near 1e-9 at the default tol), the smallest step can fail
    while a larger one certifies, and the search returns None.

    This is a sufficient certificate usable on any set; directions that sit
    on a removed boundary ray of a non-closed proximal cone can defeat it at
    very small step lengths, which is why the 2-D example sets also carry a
    closed-form in_proximal_normal.
    """
    alphas, certifies = _witness_test(set_, x, v, alphas, tol)
    if not alphas:
        return None
    if certifies(alphas[0]):
        return alphas[0]
    # Invariant: alphas[miss] fails and alphas[hit] certifies.
    miss, hit = 0, len(alphas) - 1
    if hit == 0 or not certifies(alphas[hit]):
        return None
    while hit - miss > 1:
        mid = (miss + hit) // 2
        if certifies(alphas[mid]):
            hit = mid
        else:
            miss = mid
    return alphas[hit]


def in_proximal_normal_witness(set_: FeasibleSet, x: Point, v: Point,
                               alphas=WITNESS_ALPHA_GRID, tol: float | None = None) -> bool:
    """Whether some step of the grid certifies v as a proximal normal at x.

    Equals ``proximal_normal_witness(...) is not None``, which the search
    decides from the first and the last step alone. This tests the last
    (smallest) step, then the first: 1 projection when the smallest step
    certifies, 2 otherwise. Callers that need only this truth value skip the
    bisection.
    """
    alphas, certifies = _witness_test(set_, x, v, alphas, tol)
    return bool(alphas) and (certifies(alphas[-1]) or certifies(alphas[0]))


def projected_translation_check(set_: FeasibleSet, x: Point, v: Point,
                                slack: float = 1e-9) -> tuple[bool, bool]:
    """Check the two projected-translation inequalities at (x, v).

    With y = project(x - v), tests ||y - x|| <= 2||v|| and
    2<v, y - x> <= -||y - x||^2, each with a small numerical slack. Used as a
    property-test oracle; both must hold for every feasible x and ambient v.
    """
    return _projected_translation(set_, x, v, slack)[1:]


def _projected_translation(set_: FeasibleSet, x: Point, v: Point,
                           slack: float = 1e-9) -> tuple[Point, bool, bool]:
    """``projected_translation_check`` with the projection y it tested: (y, dist-ok, ip-ok)."""
    y = set_.project(x - v)
    d = norm(y - x)
    nv = norm(v)
    ok_dist = d <= 2.0 * nv + slack * max(1.0, nv)
    ok_ip = 2.0 * inner(v, y - x) <= -d * d + slack * max(1.0, nv * nv)
    return y, ok_dist, ok_ip
