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
    object can serve any number of concurrent solver runs. The matrix sets
    keep a point's decomposition on that point (see ``Point``). A memo that
    a query decomposed changes how fast later queries answer, never what; a
    projection's memo holds the factors it computed, so answers at a
    projected point can differ from those at a copy of it in the last bits.
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
        """Closed-form proximal-normal membership (exact, unlike the witness).

        The one proximal decision of the solver and the analysis: pgd's
        proximal stop, the CLI's stat_proximal_witness column and
        classify_stationarity all ask it.
        """
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


def _witness_test(set_: FeasibleSet, x: Point, v: Point, tol: float | None):
    """The per-step test of the two witness queries: does step a certify v at x?"""
    tol = set_._tol(tol)
    nv = norm(v)

    def certifies(a: float) -> bool:
        if nv == 0.0:
            return True
        # An overflowed norm would pass any step: a*inf - d <= tol*a*inf.
        if not math.isfinite(nv):
            return False
        z = x + a * v
        gap = a * nv - norm(z - set_.project(z))
        return gap <= tol * a * max(1.0, nv)

    return certifies


def proximal_normal_witness(set_: FeasibleSet, x: Point, v: Point,
                            tol: float | None = None) -> float | None:
    """Largest step length of WITNESS_ALPHA_GRID certifying v as a proximal normal at x.

    A step a certifies when x is in P_C(x + a*v): the achieved distance
    d(x + a*v, C) must match a*||v|| up to tol * a * max(1, ||v||), a test
    relative to a so that it does not become vacuous at small a. Scans the
    grid 1, 1/2, ..., 2^-20 from the largest step down and returns the first
    step that certifies, else None: k + 1 projections for an answer of 2^-k,
    21 for None.

    This is a sampled certificate usable on any set, and a loose one: the
    gap is second order in the tangent part of v, so a v whose regular-normal
    distance is about sqrt(2 * tol) * ||v|| still certifies. Directions on a
    removed boundary ray of a non-closed proximal cone can defeat it at very
    small step lengths. The solver's proximal stop, the CSV column and
    classify_stationarity ask the set's closed-form in_proximal_normal
    instead; only ``ncpgd cones`` and ``ncpgd check`` run this witness.
    """
    certifies = _witness_test(set_, x, v, tol)
    return next((a for a in WITNESS_ALPHA_GRID if certifies(a)), None)


def in_proximal_normal_witness(set_: FeasibleSet, x: Point, v: Point,
                               tol: float | None = None) -> bool:
    """Whether some step of WITNESS_ALPHA_GRID certifies v as a proximal normal at x.

    Equals ``proximal_normal_witness(...) is not None``, but scans the grid
    from the smallest step up: 1 projection when the smallest step certifies,
    21 when no step does.
    """
    certifies = _witness_test(set_, x, v, tol)
    return any(certifies(a) for a in reversed(WITNESS_ALPHA_GRID))


# Numerical slack of the two projected-translation inequalities.
_TRANSLATION_SLACK = 1e-9


def projected_translation_check(set_: FeasibleSet, x: Point, v: Point) -> tuple[Point, bool, bool]:
    """Check the two projected-translation inequalities at (x, v).

    With y = project(x - v), tests ||y - x|| <= 2||v|| and
    2<v, y - x> <= -||y - x||^2, each with a small numerical slack, and
    returns (y, dist-ok, ip-ok). Used as a property-test oracle; both must
    hold for every feasible x and ambient v.
    """
    y = set_.project(x - v)
    d = norm(y - x)
    nv = norm(v)
    ok_dist = d <= 2.0 * nv + _TRANSLATION_SLACK * max(1.0, nv)
    ok_ip = 2.0 * inner(v, y - x) <= -d * d + _TRANSLATION_SLACK * max(1.0, nv * nv)
    return y, ok_dist, ok_ip
