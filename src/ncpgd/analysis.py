"""Stationarity certification and apocalypse detection."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import Objective, Point, _sq_dist
# proximal_normal_witness is not called here, since the label comes from the
# closed-form in_proximal_normal; the name stays bound because the benchmark
# tracer patches analysis.proximal_normal_witness.
from .sets.base import FeasibleSet, InfeasiblePointError, proximal_normal_witness  # noqa: F401
from .solver import Trace

__all__ = [
    "StationarityReport",
    "ApocalypseFlag",
    "classify_stationarity",
    "stationarity_measure_series",
    "detect_apocalypse",
]

# Classification tolerance defaults to ten times the solver's stopping
# tolerance so a converged run always classifies.
DEFAULT_CLASSIFY_TOL = 1e-7


def _require_tol(tol: float):
    # An infinite tol would label any point P-stationary, and a NaN one would
    # fail the membership test of a point on the set.
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be in (0, inf), got {tol}")


class StationarityReport(NamedTuple):
    """How -grad(f) at a feasible point sits relative to the three normal cones.

    The classification is consistent with the nesting of the cones:
    proximal implies regular implies general. ``proximal_member`` is the
    closed-form ``in_proximal_normal``; the report runs no sampled witness.
    It holds neither the point nor f there, which the caller already has.
    """

    d_regular: float
    d_general_member: bool
    proximal_member: bool
    classification: str


class ApocalypseFlag(NamedTuple):
    """Vanishing stationarity measure along a run vs. the measure at its limit.

    The measure along the run is the trace's own ``stat_measures``.
    """

    limit_point: Point
    measure_at_limit: float
    flagged: bool
    note: str = ""


def classify_stationarity(set_: FeasibleSet, obj: Objective, x: Point,
                          tol: float = DEFAULT_CLASSIFY_TOL) -> StationarityReport:
    """Evaluate -grad(x) against the proximal, regular, and general normal cones.

    Makes one gradient call and no f evaluation. Raises ValueError unless
    0 < tol < inf.
    """
    _require_tol(tol)
    if not set_.contains(x, tol):
        raise InfeasiblePointError(f"cannot classify: point not on {set_!r}")
    v = -obj.grad(x)
    d_regular = set_.dist_regular_normal(x, v, tol)
    general = set_.in_general_normal(x, v, tol)
    proximal = set_.in_proximal_normal(x, v, tol)
    if proximal:
        label = "P-stationary"
    elif d_regular <= tol:
        label = "B-stationary"
    elif general:
        label = "M-stationary-only"
    else:
        label = "non-stationary"
    return StationarityReport(d_regular, general, proximal, label)


def stationarity_measure_series(set_: FeasibleSet, obj: Objective, trace: Trace) -> list[float]:
    """Per-iterate distance from -grad to the regular normal cone along a trace.

    On every shipped set this is also the proximal normal cone's infimum distance.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    return [set_.dist_regular_normal(x, -obj.grad(x)) for x in trace.iterates]


def detect_apocalypse(set_: FeasibleSet, obj: Objective, trace: Trace,
                      tol: float = DEFAULT_CLASSIFY_TOL) -> ApocalypseFlag:
    """Flag runs whose stationarity measure vanishes but whose limit is not stationary.

    The limit point is estimated as the projected mean of the last five
    iterates; the flag is raised when the regular-normal measure series
    (``trace.stat_measures``) ends below tol while the measure at the limit
    exceeds 10*tol. A trace whose tail has not settled (diameter >= tol) is
    never flagged. Raises ValueError unless 0 < tol < inf.
    """
    _require_tol(tol)
    tail = trace.iterates[-5:]
    diameter = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            # norm(tail[i] - tail[j]) bit for bit, overflow error included, without the Point.
            diameter = max(diameter, math.sqrt(_sq_dist(tail[i].data, tail[j].data)))
    mean = Point(np.mean([p.data for p in tail], axis=0), tail[0].shape)
    limit = set_.project(mean)
    measure_at_limit = set_.dist_regular_normal(limit, -obj.grad(limit), tol)
    if diameter >= tol:
        return ApocalypseFlag(limit, measure_at_limit, False,
                              note=f"trace tail not converged (diameter {diameter:.3e} >= {tol:.3e})")
    flagged = trace.stat_measures[-1] <= tol and measure_at_limit > 10.0 * tol
    return ApocalypseFlag(limit, measure_at_limit, flagged)

