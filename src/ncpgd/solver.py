"""Projected gradient descent with nonmonotone backtracking line search.

Each rule object defines its Armijo reference, rule.reference(f_values, mu),
at the iterate whose value is f_values[-1], given the previous reference mu:
MaxRule(window) takes max(f_values[-(window + 1):]) and AverageRule(weight)
takes (1 - weight) * mu + weight * f_values[-1]. Both reduce to the monotone
method for window 0 / weight 1. The comparison baseline p2gd
is the same loop with three changes: it steps along the projection of the
negative gradient onto the tangent cone, stops when that projection is small,
and uses the monotone reference. Unlike the plain method it can converge to
limits whose negative gradient is far from the regular normal cone. Every
step of both goes through pgd_map, the one line search.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .core import Objective, Point, _describe, norm
from .sets.base import FeasibleSet, InfeasiblePointError
# proximal_normal_witness is not called here, since the proximal stop asks the
# set's closed-form in_proximal_normal; the name stays bound because the
# benchmark tracer patches solver.proximal_normal_witness.
from .sets.base import proximal_normal_witness  # noqa: F401

_log = logging.getLogger(__name__)

__all__ = [
    "MaxRule",
    "AverageRule",
    "Termination",
    "SolverConfig",
    "StepResult",
    "Trace",
    "BacktrackError",
    "pgd_map",
    "pgd",
    "p2gd",
]


def _require_int(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class MaxRule:
    """Armijo reference = max of f over the last window+1 iterates."""

    window: int = 0

    def __post_init__(self):
        _require_int("window", self.window)
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")

    def reference(self, f_values: list[float], mu: float) -> float:
        """The reference at the iterate whose value is f_values[-1]; mu is unused."""
        return max(f_values[-(self.window + 1):])


@dataclass(frozen=True)
class AverageRule:
    """Armijo reference = exponential average with weight in (0, 1]."""

    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")

    def reference(self, f_values: list[float], mu: float) -> float:
        """The reference at the iterate whose value is f_values[-1], given the previous one, mu."""
        return (1.0 - self.weight) * mu + self.weight * f_values[-1]


class Termination(Enum):
    STATIONARY_AT_TOL = "stationary-at-tol"
    MAX_ITERS = "max-iters"
    BACKTRACK_FAILURE = "backtrack-failure"


@dataclass(frozen=True)
class SolverConfig:
    """Step-size bounds, backtracking factor, Armijo constant, and stopping rules.

    ``initial_step=None`` starts every line search at ``alpha_max``; a float
    fixes the initial step (it must lie in [alpha_min, alpha_max]).
    """

    alpha_min: float = 1e-4
    alpha_max: float = 1.0
    beta: float = 0.5
    c: float = 1e-4
    rule: MaxRule | AverageRule = field(default_factory=MaxRule)
    stat_tol: float = 1e-8
    max_iters: int = 1000
    max_backtracks: int = 60
    initial_step: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha_min <= self.alpha_max < math.inf:
            raise ValueError(f"need 0 < alpha_min <= alpha_max < inf, got "
                             f"[{self.alpha_min}, {self.alpha_max}]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must be in (0, 1), got {self.c}")
        if not isinstance(self.rule, (MaxRule, AverageRule)):
            raise TypeError(f"rule must be MaxRule or AverageRule, got {self.rule!r}")
        if not self.stat_tol > 0.0:
            raise ValueError(f"stat_tol must be positive, got {self.stat_tol}")
        if not self.stat_tol < math.inf:
            raise ValueError(f"stat_tol must be finite, got {self.stat_tol}")
        _require_int("max_iters", self.max_iters)
        _require_int("max_backtracks", self.max_backtracks)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be positive, got {self.max_backtracks}")
        if self.initial_step is not None and not (
                self.alpha_min <= self.initial_step <= self.alpha_max):
            raise ValueError(f"initial_step {self.initial_step} outside "
                             f"[{self.alpha_min}, {self.alpha_max}]")

    def start_alpha(self) -> float:
        return self.alpha_max if self.initial_step is None else self.initial_step


class StepResult(NamedTuple):
    """Outcome of one backtracking projected line search."""

    y: Point
    alpha_accepted: float
    backtracks: int
    armijo_lhs: float
    armijo_rhs: float


class BacktrackError(RuntimeError):
    """The line search exhausted its backtracking budget.

    Signals that the base point is numerically stationary or that the supplied
    gradients are wrong; termination of the loop is only guaranteed away from
    stationary points.
    """

    def __init__(self, backtracks: int, last_alpha: float):
        super().__init__(f"no Armijo step after {backtracks} backtracks (alpha={last_alpha:.3e})")
        self.backtracks = backtracks
        self.last_alpha = last_alpha


@dataclass
class Trace:
    """Per-iterate record of a solver run.

    All lists share one length. Row 0 describes the initial point; its alpha
    is NaN and its backtrack count 0 because no step produced it. The mu of
    the final row is the Armijo reference that a further step would have used.
    ``stat_measures`` holds the distance from -grad(x) to the regular normal
    cone at each iterate, whichever stopping test the run used: the regular
    stop compares it with ``stat_tol``, the proximal stop asks the set's
    closed-form ``in_proximal_normal`` and p2gd the norm of its tangent
    direction.
    """

    iterates: list[Point]
    f_values: list[float]
    mu_values: list[float]
    alphas: list[float]
    backtrack_counts: list[int]
    stat_measures: list[float]
    termination: Termination

    def __len__(self) -> int:
        return len(self.iterates)

    def final(self) -> Point:
        return self.iterates[-1]


def pgd_map(set_: FeasibleSet, obj: Objective, x: Point, mu: float,
            cfg: SolverConfig, *, fx: float | None = None, g: Point | None = None,
            v: Point | None = None) -> StepResult:
    """One backtracking projected line search from x along the direction v.

    Starting from the configured initial step, projects x + alpha*v onto the
    set and shrinks alpha by beta until the Armijo condition
    f(y) <= mu + c * <grad(x), y - x> holds. Each trial costs one projection
    and one f evaluation. Requires x feasible and mu >= f(x); raises
    BacktrackError past the backtracking budget. ``fx`` and ``g`` are f(x)
    and grad(x) when the caller already holds them, and are computed when
    omitted; ``v`` defaults to -grad(x) (p2gd passes its projection onto the
    tangent cone).
    """
    if fx is None:
        fx = obj.eval(x)
    if mu < fx - 1e-9 * max(1.0, abs(fx)):
        raise ValueError(f"Armijo reference mu={mu} below f(x)={fx}")
    if g is None:
        g = obj.grad(x)
    d = -g.data if v is None else v.data
    xd, gd, shape = x.data, g.data, x.shape
    project, f, c = set_.project, obj.eval, cfg.c
    alpha = cfg.start_alpha()
    backtracks = 0
    while True:
        y = project(Point._of(xd + alpha * d, shape))
        lhs = f(y)
        rhs = mu + c * float(gd.dot(y.data - xd))
        if lhs <= rhs:
            return StepResult(y, alpha, backtracks, lhs, rhs)
        if backtracks >= cfg.max_backtracks:
            raise BacktrackError(backtracks, alpha)
        alpha *= cfg.beta
        backtracks += 1


def _descend(set_: FeasibleSet, obj: Objective, x0: Point, cfg: SolverConfig,
             rule: MaxRule | AverageRule, stop_test: str) -> Trace:
    """The loop of pgd and p2gd: one pgd_map step per iterate until the stop test passes.

    stop_test "regular" and "proximal" step along -grad(x); "tangent" steps
    along its projection onto the tangent cone and stops on that projection's
    norm. The Armijo reference is ``rule.reference``.
    """
    if not set_.contains(x0):
        raise InfeasiblePointError(f"x0 is not on {set_!r}: {_describe(x0)}")

    iterates = [x0]
    f_values = [obj.eval(x0)]
    mu_values: list[float] = []
    alphas = [math.nan]
    backtracks = [0]
    stats: list[float] = []
    mu = f_values[0]
    debug = _log.isEnabledFor(logging.DEBUG)

    i = 0
    while True:
        x = iterates[i]
        g = obj.grad(x)
        v = -g
        d = set_.project_tangent(x, v) if stop_test == "tangent" else v
        stat = set_.dist_regular_normal(x, v)
        stats.append(stat)
        if stop_test == "regular":
            stop = stat <= cfg.stat_tol
        elif stop_test == "proximal":
            stop = set_.in_proximal_normal(x, v, cfg.stat_tol)
        else:
            stop = norm(d) <= cfg.stat_tol

        mu = rule.reference(f_values, mu)
        mu_values.append(mu)

        if stop:
            term = Termination.STATIONARY_AT_TOL
            break
        if i >= cfg.max_iters:
            term = Termination.MAX_ITERS
            break
        try:
            step = pgd_map(set_, obj, x, mu, cfg, fx=f_values[i], g=g, v=d)
        except BacktrackError as err:
            _log.warning("backtracking stalled at iteration %d: %s", i, err)
            term = Termination.BACKTRACK_FAILURE
            break
        iterates.append(step.y)
        f_values.append(step.armijo_lhs)
        alphas.append(step.alpha_accepted)
        backtracks.append(step.backtracks)
        if debug:
            _log.debug("iter %d: f=%.6e alpha=%.3e backtracks=%d stat=%.3e",
                       i + 1, step.armijo_lhs, step.alpha_accepted, step.backtracks, stat)
        i += 1

    return Trace(iterates, f_values, mu_values, alphas, backtracks, stats, term)


def pgd(set_: FeasibleSet, obj: Objective, x0: Point, cfg: SolverConfig,
        stationarity: str = "regular") -> Trace:
    """Projected gradient descent with a nonmonotone Armijo reference.

    The loop stops once the stationarity test at the current iterate passes:
    by default when the distance from -grad(x) to the regular normal cone is
    at most ``cfg.stat_tol``; with ``stationarity="proximal"`` when
    ``set_.in_proximal_normal(x, -grad(x), cfg.stat_tol)`` holds (the right
    test when the gradient is locally Lipschitz). That closed form is the one
    classify_stationarity reads, and it makes no projection. On the sparse
    and low-rank sets it is the regular-normal distance at most
    ``cfg.stat_tol``, with ``cfg.stat_tol`` also as the query's rank or
    support tolerance; at the kink of the curve and the epigraph it also
    rejects the boundary ray that the proximal cone lacks. Exact cone
    membership is not numerically decidable, hence the tolerance. Raises
    InfeasiblePointError when x0 is not on the set.
    """
    if stationarity not in ("regular", "proximal"):
        raise ValueError(f"stationarity must be 'regular' or 'proximal', got {stationarity!r}")
    return _descend(set_, obj, x0, cfg, cfg.rule, stationarity)


def p2gd(set_: FeasibleSet, obj: Objective, x0: Point, cfg: SolverConfig) -> Trace:
    """Tangent-projected variant: the pgd loop along a projection of -grad.

    Each step projects -grad(x) onto the tangent cone, giving d, then
    backtracks over y = project(x + alpha * d) against the monotone Armijo
    condition f(y) <= f(x) + c * <grad(x), y - x>, whatever ``cfg.rule``
    says. Stops when the norm of d drops to ``cfg.stat_tol`` or on the
    iteration budget. The recorded stationarity measures are regular-normal
    distances; they are reported, not used to stop, because they can vanish
    along runs whose limit is not stationary in that sense. Requires a set
    with tangent projections. Raises InfeasiblePointError when x0 is not on
    the set.
    """
    return _descend(set_, obj, x0, cfg, MaxRule(0), "tangent")
