"""Projected gradient descent on nonconvex closed sets.

A library and CLI for minimizing differentiable functions over closed,
possibly nonconvex feasible sets by projected gradient descent with a
nonmonotone backtracking line search, together with the tangent/normal-cone
calculus needed to certify the stationarity of the points it returns.
"""

from . import sets
from .analysis import (
    ApocalypseFlag,
    StationarityReport,
    classify_stationarity,
    detect_apocalypse,
    stationarity_measure_series,
)
from .core import (
    Objective,
    Point,
    ShapeError,
    check_gradient,
    constant,
    inner,
    least_squares,
    norm,
    quartic,
)
from .sets import (
    WITNESS_ALPHA_GRID,
    FeasibleSet,
    InfeasiblePointError,
    from_spec,
    in_proximal_normal_witness,
    projected_translation_check,
    proximal_normal_witness,
)
from .solver import (
    AverageRule,
    BacktrackError,
    MaxRule,
    SolverConfig,
    StepResult,
    Termination,
    Trace,
    p2gd,
    pgd,
    pgd_map,
)

__version__ = "0.1.0"

__all__ = [
    "ApocalypseFlag",
    "AverageRule",
    "BacktrackError",
    "CurveSet",
    "EpigraphSet",
    "FeasibleSet",
    "InfeasiblePointError",
    "LowRankSet",
    "MaxRule",
    "NonnegSparseSet",
    "Objective",
    "Point",
    "PsdLowRankSet",
    "ShapeError",
    "SolverConfig",
    "SparseSet",
    "StationarityReport",
    "StepResult",
    "Termination",
    "Trace",
    "WITNESS_ALPHA_GRID",
    "check_gradient",
    "classify_stationarity",
    "constant",
    "detect_apocalypse",
    "from_spec",
    "in_proximal_normal_witness",
    "inner",
    "least_squares",
    "norm",
    "p2gd",
    "pgd",
    "pgd_map",
    "projected_translation_check",
    "proximal_normal_witness",
    "quartic",
    "stationarity_measure_series",
]


# The six set classes resolve through ncpgd.sets, which imports a set module
# on the first use of one of its classes.
def __getattr__(name: str):
    if name not in sets._CLASS_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cls = globals()[name] = getattr(sets, name)
    return cls


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(sets._CLASS_MODULES))
