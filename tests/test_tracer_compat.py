"""The benchmark tracer still sees one span per query on every shipped set class.

perfbench/tracer.py wraps each public set method as `getattr` finds it on each
class. A class that inherited a public method from another traced class would
get the wrapper of its parent wrapped again, and every inherited call would
record two nested spans; a shared private base class keeps one.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ncpgd import (
    CurveSet,
    EpigraphSet,
    LowRankSet,
    NonnegSparseSet,
    Objective,
    Point,
    PsdLowRankSet,
    SparseSet,
    classify_stationarity,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer as tracing  # noqa: E402

SETS = [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 3, 2), PsdLowRankSet(4, 2),
        CurveSet(), EpigraphSet()]


@pytest.mark.parametrize("set_", SETS, ids=repr)
def test_one_span_per_query(set_):
    rng = np.random.default_rng(5)
    z = Point(rng.standard_normal(set_.ambient_shape), set_.ambient_shape)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        x = set_.project(z)
        set_.dist_regular_normal(x, z)
        # No public method is a wrapper around another class's wrapper.
        for method in tracing.SET_METHODS:
            assert not hasattr(getattr(type(set_), method).__wrapped__, "__wrapped__"), method
    finally:
        patches.restore()
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    cls = type(set_).__name__
    for method in ("project", "dist_regular_normal"):
        assert [n for n in names if n.startswith(f"sets.{method}[")] == [f"sets.{method}[{cls}]"]


@pytest.mark.parametrize("set_", SETS, ids=repr)
def test_classify_searches_no_witness(set_):
    rng = np.random.default_rng(6)
    x = set_.project(Point(rng.standard_normal(set_.ambient_shape), set_.ambient_shape))
    g = Point(rng.standard_normal(set_.ambient_shape), set_.ambient_shape)
    obj = Objective(lambda p: 0.0, lambda p: g, name="fixed-gradient")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        classify_stationarity(set_, obj, x)
    finally:
        patches.restore()
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    assert "sets.witness" not in names
    # At most the projection inside contains: the matrix sets answer it from
    # the factors carried by the projected point, the 2-D sets in closed form.
    projections = [n for n in names if n.startswith("sets.project[")]
    assert len(projections) <= (0 if isinstance(set_, (LowRankSet, PsdLowRankSet)) else 1)
