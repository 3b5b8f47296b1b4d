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

from ncpgd import CurveSet, EpigraphSet, LowRankSet, NonnegSparseSet, Point, PsdLowRankSet, SparseSet

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
