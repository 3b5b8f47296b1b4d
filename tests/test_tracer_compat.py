"""The benchmark tracer still sees one span per query on every shipped set class.

perfbench/tracer.py wraps each public set method as `getattr` finds it on each
class. A class that inherited a public method from another traced class would
get the wrapper of its parent wrapped again, and every inherited call would
record two nested spans; a shared private base class keeps one. The tracer
also ties its span counts to each solver run's Trace: pgd_map spans per pgd
step, projections per trial, gradients per p2gd iterate; and one
`sets.witness` span per witness certificate, holding its projections.
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
    SolverConfig,
    SparseSet,
    classify_stationarity,
    least_squares,
)
from ncpgd import cli, solver

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer as tracing  # noqa: E402

from test_iteration_core import COMPARE  # noqa: E402

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


def _witness_spans(argv):
    """(sets.witness spans, projections directly under them) of one cli.main run."""
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        patches.restore()
    spans = tracer.spans()
    is_witness = spans.select(lambda n: n == "sets.witness")
    projections = spans.children_count(spans.select(lambda n: n.startswith("sets.project[")))
    return int(np.count_nonzero(is_witness)), int(projections[is_witness].sum())


def test_one_witness_span_per_certificate(capsys):
    # The suite asks the 0/1 witness once per sampled direction: a nonzero one
    # certifies at the smallest step with one projection, a zero one with none.
    assert _witness_spans(["check", "--suite", "prox-equals-regular", "--trials", "1"]) == (240, 160)
    # The README cones example: v = (1, 0) at the kink fails at 1 ... 2^-7
    # and certifies at 2^-8 (the witness is loose), all in one span.
    assert _witness_spans(["cones", "--set", "curve", "--x", "0,0", "--v", "1,0"]) == (1, 9)
    assert "proximal-witness: alpha=0.00390625" in capsys.readouterr().out


def test_solver_spans_match_the_traces(tmp_path):
    # The README compare pair (pgd and p2gd on sparse:n=2,s=1) and a p2gd run
    # that backtracks on a low-rank set.
    rng = np.random.default_rng(7)
    set_ = LowRankSet(4, 3, 2)
    obj = least_squares(Point(rng.standard_normal((4, 3)), (4, 3)))
    x0 = set_.project(Point(rng.standard_normal((4, 3)), (4, 3)))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert cli.main(COMPARE + ["--out", str(tmp_path / "compare.csv")]) == cli.EXIT_OK
        trace = solver.p2gd(set_, obj, x0, SolverConfig(alpha_max=2.5))
    finally:
        patches.restore()
    assert sum(trace.backtrack_counts) > 0
    spans = tracer.spans()
    assert spans.identity_violations() == []

    calls = spans.solver_calls
    assert [c[1] for c in calls] == ["pgd", "p2gd", "p2gd"]
    assert calls[-1][2:] == (len(trace), sum(trace.backtrack_counts), trace.termination.value)
    is_map = spans.select(lambda n: n == "solver.pgd_map")
    is_project = spans.select(lambda n: n.startswith("sets.project["))
    is_grad = spans.select(lambda n: n == "core.grad")
    trials = 0
    for idx, algorithm, length, backtracks, _ in calls:
        maps = np.flatnonzero(is_map & (spans.parent == idx))
        assert maps.size == length - 1
        # Every trial projection sits under a pgd_map span, none directly
        # under the solver span, so trials_per_iter counts each one once.
        assert np.count_nonzero(is_project & np.isin(spans.parent, maps)) == length - 1 + backtracks
        assert np.count_nonzero(is_project & (spans.parent == idx)) == 0
        if algorithm == "p2gd":
            assert np.count_nonzero(is_grad & (spans.parent == idx)) == length
        trials += length - 1 + backtracks
    iters = sum(c[2] - 1 for c in calls)
    metrics = spans.layer_metrics(n_jobs=1, job_seconds=1.0, import_ms=0.0)
    assert metrics["solver.trials_per_iter"] == trials / iters
