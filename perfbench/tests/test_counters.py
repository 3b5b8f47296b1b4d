"""The tracer's span counts against the counters the solver's Trace guarantees.

Run with: python3 -m pytest perfbench/tests
"""

import numpy as np
import pytest

import ncpgd
from ncpgd import solver

import tracer as tracing
import workloads


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        yield tracer
    finally:
        patches.restore()


def _sparse_instance(seed):
    rng = np.random.default_rng(seed)
    target = ncpgd.Point(rng.standard_normal(12))
    return ncpgd.SparseSet(12, 3), ncpgd.least_squares(target), ncpgd.Point.zeros((12,))


def _calls(tracer, algorithm):
    spans = tracer.spans()
    return spans, [c for c in spans.solver_calls if c[1] == algorithm]


@pytest.mark.parametrize("rule", [ncpgd.MaxRule(0), ncpgd.MaxRule(3), ncpgd.AverageRule(0.5)])
@pytest.mark.parametrize("alpha_max", [0.7, 1.9])
def test_pgd_map_spans_and_projections(traced, rule, alpha_max):
    set_, obj, x0 = _sparse_instance(3)
    cfg = ncpgd.SolverConfig(alpha_max=alpha_max, rule=rule)
    trace = solver.pgd(set_, obj, x0, cfg)
    spans, calls = _calls(traced, "pgd")
    assert len(calls) == 1
    idx = calls[0][0]
    maps = spans.select(lambda n: n == "solver.pgd_map") & (spans.parent == idx)
    assert np.count_nonzero(maps) == len(trace) - 1
    projections = spans.select(lambda n: n.startswith("sets.project[")) & np.isin(
        spans.parent, np.flatnonzero(maps))
    assert np.count_nonzero(projections) == len(trace) - 1 + sum(trace.backtrack_counts)
    assert sum(trace.backtrack_counts) > 0 or alpha_max < 1.0
    assert spans.identity_violations() == []


def test_pgd_map_spans_count_the_failed_line_search(traced):
    # A gradient of the wrong sign: no trial step ever passes Armijo.
    obj = ncpgd.Objective(lambda x: 0.5 * float(x.data @ x.data), lambda x: -x, name="wrong-grad")
    x0 = ncpgd.Point([1.0, 2.0, 0.0])
    cfg = ncpgd.SolverConfig(max_backtracks=5)
    trace = solver.pgd(ncpgd.SparseSet(3, 2), obj, x0, cfg)
    assert trace.termination is ncpgd.Termination.BACKTRACK_FAILURE
    spans, calls = _calls(traced, "pgd")
    maps = spans.select(lambda n: n == "solver.pgd_map") & (spans.parent == calls[0][0])
    assert np.count_nonzero(maps) == len(trace) - 1 + 1
    assert spans.identity_violations() == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p2gd_grad_calls_inside_its_span(traced, seed):
    set_, obj, x0 = _sparse_instance(seed)
    trace = solver.p2gd(set_, obj, x0, ncpgd.SolverConfig(alpha_max=0.8))
    spans, calls = _calls(traced, "p2gd")
    grads = spans.select(lambda n: n == "core.grad") & (spans.parent == calls[0][0])
    assert np.count_nonzero(grads) == len(trace)
    assert spans.identity_violations() == []


def test_identities_hold_on_both_library_workloads(traced):
    for name, jobs in (("sparse-iht", 8), ("lowrank-recovery", 4)):
        suite = workloads.LibraryWorkload(name, seed=5)
        for k in range(jobs):
            traced.job_id = k
            with traced.span("job"):
                suite.run(k)
    spans = traced.spans()
    assert {c[1] for c in spans.solver_calls} == {"pgd", "p2gd"}
    assert spans.identity_violations() == []


def test_self_time_subtracts_direct_children_only():
    spans = tracing.Spans(["a", "b", "c"], np.array([0, 1, 2], dtype=np.int32),
                          np.array([-1, 0, 1], dtype=np.int32), np.zeros(3, dtype=np.int32),
                          np.array([0.0, 1.0, 2.0]), np.array([10.0, 6.0, 3.0]), [], [])
    assert spans.self_times().tolist() == [5.0, 4.0, 1.0]


def test_install_wraps_the_entry_points(traced):
    assert hasattr(ncpgd.Point.__init__, "__wrapped__")
    assert hasattr(solver.pgd_map, "__wrapped__")


def test_nothing_stays_wrapped_after_restore():
    tracer = tracing.Tracer()
    before = (ncpgd.Point.__init__, ncpgd.SparseSet.project, solver.pgd, ncpgd.analysis.proximal_normal_witness)
    tracing.install(tracer).restore()
    after = (ncpgd.Point.__init__, ncpgd.SparseSet.project, solver.pgd, ncpgd.analysis.proximal_normal_witness)
    assert before == after
    # Inherited methods are wrapped on the subclass and must be removed again.
    assert "contains" not in vars(ncpgd.SparseSet)
