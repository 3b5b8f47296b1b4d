import dataclasses
import math

import numpy as np
import pytest

from ncpgd import (
    CurveSet,
    InfeasiblePointError,
    MaxRule,
    Objective,
    Point,
    SolverConfig,
    SparseSet,
    Termination,
    classify_stationarity,
    constant,
    detect_apocalypse,
    least_squares,
    norm,
    pgd,
    p2gd,
    proximal_normal_witness,
    stationarity_measure_series,
)
from ncpgd.sets import from_spec

TWO_AXIS = SparseSet(2, 1)
OBJ = least_squares(Point.vector([1.0, 0.0]))
START = Point.vector([0.0, 1.0])


def fixed_step_config(alpha, c, **kw):
    return SolverConfig(alpha_min=alpha, alpha_max=alpha, beta=0.5, c=c,
                        rule=MaxRule(0), **kw)


# -- classification -----------------------------------------------------------


def test_global_minimizer_is_p_stationary():
    x = Point.vector([1.0, 0.0])
    report = classify_stationarity(TWO_AXIS, OBJ, x)
    assert report.classification == "P-stationary"
    # -grad = 0 there, so the first step of the grid already certifies.
    assert proximal_normal_witness(TWO_AXIS, x, -OBJ.grad(x), tol=1e-7) == 1.0
    assert report.d_regular == 0.0


def test_kink_is_m_stationary_only():
    report = classify_stationarity(TWO_AXIS, OBJ, Point.zeros((2,)))
    assert report.classification == "M-stationary-only"
    assert report.d_regular == pytest.approx(1.0, abs=1e-12)
    assert report.d_general_member
    assert not report.proximal_member


def test_zero_gradient_is_p_stationary_everywhere():
    report = classify_stationarity(TWO_AXIS, constant(), Point.vector([0.0, 0.4]))
    assert report.classification == "P-stationary"


def test_curve_kink_b_stationary_but_not_proximal():
    # Negative gradient at the origin sits on the removed ray of the proximal cone.
    set_ = CurveSet()
    obj = least_squares(Point.vector([1.0, 0.0]))
    report = classify_stationarity(set_, obj, Point.zeros((2,)))
    assert report.classification == "B-stationary"
    assert report.d_regular <= 1e-12
    assert not report.proximal_member
    assert report.d_general_member


@pytest.mark.parametrize("spec", ["sparse:n=6,s=2", "nonneg-sparse:n=6,s=2", "lowrank:m=4,n=4,r=2",
                                  "psd:n=4,r=2", "curve", "epigraph"])
def test_classify_evaluates_no_f(spec, rng):
    set_ = from_spec(spec)
    x = set_.random_point(rng)
    obj = least_squares(Point(rng.standard_normal(x.data.size), x.shape))
    evals = []
    counting = Objective(lambda p: evals.append(p) or obj.eval(p), obj.grad, name="counting")
    for _ in range(3):
        classify_stationarity(set_, counting, x)
    assert evals == []


def test_classify_rejects_infeasible_point():
    with pytest.raises(InfeasiblePointError):
        classify_stationarity(TWO_AXIS, OBJ, Point.vector([1.0, 1.0]))


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-7])
def test_classify_and_apocalypse_reject_a_tol_outside_zero_inf(tol):
    # An infinite tol would label this point, far from stationary, P-stationary.
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=3))
    with pytest.raises(ValueError, match=r"tol must be in \(0, inf\)"):
        classify_stationarity(TWO_AXIS, OBJ, START, tol=tol)
    with pytest.raises(ValueError, match=r"tol must be in \(0, inf\)"):
        detect_apocalypse(TWO_AXIS, OBJ, trace, tol=tol)


def test_classification_respects_cone_nesting(rng):
    for _ in range(40):
        x = TWO_AXIS.random_point(rng)
        target = Point(rng.standard_normal(2), (2,))
        report = classify_stationarity(TWO_AXIS, least_squares(target), x)
        if report.proximal_member:
            assert report.d_regular <= 1e-7
        if report.d_regular <= 1e-7:
            assert report.d_general_member


# -- measure series -----------------------------------------------------------


def test_pgd_measure_series_decays():
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    series = stationarity_measure_series(TWO_AXIS, OBJ, trace)
    assert series == trace.stat_measures
    assert series[-1] < 1e-8


def test_p2gd_measure_series_vanishes_but_limit_measure_does_not():
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    series = stationarity_measure_series(TWO_AXIS, OBJ, trace)
    assert series[-1] < 1e-8
    for i in range(1, len(series)):
        assert series[i] <= series[i - 1] + 1e-15
    limit = TWO_AXIS.project(trace.final())
    report = classify_stationarity(TWO_AXIS, OBJ, limit)
    assert report.d_regular == pytest.approx(1.0, abs=1e-9)


def test_single_point_trace_series():
    trace = pgd(TWO_AXIS, OBJ, Point.vector([1.0, 0.0]), fixed_step_config(1.0, 0.4))
    assert stationarity_measure_series(TWO_AXIS, OBJ, trace) == [0.0]


SERIES_SPECS = ["sparse:n=8,s=3", "nonneg-sparse:n=8,s=3", "lowrank:m=5,n=4,r=2",
                "psd:n=4,r=2", "curve", "epigraph"]


@pytest.mark.parametrize("spec", SERIES_SPECS)
def test_measure_series_equals_the_recorded_measures_bitwise(spec):
    # The series recomputes what the solvers record; psd has no tangent
    # projection, so p2gd runs on the other five sets.
    set_ = from_spec(spec)
    shape = set_.ambient_shape
    algorithms = ["regular", "proximal"] + ([] if spec.startswith("psd") else ["p2gd"])
    for seed in range(4):
        rng = np.random.default_rng(seed)
        obj = least_squares(Point(rng.standard_normal(shape), shape))
        x0 = set_.project(Point(rng.standard_normal(shape), shape))
        cfg = SolverConfig(alpha_max=2.5, max_iters=40)
        for algorithm in algorithms:
            if algorithm == "p2gd":
                trace = p2gd(set_, obj, x0, cfg)
            else:
                trace = pgd(set_, obj, x0, cfg, stationarity=algorithm)
            series = stationarity_measure_series(set_, obj, trace)
            assert len(series) == len(trace)
            assert (np.array(series).view(np.int64).tolist()
                    == np.array(trace.stat_measures).view(np.int64).tolist())


@pytest.mark.parametrize("spec", SERIES_SPECS)
def test_a_proximal_stop_classifies_p_stationary(spec):
    # The stop and the label ask the same closed form, at stat_tol and at
    # ten times it.
    set_ = from_spec(spec)
    shape = set_.ambient_shape
    rng = np.random.default_rng(2403)
    stopped = 0
    for t in range(24):
        obj = least_squares(Point(rng.standard_normal(shape), shape))
        x0 = set_.random_point(rng)
        cfg = SolverConfig(alpha_max=float(rng.choice([0.1, 0.3, 0.7, 1.3])),
                           rule=MaxRule(t % 3), stat_tol=float(rng.choice([1e-8, 1e-6])),
                           max_iters=300)
        trace = pgd(set_, obj, x0, cfg, stationarity="proximal")
        if trace.termination is Termination.STATIONARY_AT_TOL:
            stopped += 1
            report = classify_stationarity(set_, obj, trace.final(), tol=10.0 * cfg.stat_tol)
            assert report.classification == "P-stationary", (t, report.d_regular)
    assert stopped >= 12


# -- apocalypse detection -----------------------------------------------------


def test_p2gd_run_is_flagged():
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    flag = detect_apocalypse(TWO_AXIS, OBJ, trace)
    assert flag.flagged
    assert norm(flag.limit_point) <= 1e-6
    assert flag.measure_at_limit == pytest.approx(1.0, abs=1e-9)


def test_pgd_run_is_not_flagged():
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    flag = detect_apocalypse(TWO_AXIS, OBJ, trace)
    assert not flag.flagged
    assert flag.measure_at_limit <= 1e-6
    report = classify_stationarity(TWO_AXIS, OBJ, TWO_AXIS.project(flag.limit_point))
    assert report.classification == "P-stationary"


def test_constant_objective_is_not_flagged():
    trace = pgd(TWO_AXIS, constant(), START, fixed_step_config(0.45, 0.05))
    flag = detect_apocalypse(TWO_AXIS, constant(), trace)
    assert not flag.flagged


def test_apocalypse_reads_the_measure_series_from_the_trace():
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    calls = []
    counting = Objective(OBJ.eval, lambda x: calls.append(x) or OBJ.grad(x), name="counting")
    flag = detect_apocalypse(TWO_AXIS, counting, trace)
    # One gradient, at the estimated limit.
    assert len(calls) == 1
    assert flag.flagged
    # The trace's last measure decides the flag; the flag keeps no copy of the series.
    unsettled = dataclasses.replace(trace, stat_measures=trace.stat_measures[:-1] + [1.0])
    assert not detect_apocalypse(TWO_AXIS, counting, unsettled).flagged
    assert len(calls) == 2


class _ProximalDistanceDiffers(SparseSet):
    """A set whose proximal infimum distance is not the regular one."""

    def dist_proximal_normal(self, x, v, tol=None):
        return self.dist_regular_normal(x, v, tol) + 1.0


def test_pgd_records_regular_measures_under_either_stopping_test():
    set_ = _ProximalDistanceDiffers(2, 1)
    cfg = fixed_step_config(0.45, 0.05, max_iters=60)
    for stationarity in ("regular", "proximal"):
        trace = pgd(set_, OBJ, START, cfg, stationarity=stationarity)
        assert trace.stat_measures == stationarity_measure_series(set_, OBJ, trace)


def test_unconverged_trace_not_flagged_with_note():
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=3,
                                                         stat_tol=1e-300))
    flag = detect_apocalypse(TWO_AXIS, OBJ, trace)
    assert not flag.flagged
    assert "not converged" in flag.note


# -- descent lemma and accepted steps -----------------------------------------


def test_descent_lemma_for_least_squares(rng):
    # |f(y) - f(x) - <grad f(x), y - x>| <= (lip/2) ||y - x||^2 with lip = 1.
    obj = least_squares(Point.vector(rng.standard_normal(3)))
    for _ in range(100):
        x = Point(rng.standard_normal(3), (3,))
        y = Point(rng.standard_normal(3), (3,))
        lhs = abs(obj.eval(y) - obj.eval(x) - float(np.dot(obj.grad(x).data, (y - x).data)))
        assert lhs <= 0.5 * norm(y - x) ** 2 * (1.0 + 1e-12) + 1e-12


def test_armijo_steps_satisfy_projected_translation(rng):
    # Every accepted update is a projected translation by alpha * grad.
    from ncpgd import projected_translation_check
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60))
    for i in range(1, len(trace)):
        x = trace.iterates[i - 1]
        v = trace.alphas[i] * OBJ.grad(x)
        assert projected_translation_check(TWO_AXIS, x, v)[1:] == (True, True)
