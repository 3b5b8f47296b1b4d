"""Acceptance suite: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import functools
import io
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ncpgd import (
    AverageRule,
    CurveSet,
    LowRankSet,
    MaxRule,
    NonnegSparseSet,
    Point,
    PsdLowRankSet,
    SolverConfig,
    SparseSet,
    Termination,
    check_gradient,
    classify_stationarity,
    constant,
    detect_apocalypse,
    in_proximal_normal_witness,
    inner,
    least_squares,
    norm,
    p2gd,
    pgd,
    quartic,
    stationarity_measure_series,
)
from ncpgd import cli

from helpers import nonneg_sparse_bruteforce, psd_truncation, sparse_bruteforce, svd_truncation

TWO_AXIS = SparseSet(2, 1)
OBJ = least_squares(Point.vector([1.0, 0.0]))
START = Point.vector([0.0, 1.0])


def criterion(num, slug):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({slug}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({slug}): PASS")
        return wrapper
    return deco


def fixed_step_config(alpha, c, **kw):
    return SolverConfig(alpha_min=alpha, alpha_max=alpha, beta=0.5, c=c,
                        rule=MaxRule(0), **kw)


def assert_coords(point, expected, tol=1e-12):
    assert np.allclose(point.data, expected, atol=tol, rtol=0.0), (point.data, expected)


GOLDEN = Path(__file__).parent / "golden"


def traces_csv(runs) -> str:
    """What `ncpgd solve` writes for every (set, objective, config, trace) run, in one CSV.

    Each row gets a leading `run` column, and the coordinates are padded with
    empty cells to the widest run.
    """
    dim = max(trace.iterates[0].data.size for *_, trace in runs)
    lines = [",".join(["run"] + cli.trace_header(dim))]
    for k, (set_, obj, cfg, trace) in enumerate(runs):
        one = io.StringIO()
        cli.write_trace_csv(one, trace, cli._witness_flags(set_, obj, trace, 10.0 * cfg.stat_tol))
        pad = "," * (dim - trace.iterates[0].data.size)
        lines += [f"{k},{row}{pad}" for row in one.getvalue().splitlines()[1:]]
    return "\n".join(lines) + "\n"


def assert_matches_golden(runs, name):
    assert traces_csv(runs).encode("utf-8") == (GOLDEN / name).read_bytes()


# -- 1: closed-form trajectory reproduction -----------------------------------


@criterion(1, "closed-form trajectories")
def test_criterion_1_closed_form_trajectories():
    started = time.perf_counter()
    runs = []

    def run(solver, cfg):
        trace = solver(TWO_AXIS, OBJ, START, cfg)
        runs.append((TWO_AXIS, OBJ, cfg, trace))
        return trace

    trace = run(pgd, fixed_step_config(1.0, 0.4))
    assert len(trace) == 2
    assert_coords(trace.iterates[0], [0.0, 1.0])
    assert_coords(trace.iterates[1], [1.0, 0.0])

    trace = run(p2gd, fixed_step_config(1.0, 0.4))
    assert len(trace) == 3
    assert_coords(trace.iterates[1], [0.0, 0.0])
    assert_coords(trace.iterates[2], [1.0, 0.0])

    alpha = 0.45
    trace = run(p2gd, fixed_step_config(alpha, 0.05, max_iters=25, stat_tol=1e-300))
    assert len(trace) == 26
    for i, x in enumerate(trace.iterates):
        assert_coords(x, [0.0, (1.0 - alpha) ** i])

    trace = run(pgd, fixed_step_config(alpha, 0.05, max_iters=25, stat_tol=1e-300))
    i_star = math.floor(math.log(alpha) / math.log(1.0 - alpha))
    assert i_star == 1
    for i in range(i_star + 1):
        assert_coords(trace.iterates[i], [0.0, (1.0 - alpha) ** i])
    for j, x in enumerate(trace.iterates[i_star + 1:]):
        assert_coords(x, [1.0 - (1.0 - alpha) ** (j + 1), 0.0])

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"trajectory reproduction took {elapsed:.3f}s"
    assert_matches_golden(runs, "acceptance_1.csv")


# -- 2: apocalypse detection ---------------------------------------------------


@criterion(2, "apocalypse detection")
def test_criterion_2_apocalypse_detection():
    cfg = fixed_step_config(0.45, 0.05, max_iters=100, stat_tol=1e-8)

    trace_t = p2gd(TWO_AXIS, OBJ, START, cfg)
    series = stationarity_measure_series(TWO_AXIS, OBJ, trace_t)
    assert series[-1] < 1e-8
    flag_t = detect_apocalypse(TWO_AXIS, OBJ, trace_t, tol=1e-7)
    assert flag_t.flagged
    report_t = classify_stationarity(TWO_AXIS, OBJ, flag_t.limit_point, tol=1e-7)
    assert abs(report_t.d_regular - 1.0) <= 1e-9

    trace_p = pgd(TWO_AXIS, OBJ, START, cfg)
    series_p = stationarity_measure_series(TWO_AXIS, OBJ, trace_p)
    assert series_p[-1] < 1e-8
    flag_p = detect_apocalypse(TWO_AXIS, OBJ, trace_p, tol=1e-7)
    assert not flag_p.flagged
    report_p = classify_stationarity(TWO_AXIS, OBJ, flag_p.limit_point, tol=1e-7)
    assert report_p.classification == "P-stationary"
    assert_coords(flag_p.limit_point, [1.0, 0.0], tol=1e-6)
    assert_matches_golden([(TWO_AXIS, OBJ, cfg, trace_t), (TWO_AXIS, OBJ, cfg, trace_p)],
                          "acceptance_2.csv")


# -- 3: projected-translation inequalities -------------------------------------


@criterion(3, "projected-translation inequalities")
def test_criterion_3_projected_translation():
    started = time.perf_counter()
    trials = 10_000
    strict_seen = 0
    for t, set_, x, v, y, ok_dist, ok_ip in cli.projected_translation_trials(308, trials):
        assert ok_dist and ok_ip, (set_, t)
        d = norm(y - x)
        if d > 1e-9:
            strict_seen += 1
            assert d < 2.0 * norm(v), (set_, t)
            assert 2.0 * inner(v, y - x) < -d * d, (set_, t)
    assert strict_seen > trials // 2
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"{trials} trials took {elapsed:.1f}s"


# -- 4: brute-force projection equivalence --------------------------------------


@criterion(4, "brute-force projection equivalence")
def test_criterion_4_bruteforce_equivalence():
    rng = np.random.default_rng(404)
    for n in range(2, 7):
        for s in range(1, n):
            plain = SparseSet(n, s)
            nonneg = NonnegSparseSet(n, s)
            for _ in range(1000):
                z = 2.0 * rng.standard_normal(n)
                zp = Point.vector(z)

                best, minimizers = sparse_bruteforce(z, s)
                y = plain.project(zp)
                assert abs(norm(zp - y) - best) <= 1e-12
                assert any(np.allclose(y.data, m, atol=1e-12) for m in minimizers)

                best, minimizers = nonneg_sparse_bruteforce(z, s)
                y = nonneg.project(zp)
                assert abs(norm(zp - y) - best) <= 1e-12
                assert any(np.allclose(y.data, m, atol=1e-12) for m in minimizers)

    for m, n_ in itertools.product((2, 3, 4), repeat=2):
        for r in range(1, min(m, n_)):
            set_ = LowRankSet(m, n_, r)
            for _ in range(200):
                z = rng.standard_normal((m, n_))
                y = set_.project(Point.matrix(z))
                assert np.allclose(y.as_array(), svd_truncation(z, r), atol=1e-10)

    for n_ in (2, 3, 4):
        for r in range(1, n_):
            set_ = PsdLowRankSet(n_, r)
            for _ in range(200):
                z = rng.standard_normal((n_, n_))
                y = set_.project(Point.matrix(z))
                assert np.allclose(y.as_array(), psd_truncation(z, r), atol=1e-10)


# -- 5: regular normals admit proximal witnesses --------------------------------


@criterion(5, "regular normals are proximal")
def test_criterion_5_regular_normals_are_proximal():
    facts = cli.prox_equals_regular_trials(505, 100)
    assert [(set_, stratum) for set_, stratum, *_, certified in facts if not certified] == []


# -- 6 and 7: nonmonotone rule properties and final stationarity ----------------


@pytest.fixture(scope="module")
def nonmonotone_runs():
    rng = np.random.default_rng(606)
    pool = [SparseSet(5, 2), NonnegSparseSet(5, 2), LowRankSet(3, 3, 1), PsdLowRankSet(3, 1)]
    rules = [MaxRule(0), MaxRule(2), MaxRule(5),
             AverageRule(0.1), AverageRule(0.5), AverageRule(1.0)]
    runs = []
    for t in range(200):
        set_ = pool[t % len(pool)]
        target = Point(rng.standard_normal(int(np.prod(set_.ambient_shape))),
                       set_.ambient_shape)
        obj = least_squares(target)
        x0 = set_.random_point(rng)
        cfg = SolverConfig(alpha_min=1e-4,
                           alpha_max=float(rng.choice([0.3, 0.7, 1.0, 1.3])),
                           beta=0.5, c=float(rng.choice([1e-4, 0.1, 0.4])),
                           rule=rules[t % len(rules)], stat_tol=1e-8, max_iters=500)
        runs.append((set_, obj, cfg, pgd(set_, obj, x0, cfg)))
    return runs


@criterion(6, "nonmonotone rule properties")
def test_criterion_6_nonmonotone_rules(nonmonotone_runs):
    for set_, obj, cfg, trace in nonmonotone_runs:
        f0 = trace.f_values[0]
        slack = 1e-10 * max(1.0, abs(f0))
        assert set_.contains(trace.iterates[0])
        for i in range(len(trace)):
            assert trace.f_values[i] <= f0 + slack
            assert trace.mu_values[i] >= trace.f_values[i] - slack
        if isinstance(cfg.rule, MaxRule):
            w, f = cfg.rule.window, trace.f_values
            window_max = [max(f[max(0, i - w):i + 1]) for i in range(len(trace))]
            for i in range(1, len(trace)):
                assert window_max[i] <= window_max[i - 1] + slack
        else:
            for i in range(1, len(trace)):
                assert trace.mu_values[i] <= trace.mu_values[i - 1] + slack
        # Armijo, sufficient decrease and feasibility of every accepted step.
        assert [step for step in cli.armijo_replay(set_, obj, cfg, trace) if step[1]] == []
    assert_matches_golden(nonmonotone_runs, "acceptance_6.csv")


@criterion(7, "final iterates certify stationary")
def test_criterion_7_final_stationarity(nonmonotone_runs):
    converged = 0
    for set_, obj, cfg, trace in nonmonotone_runs:
        if trace.termination is not Termination.STATIONARY_AT_TOL:
            continue
        converged += 1
        final = trace.final()
        v = -obj.grad(final)
        assert set_.dist_regular_normal(final, v) <= 1e-7
        assert in_proximal_normal_witness(set_, final, v, tol=1e-7)
        # f-values agree along the settled tail (iterates already below measure 1e-6).
        start = len(trace)
        while start > 0 and trace.stat_measures[start - 1] <= 1e-6:
            start -= 1
        tail = trace.f_values[start:]
        assert max(tail) - min(tail) <= 1e-5 * max(1.0, abs(trace.f_values[0]))
    assert converged >= 150, f"only {converged} of 200 runs converged"


# -- 8: cone table at the kink ---------------------------------------------------


@criterion(8, "kink cone table")
def test_criterion_8_curve_cone_table():
    set_ = CurveSet()
    origin = Point.zeros((2,))
    eta = 1e-9
    mismatches = 0
    for k in range(360):
        theta = 2.0 * math.pi * k / 360.0
        v = Point.vector([math.cos(theta), math.sin(theta)])
        v0, v1 = float(v.data[0]), float(v.data[1])

        got_tangent = norm(v - set_.project_tangent(origin, v)) <= eta
        got_regular = set_.dist_regular_normal(origin, v) <= eta
        got_proximal = set_.in_proximal_normal(origin, v)
        got_general = set_.in_general_normal(origin, v)

        want_tangent = (abs(v0) <= eta and v1 >= -eta) or (v0 <= eta and abs(v1) <= eta)
        want_regular = v0 >= -eta and v1 <= eta
        want_proximal = want_regular and not (v0 > eta and abs(v1) <= eta)
        want_general = want_regular or want_tangent

        if (got_tangent, got_regular, got_proximal, got_general) != (
                want_tangent, want_regular, want_proximal, want_general):
            mismatches += 1
    assert mismatches == 0


# -- 9: gradient validation -------------------------------------------------------


@criterion(9, "gradient validation")
def test_criterion_9_gradient_validation():
    rng = np.random.default_rng(909)
    shapes = [(4,), (2, 3)]
    for make in (lambda shape: least_squares(Point(rng.standard_normal(int(np.prod(shape))), shape)),
                 lambda shape: constant(2.5),
                 lambda shape: quartic()):
        for _ in range(50):
            for shape in shapes:
                obj = make(shape)
                x = Point(rng.standard_normal(int(np.prod(shape))), shape)
                assert check_gradient(obj, x) < 1e-5
