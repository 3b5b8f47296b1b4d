"""The proximal-normal witness: bisection over the step grid against the linear scan.

proximal_normal_witness finds the largest certifying grid step by bisection,
relying on the certifying steps being closed downward. The scan it replaced
lives on as helpers.witness_scan; the two must agree wherever the per-step
test is not decided by roundoff, and the search must stay within its
projection budget.
"""

import math
import warnings

import numpy as np
import pytest

from ncpgd import (
    WITNESS_ALPHA_GRID,
    CurveSet,
    EpigraphSet,
    LowRankSet,
    NonnegSparseSet,
    Point,
    PsdLowRankSet,
    SolverConfig,
    SparseSet,
    Termination,
    in_proximal_normal_witness,
    least_squares,
    norm,
    pgd,
    proximal_normal_witness,
    solver,
)
from ncpgd import cli

from helpers import read_trace_csv, witness_scan

SETS = [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 4, 2), PsdLowRankSet(4, 2),
        CurveSet(), EpigraphSet(), LowRankSet(30, 20, 3)]
TOLS = [None, 1e-7, 1e-5]
# Projections of one search on the default grid: alphas[0], alphas[-1], then
# a bisection over the 20 gaps between them.
BUDGET = 2 + math.ceil(math.log2(len(WITNESS_ALPHA_GRID) - 1))


def _count_projections(monkeypatch, set_):
    calls = []
    real = type(set_).project

    def counted(self, z):
        calls.append(z.shape)
        return real(self, z)

    monkeypatch.setattr(type(set_), "project", counted)
    return calls


def _seeded_pairs(set_, rng, points=6):
    """(x, v) over every stratum: exact regular normals, normals plus 1e-8 noise,
    and random v with norm log-uniform in [1e-4, 10]."""
    for stratum in set_.stratum_ids:
        for _ in range(points):
            x = set_.random_point(rng, stratum=stratum)
            size = x.data.size
            normal = set_.sample_regular_normal(x, rng)
            yield x, normal
            yield x, normal + Point(1e-8 * rng.standard_normal(size), x.shape)
            u = rng.standard_normal(size)
            scale = 10.0 ** rng.uniform(-4.0, 1.0)
            yield x, Point(scale * u / np.linalg.norm(u), x.shape)


@pytest.mark.parametrize("tol", TOLS)
def test_search_equals_scan_on_seeded_pairs(tol, monkeypatch):
    rng = np.random.default_rng(6021)
    outcomes = {"first": 0, "inner": 0, "none": 0}
    for set_ in SETS:
        calls = _count_projections(monkeypatch, set_)
        for x, v in _seeded_pairs(set_, rng):
            want = witness_scan(set_, x, v, WITNESS_ALPHA_GRID, tol)
            del calls[:]
            got = proximal_normal_witness(set_, x, v, tol=tol)
            assert got == want, (set_, tol, x, v)
            assert len(calls) <= BUDGET
            if got is None:
                outcomes["none"] += 1
                assert len(calls) == 2
            elif got == WITNESS_ALPHA_GRID[0]:
                outcomes["first"] += 1
                assert len(calls) == (norm(v) > 0.0)
            else:
                outcomes["inner"] += 1
            del calls[:]
            assert in_proximal_normal_witness(set_, x, v, tol=tol) == (got is not None)
            assert len(calls) <= 2
        monkeypatch.undo()
    # Every branch of the search was exercised.
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("set_", [CurveSet(), EpigraphSet()], ids=repr)
def test_search_equals_scan_at_the_kink(set_, monkeypatch):
    # The scan and the search, at every tolerance, project the same points
    # x + a*v of the grid; memoize them so each is projected once.
    memo = {}
    real = type(set_).project

    def memoized(self, z):
        key = z.data.tobytes()
        if key not in memo:
            memo[key] = real(self, z)
        return memo[key]

    monkeypatch.setattr(type(set_), "project", memoized)
    origin = Point.zeros((2,))
    for tol in TOLS:
        hits = 0
        for k in range(720):
            theta = 2.0 * math.pi * k / 720.0
            v = Point.vector([math.cos(theta), math.sin(theta)])
            if k == 0:
                # The removed ray: regular but not proximal at the kink.
                assert v.data.tolist() == [1.0, 0.0]
            got = proximal_normal_witness(set_, origin, v, tol=tol)
            assert got == witness_scan(set_, origin, v, WITNESS_ALPHA_GRID, tol), (k, tol)
            assert in_proximal_normal_witness(set_, origin, v, tol=tol) == (got is not None)
            hits += got is not None
        assert 0 < hits < 720


def test_roundoff_regime_can_differ_from_scan():
    # At tol = 1e-12 the test at the smallest step, 2^-20, asks the achieved
    # distance to match a*||v|| to ~2e-18, below the rounding error of x + a*v
    # (~3e-16). The smallest step then fails by roundoff while 0.25 certifies:
    # the scan reaches 0.25, the search stops after the smallest step fails.
    set_ = LowRankSet(4, 4, 2)
    rng = np.random.default_rng(2)
    x = set_.random_point(rng)
    v = set_.sample_regular_normal(x, rng)
    tol = 1e-12
    assert witness_scan(set_, x, v, WITNESS_ALPHA_GRID, tol) == 0.25
    assert proximal_normal_witness(set_, x, v, tol=tol) is None

    a = WITNESS_ALPHA_GRID[-1]
    z = x + a * v
    gap = a * norm(v) - norm(z - set_.project(z))
    rounding = np.finfo(float).eps * (norm(x) + a * norm(v))
    assert tol * a * max(1.0, norm(v)) < gap < rounding
    # Outside the regime the two agree.
    for tol in TOLS:
        assert proximal_normal_witness(set_, x, v, tol=tol) == 0.25


# -- projection budget ----------------------------------------------------------


@pytest.mark.parametrize("v,alpha,projections", [
    ((0.0, 0.5), 1.0, 1),    # certified at a = 1
    ((1.0, 0.0), None, 2),   # a tangent direction: fails at a = 1 and at 2^-20
    ((0.0, 3.0), 0.25, 6),   # certified for a <= 1/3
])
def test_projection_count(v, alpha, projections, monkeypatch):
    set_ = SparseSet(2, 1)
    x, v = Point.vector([1.0, 0.0]), Point.vector(v)
    assert witness_scan(set_, x, v, WITNESS_ALPHA_GRID) == alpha
    calls = _count_projections(monkeypatch, set_)
    assert proximal_normal_witness(set_, x, v) == alpha
    assert len(calls) == projections <= BUDGET


@pytest.mark.parametrize("v,alpha,projections", [
    ((0.0, 1.5), 0.5, 1),    # certified for a <= 2/3: the smallest step decides
    ((1.0, 0.0), None, 2),   # a tangent direction: fails at 2^-20 and at 1
])
def test_truth_value_projection_count(v, alpha, projections, monkeypatch):
    # The 0/1 query skips the bisection that finds the largest certifying step.
    set_ = SparseSet(2, 1)
    x, v = Point.vector([1.0, 0.0]), Point.vector(v)
    assert witness_scan(set_, x, v, WITNESS_ALPHA_GRID) == alpha
    calls = _count_projections(monkeypatch, set_)
    assert in_proximal_normal_witness(set_, x, v) == (alpha is not None)
    assert len(calls) == projections


def _count_witness_projections(monkeypatch, calls):
    """(projections, answer) of each proximal stop test that pgd makes."""
    per_call = []
    real = solver.in_proximal_normal_witness

    def counted(*args, **kwargs):
        before = len(calls)
        ok = real(*args, **kwargs)
        per_call.append((len(calls) - before, ok))
        return ok

    monkeypatch.setattr(solver, "in_proximal_normal_witness", counted)
    return per_call


def test_pgd_proximal_test_costs_two_projections_per_iterate(monkeypatch):
    set_ = LowRankSet(8, 6, 2)
    rng = np.random.default_rng(8602)
    obj = least_squares(Point(rng.standard_normal(48), (8, 6)))
    x0 = set_.random_point(rng)
    cfg = SolverConfig(alpha_max=0.3, max_iters=12)
    calls = _count_projections(monkeypatch, set_)
    per_call = _count_witness_projections(monkeypatch, calls)
    trace = pgd(set_, obj, x0, cfg, stationarity="proximal")
    assert trace.termination is Termination.MAX_ITERS
    assert len(per_call) == len(trace)
    assert all(not ok and count == 2 for count, ok in per_call)


def test_pgd_proximal_stop_costs_one_projection_on_the_final_iterate(monkeypatch):
    # One unit step lands on (1, 0), where v = (0, 0.5) moves x + a*v off the
    # set only along the zero coordinate: the smallest grid step certifies.
    set_ = SparseSet(2, 1)
    obj = least_squares(Point.vector([1.0, 0.5]))
    calls = _count_projections(monkeypatch, set_)
    per_call = _count_witness_projections(monkeypatch, calls)
    trace = pgd(set_, obj, Point.vector([0.0, 1.0]), SolverConfig(), stationarity="proximal")
    assert trace.termination is Termination.STATIONARY_AT_TOL
    assert trace.final().data.tolist() == [1.0, 0.0]
    assert per_call == [(2, False), (1, True)]


# -- grid contract --------------------------------------------------------------


@pytest.mark.parametrize("alphas", [[0.5, 0.5], [0.25, 0.5], [1.0, 0.5, 0.75],
                                    [1.0, math.nan], [0.5, 0.0], [0.5, -1.0]])
def test_grid_must_be_positive_and_strictly_decreasing(alphas):
    set_ = SparseSet(2, 1)
    x = Point.vector([1.0, 0.0])
    for v in (Point.vector([0.0, 0.0]), Point.vector([0.0, 1.0])):
        with pytest.raises(ValueError, match="step lengths"):
            proximal_normal_witness(set_, x, v, alphas=alphas)


def test_short_grids():
    set_ = SparseSet(2, 1)
    x = Point.vector([1.0, 0.0])
    assert proximal_normal_witness(set_, x, Point.vector([0.0, 3.0]), alphas=()) is None
    for alphas in ([0.5], [0.5, 0.25], [0.5, 0.25, 0.125]):
        for v in ((0.0, 3.0), (0.0, 0.5), (1.0, 0.0)):
            v = Point.vector(v)
            assert (proximal_normal_witness(set_, x, v, alphas=alphas)
                    == witness_scan(set_, x, v, alphas))


# -- a direction whose norm overflows ---------------------------------------------
# Its norm is inf, and a*inf - d would pass the per-step test at every step.
# The dot products overflow with RuntimeWarnings, recorded here so that they
# do not reach the test log (tests/test_known_defects.py pins them).


def test_an_overflowed_direction_certifies_no_step():
    set_ = SparseSet(3, 1)
    x = Point.vector([1e80, 0.0, 0.0])
    v = Point.vector([-1e240, 0.0, 0.0])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert norm(v) == math.inf
        assert not in_proximal_normal_witness(set_, x, v)
        assert proximal_normal_witness(set_, x, v) is None


def test_an_overflowed_gradient_is_not_marked_proximal_in_the_csv(tmp_path, capsys):
    out = tmp_path / "q.csv"
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = cli.main(["solve", "--set", "sparse:n=3,s=1", "--objective", "quartic",
                         "--x0", "1e80,0,0", "--out", str(out)])
    assert code == cli.EXIT_SOLVER
    cols = read_trace_csv(str(out))
    assert cols["stat_regular"] == [math.inf]
    assert cols["stat_proximal_witness"] == [0]
