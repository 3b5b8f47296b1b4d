"""Thin factors carried from the low-rank/PSD projections to the cone queries.

The oracles here decompose with plain numpy (full SVD or eigh) and never read
the factors a projection leaves on its output.
"""

import numpy as np
import pytest

from ncpgd import (
    FeasibleSet,
    InfeasiblePointError,
    LowRankSet,
    MaxRule,
    Objective,
    Point,
    PsdLowRankSet,
    SolverConfig,
    classify_stationarity,
    detect_apocalypse,
    pgd,
)
from ncpgd import cli, solver
from ncpgd.sets.lowrank import _fix_gauge

TALL_SETS = [LowRankSet(8, 4, 2), LowRankSet(30, 10, 2)]


def _fix_gauge_loop(U, Vt=None):
    """Column-by-column sign convention the vectorized version must reproduce."""
    U = U.copy()
    Vt = None if Vt is None else Vt.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        top = np.abs(col).max(initial=0.0)
        big = np.flatnonzero(np.abs(col) > 1e-12 * top)
        if big.size and col[big[0]] < 0.0:
            U[:, j] = -col
            if Vt is not None:
                Vt[j, :] = -Vt[j, :]
    return U, Vt


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _carries(x):
    return getattr(x, "_factors", None) is not None


# -- plain-numpy oracle for the low-rank cones --------------------------------


def _oracle(set_, x, tol=1e-9):
    U, s, Vt = np.linalg.svd(x.as_array(), full_matrices=True)
    k = int(np.count_nonzero(s > tol))
    return U[:, :k], U[:, k:], Vt[:k].T, Vt[k:].T, k


def _oracle_block(W, U2, V2):
    return U2 @ U2.T @ W @ V2 @ V2.T


def _points(set_, rng):
    """Plain points on every stratum, and projections (which carry factors)."""
    out = []
    for k in set_.stratum_ids:
        x = set_.random_point(rng, stratum=k)
        out.append(x)
        out.append(set_.project(x))
    out.append(set_.project(Point(rng.standard_normal(set_.ambient_shape))))
    return out


@pytest.mark.parametrize("set_", TALL_SETS, ids=repr)
def test_tall_lowrank_queries_match_dense_oracle(set_, rng):
    for x in _points(set_, rng):
        U1, U2, V1, V2, k = _oracle(set_, x)
        assert set_.stratum_id(x) == k
        for _ in range(5):
            W = rng.standard_normal(set_.ambient_shape)
            v = Point(W)
            B = _oracle_block(W, U2, V2)
            want = float(np.linalg.norm(W)) if k < set_.r else float(np.linalg.norm(W - B))
            assert set_.dist_regular_normal(x, v) == pytest.approx(want, rel=1e-12, abs=1e-12)

            tangent = W - B
            if k < set_.r:
                Ub, sb, Vbt = np.linalg.svd(B)
                free = set_.r - k
                tangent = tangent + (Ub[:, :free] * sb[:free]) @ Vbt[:free]
            assert np.allclose(set_.project_tangent(x, v).as_array(), tangent, atol=1e-12)

            # General normals: orthogonal to the row and column spaces, rank at most min(m, n) - r.
            N = U2[:, :2] @ rng.standard_normal((2, 2)) @ V2[:, :2].T
            assert set_.in_general_normal(x, Point(N)) == (2 <= min(set_.ambient_shape) - set_.r)
            assert not set_.in_general_normal(x, Point(N + U1 @ V1.T)) or k == 0

        seed = int(rng.integers(1 << 30))
        got = set_.sample_regular_normal(x, np.random.default_rng(seed))
        if k < set_.r:
            assert not np.any(got.as_array())
        else:
            G = np.random.default_rng(seed).standard_normal(set_.ambient_shape)
            assert np.allclose(got.as_array(), _oracle_block(G, U2, V2), atol=1e-12)


# -- decomposition counts -----------------------------------------------------


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _masked_least_squares(target, mask):
    def ev(x):
        d = mask * (x.as_array() - target)
        return 0.5 * float(np.sum(d * d))

    def gr(x):
        return Point(mask * (x.as_array() - target))

    return Objective(ev, gr, name="masked-least-squares")


@pytest.mark.parametrize("set_,name", [(LowRankSet(20, 15, 3), "svd"),
                                       (PsdLowRankSet(12, 3), "eigh")], ids=["lowrank", "psd"])
def test_one_decomposition_per_projection(set_, name, rng, monkeypatch):
    target = set_.random_point(rng, stratum=set_.r).as_array()
    mask = rng.random(set_.ambient_shape) < 0.6
    if isinstance(set_, PsdLowRankSet):
        mask = mask | mask.T
    obj = _masked_least_squares(target, mask)
    x0 = set_.random_point(rng, stratum=set_.r)
    cfg = SolverConfig(alpha_min=1e-4, alpha_max=3.0, rule=MaxRule(0), stat_tol=1e-12,
                       max_iters=15)

    calls = _count_calls(monkeypatch, name)
    trace = pgd(set_, obj, x0, cfg)
    projections = len(trace) - 1 + sum(trace.backtrack_counts)
    assert len(trace) > 3
    # Fixed cost at x0: the start check projects it, and its stationarity test
    # decomposes it; the tests at projected iterates reuse the projection's factors.
    assert len(calls) == projections + 2

    del calls[:]
    detect_apocalypse(set_, obj, trace)
    # Only project(mean) for the limit: the measure series is the trace's own.
    assert len(calls) == 1


CLI_LOWRANK = ["--set", "lowrank:m=3,n=2,r=1", "--objective", "least-squares:target=1,2,3,4,5,6",
               "--x0", "1,0,0,0,0,0", "--max-iters", "3"]


def test_cli_start_decomposes_a_given_x0_once_per_solver(monkeypatch):
    calls = _count_calls(monkeypatch, "svd")
    before_first_step = []
    pgd_map = solver.pgd_map

    def first_step(*args, **kwargs):
        if not before_first_step:
            before_first_step.append(len(calls))
        return pgd_map(*args, **kwargs)

    monkeypatch.setattr(solver, "pgd_map", first_step)
    assert cli.main(["solve"] + CLI_LOWRANK) == cli.EXIT_OK
    # The solver's start check and the stationarity test at x0; the CLI
    # itself does not test x0 again.
    assert before_first_step == [2]

    del calls[:]
    assert cli.main(["compare"] + CLI_LOWRANK) == cli.EXIT_OK
    assert len(calls) == 12


# -- trusting carried factors -------------------------------------------------


def _projected_points(set_, rng):
    pts = []
    for k in set_.stratum_ids:
        pts.append(set_.project(set_.random_point(rng, stratum=k)))
    for _ in range(3):
        pts.append(set_.project(Point(rng.standard_normal(set_.ambient_shape))))
    if isinstance(set_, PsdLowRankSet):
        # Negative definite input: every kept eigenvalue is clamped to zero.
        A = rng.standard_normal(set_.ambient_shape)
        pts.append(set_.project(Point(-(A @ A.T) - np.eye(set_.n))))
    return pts


@pytest.mark.parametrize("set_", [LowRankSet(6, 6, 2), LowRankSet(9, 5, 3), LowRankSet(60, 40, 4),
                                  PsdLowRankSet(5, 2), PsdLowRankSet(40, 4)], ids=repr)
def test_carried_factors_agree_with_plain_decomposition(set_, rng):
    for y in _projected_points(set_, rng):
        assert _carries(y)
        plain = Point(y.as_array())
        assert not _carries(plain)
        k = set_.stratum_id(plain)
        assert set_.stratum_id(y) == k
        vs = [Point(rng.standard_normal(set_.ambient_shape)) for _ in range(3)]
        vs.append(set_.sample_regular_normal(plain, rng))
        vs.append(10.0 * set_.sample_regular_normal(plain, rng)
                  + 1e-3 * Point(rng.standard_normal(set_.ambient_shape)))
        for v in vs:
            scale = max(1.0, float(np.linalg.norm(v.data)))
            assert abs(set_.dist_regular_normal(y, v) - set_.dist_regular_normal(plain, v)) <= 1e-12 * scale
            assert set_.in_general_normal(y, v) == set_.in_general_normal(plain, v)
    assert any(set_.stratum_id(y) < set_.r for y in _projected_points(set_, rng))


def test_arithmetic_results_carry_no_factors(rng):
    set_ = LowRankSet(5, 4, 2)
    x = set_.project(Point(rng.standard_normal((5, 4))))
    y = set_.project(Point(rng.standard_normal((5, 4))))
    assert _carries(x) and _carries(y)
    for z in (x + y, x - y, 2.0 * x, x * 0.5, -x):
        assert not _carries(z)


def test_carried_factors_are_read_only(rng):
    for set_ in (LowRankSet(5, 4, 2), PsdLowRankSet(5, 2)):
        y = set_.project(Point(rng.standard_normal(set_.ambient_shape)))
        for a in y._factors[1:]:
            assert not a.flags.writeable and a.flags.c_contiguous
        with pytest.raises(AttributeError):
            y._factors = None


def test_psd_set_does_not_trust_lowrank_factors():
    y = LowRankSet(3, 3, 1).project(Point.matrix([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    assert _carries(y)
    with pytest.raises(InfeasiblePointError, match="not symmetric"):
        PsdLowRankSet(3, 1).stratum_id(y)
    with pytest.raises(InfeasiblePointError):
        PsdLowRankSet(3, 1).dist_regular_normal(y, Point.zeros((3, 3)))


def test_carried_factors_respect_a_smaller_rank_bound(rng):
    y = LowRankSet(6, 5, 3).project(Point(rng.standard_normal((6, 5))))
    with pytest.raises(InfeasiblePointError, match="rank 3 exceeds 2"):
        LowRankSet(6, 5, 2).stratum_id(y)
    A = rng.standard_normal((6, 6))
    y = PsdLowRankSet(6, 3).project(Point(A @ A.T))
    with pytest.raises(InfeasiblePointError, match="rank 3 exceeds 2"):
        PsdLowRankSet(6, 2).stratum_id(y)


# -- sign convention ----------------------------------------------------------


def test_vectorized_gauge_matches_loop_bitwise(rng):
    for trial in range(300):
        m, n = (int(v) for v in rng.integers(1, 12, size=2))
        Q = rng.standard_normal((m, n))
        Q[rng.random((m, n)) < 0.3] = 0.0
        if trial % 3 == 0:
            Q[0] *= 1e-14  # a leading entry below the "sizable" threshold
        if trial % 5 == 0:
            Q[:, 0] = 0.0
        assert np.array_equal(_bits(_fix_gauge(Q)), _bits(_fix_gauge_loop(Q)[0]))


def test_projection_is_independent_of_the_sign_convention(rng):
    # project() no longer fixes signs; flips cancel exactly in U s Vt and Q lam Q^T.
    for m, n, r in ((4, 4, 2), (8, 4, 2), (5, 9, 3), (60, 50, 5)):
        Z = rng.standard_normal((m, n))
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        U, Vt = _fix_gauge_loop(U, Vt)
        want = (U[:, :r] * s[:r]) @ Vt[:r]
        assert np.array_equal(_bits(LowRankSet(m, n, r).project(Point(Z)).as_array()), _bits(want))
    for n, r in ((4, 2), (9, 3), (50, 5)):
        Z = rng.standard_normal((n, n))
        w, Q = np.linalg.eigh(0.5 * (Z + Z.T))
        Q, _ = _fix_gauge_loop(Q)
        lam = np.maximum(w[n - r:], 0.0)
        want = (Q[:, n - r:] * lam) @ Q[:, n - r:].T
        assert np.array_equal(_bits(PsdLowRankSet(n, r).project(Point(Z)).as_array()), _bits(want))


# -- membership from carried factors ------------------------------------------


@pytest.mark.parametrize("set_,name", [(LowRankSet(20, 15, 3), "svd"),
                                       (PsdLowRankSet(12, 3), "eigh")], ids=["lowrank", "psd"])
def test_classify_at_a_projected_point_skips_the_membership_decomposition(set_, name, rng,
                                                                          monkeypatch):
    y = set_.project(Point(rng.standard_normal(set_.ambient_shape)))
    v = -Point(rng.standard_normal(set_.ambient_shape))
    obj = Objective(lambda x: 0.0, lambda x: v, name="fixed-gradient")
    tol = 1e-7
    calls = _count_calls(monkeypatch, name)
    assert set_.contains(y, tol)
    assert calls == []
    set_.in_general_normal(y, -v, tol)
    general = len(calls)
    del calls[:]
    classify_stationarity(set_, obj, y, tol)
    # Only the general-normal test may decompose: the membership test and the
    # distance reuse the projection's factors, and no witness is searched.
    assert len(calls) == general


@pytest.mark.parametrize("set_,smaller", [(LowRankSet(6, 6, 2), LowRankSet(6, 6, 1)),
                                          (LowRankSet(9, 5, 3), LowRankSet(9, 5, 2)),
                                          (PsdLowRankSet(5, 2), PsdLowRankSet(5, 1)),
                                          (PsdLowRankSet(40, 4), PsdLowRankSet(40, 2))],
                         ids=lambda s: repr(s))
def test_carried_membership_agrees_with_the_projection(set_, smaller, rng):
    for y in _projected_points(set_, rng):
        assert _carries(y)
        for query in (set_, smaller):
            for tol in (None, 1e-12, 1e-7, 0.3):
                assert query.contains(y, tol) == FeasibleSet.contains(query, y, tol)
    # A smaller rank bound rejects top-stratum points and accepts low-rank ones.
    top = set_.project(set_.random_point(rng, stratum=set_.r))
    assert set_.contains(top) and not smaller.contains(top)
    low = set_.project(set_.random_point(rng, stratum=smaller.r))
    assert smaller.contains(low)
