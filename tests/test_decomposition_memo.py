"""Each matrix point is decomposed once: the memo the first low-rank/PSD query leaves on it.

The counts below are of np.linalg calls (the ``decompositions`` fixture).
Unless a test projects first, they are at points built from outside the
package, which carry no projection factors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpgd import (
    WITNESS_ALPHA_GRID,
    InfeasiblePointError,
    LowRankSet,
    Objective,
    Point,
    PsdLowRankSet,
    classify_stationarity,
    norm,
)
from ncpgd import cli

from helpers import memo

SETS = [LowRankSet(6, 6, 2), LowRankSet(9, 4, 2), LowRankSet(6, 7, 1), PsdLowRankSet(6, 2),
        PsdLowRankSet(7, 1)]


def _fmt(x):
    return ",".join(repr(float(t)) for t in x.data)


# -- counts -------------------------------------------------------------------


AT_USER_POINTS = pytest.mark.parametrize("set_,name", [(LowRankSet(60, 50, 4), "svd"),
                                                      (PsdLowRankSet(30, 3), "eigh")],
                                         ids=["lowrank", "psd"])


@AT_USER_POINTS
def test_cones_at_a_user_point_decomposes_it_once(set_, name, rng, decompositions, capsys):
    x = set_.random_point(rng, stratum=set_.r)
    v = Point(rng.standard_normal(set_.ambient_shape))
    decompositions.clear()
    argv = ["cones", "--set", repr(set_), "--x=" + _fmt(x), "--v=" + _fmt(v)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "proximal-witness: none" in capsys.readouterr().out
    # x once for all its queries, then the witness scan's 21 projections (no
    # grid step certifies). The general-normal test stops before it
    # decomposes v, as v is not orthogonal to the range of x.
    assert len(decompositions) == decompositions.of(name) == 1 + len(WITNESS_ALPHA_GRID)


@AT_USER_POINTS
def test_classify_at_a_user_point_decomposes_it_once(set_, name, rng, decompositions):
    x = set_.random_point(rng, stratum=set_.r)
    v = Point(rng.standard_normal(set_.ambient_shape))
    decompositions.clear()
    obj = Objective(lambda y: 0.0, lambda y: -v, name="fixed-gradient")
    report = classify_stationarity(set_, obj, x)
    assert report.classification == "non-stationary"
    assert len(decompositions) == decompositions.of(name) == 1


def test_prox_equals_regular_decomposes_each_sampled_point_once(decompositions, capsys):
    decompositions.clear()
    assert cli.main(["check", "--suite", "prox-equals-regular", "--trials", "1"]) == cli.EXIT_OK
    # lowrank:m=4,n=4,r=2 samples 20 directions at one point of each of its
    # 3 strata: one SVD per point, plus one witness projection per direction
    # on the top stratum. Below it the sampled directions are zero, which
    # certify without a projection.
    assert decompositions.of("svd") == 3 + 20


def test_psd_normal_draws_at_a_fresh_point_decompose_it_once(rng, decompositions):
    # The first query at x is a draw. It leaves a decomposition memo (every
    # eigenvalue and the r + 1 leading eigenvectors), which the other draws
    # read: a draw needs a basis of the range of x only.
    set_ = PsdLowRankSet(6, 2)
    a = set_.random_point(rng, stratum=1).as_array()
    x = Point(a)
    decompositions.clear()
    draws = [set_.sample_regular_normal(x, np.random.default_rng(seed)) for seed in range(20)]
    assert decompositions.of("eigh") == len(decompositions) == 1
    # Each draw has the bits of the same draw at a fresh point.
    for seed, v in enumerate(draws):
        fresh = set_.sample_regular_normal(Point(a), np.random.default_rng(seed))
        assert v.data.tobytes() == fresh.data.tobytes()
    # The other queries read the memo too.
    decompositions.clear()
    assert set_.stratum_id(x) == 1
    set_.project(x)
    assert decompositions == []


def test_psd_normal_draws_at_a_projected_point_decompose_nothing(rng, decompositions):
    set_ = PsdLowRankSet(6, 2)
    for z in (Point(rng.standard_normal((6, 6))), set_.random_point(rng, stratum=1)):
        y = set_.project(z)
        decompositions.clear()
        for seed in range(20):
            set_.sample_regular_normal(y, np.random.default_rng(seed))
        assert decompositions == []


# -- a memo never changes an answer --------------------------------------------


def test_psd_normal_draws_depend_only_on_the_range_of_x(rng):
    # The kernel eigenvalue 0 has multiplicity n - k >= 2, so eigh may return
    # any orthonormal basis of the kernel. A memo holding a rotated one draws
    # the bits of a fresh point.
    set_ = PsdLowRankSet(6, 2)
    n = set_.n
    for k in set_.stratum_ids:
        a = set_.random_point(rng, stratum=k).as_array()
        w, Q = np.linalg.eigh(0.5 * (a + a.T))
        R, _ = np.linalg.qr(rng.standard_normal((n - k, n - k)))
        Q = np.hstack([Q[:, :n - k] @ R, Q[:, n - k:]])
        rotated = Point(a)
        for arr in (w, Q):
            arr.flags.writeable = False
        object.__setattr__(rotated, "_memo", (PsdLowRankSet, w, Q))
        for seed in range(20):
            got = set_.sample_regular_normal(rotated, np.random.default_rng(seed))
            want = set_.sample_regular_normal(Point(a), np.random.default_rng(seed))
            assert got.data.tobytes() == want.data.tobytes(), (k, seed)


QUERIES = {
    "project": lambda s, x, v, tol, seed: s.project(x),
    "contains": lambda s, x, v, tol, seed: s.contains(x, tol),
    "stratum_id": lambda s, x, v, tol, seed: s.stratum_id(x, tol),
    "dist_regular_normal": lambda s, x, v, tol, seed: s.dist_regular_normal(x, v, tol),
    "in_proximal_normal": lambda s, x, v, tol, seed: s.in_proximal_normal(x, v, tol),
    "in_general_normal": lambda s, x, v, tol, seed: s.in_general_normal(x, v, tol),
    "project_tangent": lambda s, x, v, tol, seed: s.project_tangent(x, v, tol),
    "sample_regular_normal":
        lambda s, x, v, tol, seed: s.sample_regular_normal(x, np.random.default_rng(seed), tol),
}


def _whole_decomposition(set_, x):
    """x with a memo of its whole thin decomposition: the factors every query computed before memos."""
    if isinstance(set_, PsdLowRankSet):
        M = x.as_array()
        factors = np.linalg.eigh(0.5 * (M + M.T))
    else:
        factors = np.linalg.svd(x.as_array(), full_matrices=False)
    for a in factors:
        a.flags.writeable = False
    object.__setattr__(x, "_memo", (type(set_), *factors))
    # Read back as a decomposition's memo, not a projection's: the whole spectrum.
    assert memo(x)[1].size == min(x.shape)
    return x


def _answer(query, set_, x, v, tol, seed):
    """The query's result or error, as exact bits."""
    try:
        out = QUERIES[query](set_, x, v, tol, seed)
    except (InfeasiblePointError, NotImplementedError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, Point):
        return out.shape, out.data.tobytes()
    return type(out), np.float64(out).tobytes()


@settings(max_examples=80, deadline=None)
@given(set_index=st.sampled_from(range(len(SETS))), stratum=st.integers(-1, 2),
       normal=st.booleans(), tol=st.sampled_from([None, 1e-7]),
       order=st.permutations(sorted(QUERIES)), seed=st.integers(0, 2**32 - 1))
def test_every_query_at_a_queried_point_matches_a_fresh_point(set_index, stratum, normal, tol,
                                                               order, seed):
    set_ = SETS[set_index]
    stratum = min(stratum, set_.r)
    rng = np.random.default_rng(seed)
    if stratum < 0:
        # Off the set: every cone query raises, from the memo as from a fresh SVD.
        x = Point(rng.standard_normal(set_.ambient_shape))
    else:
        x = set_.random_point(rng, stratum=stratum)
    v = Point(rng.standard_normal(set_.ambient_shape))
    if normal and stratum >= 0:
        v = set_.sample_regular_normal(Point(x.as_array()), rng) + 1e-3 * v
    shared = Point(x.as_array())
    whole = _whole_decomposition(set_, Point(x.as_array()))
    # The first query in order decomposes shared; the others read its memo.
    first = {q: _answer(q, set_, shared, v, tol, seed) for q in order}
    for q in order:
        assert _answer(q, set_, Point(x.as_array()), v, tol, seed) == first[q], q
        assert _answer(q, set_, shared, v, tol, seed) == first[q], q
        assert _answer(q, set_, whole, v, tol, seed) == first[q], q
    kind, spectrum, vectors = memo(shared)
    assert kind is type(set_)
    arrays = (spectrum, *vectors)
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(AttributeError):
        shared._memo = None


@pytest.mark.parametrize("set_", SETS, ids=repr)
def test_a_memo_gives_the_bits_of_the_whole_decomposition(set_, rng):
    # Before memos each query decomposed x afresh and read its whole thin
    # factors; the memo keeps fewer, and every answer keeps its bits.
    for _ in range(20):
        for k in set_.stratum_ids:
            x = set_.random_point(rng, stratum=k)
            w = Point(rng.standard_normal(set_.ambient_shape))
            seed = int(rng.integers(1 << 30))
            for v in (w, set_.sample_regular_normal(Point(x.as_array()), rng) + 1e-3 * w):
                for tol in (None, 1e-7):
                    for q in QUERIES:
                        whole = _whole_decomposition(set_, Point(x.as_array()))
                        assert (_answer(q, set_, Point(x.as_array()), v, tol, seed)
                                == _answer(q, set_, whole, v, tol, seed)), q


def _with_tail(set_, rng, tail):
    """A point with r singular values or eigenvalues in [0.5, 1.5] and two more of norm tail."""
    values = np.concatenate([rng.uniform(0.5, 1.5, set_.r), np.full(2, tail / np.sqrt(2.0))])
    m, n = set_.ambient_shape
    U, _ = np.linalg.qr(rng.standard_normal((m, set_.r + 2)))
    if isinstance(set_, PsdLowRankSet):
        X = (U * values) @ U.T
        return Point(0.5 * (X + X.T))
    V, _ = np.linalg.qr(rng.standard_normal((n, set_.r + 2)))
    return Point((U * values) @ V.T)


@pytest.mark.parametrize("set_", SETS, ids=repr)
@pytest.mark.parametrize("tol", [None, 1e-7])
@pytest.mark.parametrize("ratio", [0.9, 1.1])
def test_contains_at_a_memo_tests_the_distance_to_the_projection(set_, tol, ratio, rng):
    t = set_.tol if tol is None else tol
    x = _with_tail(set_, rng, ratio * t)
    # The projection leaves no memo on x: it is made on a copy.
    want = norm(x - set_.project(Point(x.as_array()))) <= t
    assert want == (ratio < 1.0)
    assert set_.contains(x, tol) == want    # decomposes x
    assert set_.contains(x, tol) == want    # reads the memo
    y = Point(x.as_array())
    assert set_.stratum_id(y, tol) == set_.r
    assert set_.contains(y, tol) == want    # reads the memo a stratum query left


def test_a_memo_serves_only_its_set_class_and_a_rank_it_covers(rng, decompositions):
    A = rng.standard_normal((6, 2))
    x = Point(A @ A.T)
    low, psd, wider = LowRankSet(6, 6, 2), PsdLowRankSet(6, 2), LowRankSet(6, 6, 3)
    want = {s: (s.stratum_id(Point(x.as_array())), s.project(Point(x.as_array())).data.tobytes())
            for s in (low, psd, wider)}
    decompositions.clear()
    assert low.project(x).data.tobytes() == want[low][1]
    assert [c.name for c in decompositions] == ["svd"]
    # The memo holds the SVD's two leading pairs. The PSD set needs an
    # eigendecomposition and the rank-3 set three pairs, so both decompose
    # again, on every query, since the memo is written once.
    for _ in range(2):
        decompositions.clear()
        for s in (psd, wider):
            assert (s.stratum_id(x), s.project(x).data.tobytes()) == want[s]
        assert [c.name for c in decompositions] == ["eigh", "eigh", "svd", "svd"]
    decompositions.clear()
    assert low.stratum_id(x) == want[low][0]
    assert decompositions == []
