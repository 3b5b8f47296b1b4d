import math

import numpy as np
import pytest

from ncpgd import (
    CurveSet,
    EpigraphSet,
    InfeasiblePointError,
    LowRankSet,
    NonnegSparseSet,
    Point,
    PsdLowRankSet,
    SolverConfig,
    SparseSet,
    in_proximal_normal_witness,
    least_squares,
    norm,
    pgd,
    projected_translation_check,
    proximal_normal_witness,
)

from helpers import witness_scan

REFERENCE_SETS = [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 4, 2),
                  PsdLowRankSet(4, 2)]
ALL_SETS = REFERENCE_SETS + [CurveSet(), EpigraphSet()]


# -- two-axis sparse plane ----------------------------------------------------


def test_sparse_regular_cone_at_origin_is_zero():
    set_ = SparseSet(2, 1)
    assert set_.dist_regular_normal(Point.vector([0, 0]), Point.vector([1, 0])) == 1.0


def test_sparse_regular_cone_on_vertical_axis():
    set_ = SparseSet(2, 1)
    for a, b in ((0.7, 2.0), (-1.0, -0.4)):
        d = set_.dist_regular_normal(Point.vector([0, b]), Point.vector([a, -b]))
        assert d == pytest.approx(abs(b), abs=1e-12)


def test_zero_vector_in_every_cone(rng):
    for set_ in ALL_SETS:
        x = set_.random_point(rng)
        zero = Point.zeros(set_.ambient_shape)
        assert set_.dist_regular_normal(x, zero) == 0.0
        assert set_.dist_proximal_normal(x, zero) == 0.0
        assert set_.in_general_normal(x, zero)
        assert set_.in_proximal_normal(x, zero)
        assert in_proximal_normal_witness(set_, x, zero)


def test_sparse_proximal_distance_on_horizontal_axis():
    set_ = SparseSet(2, 1)
    d = set_.dist_proximal_normal(Point.vector([0.8, 0]), Point.vector([0, 3]))
    assert d == 0.0


def test_sparse_witness_example():
    set_ = SparseSet(2, 1)
    assert in_proximal_normal_witness(set_, Point.vector([1, 0]), Point.vector([0, 1]))


def test_sparse_tangent_projection_examples():
    set_ = SparseSet(2, 1)
    y = set_.project_tangent(Point.vector([0, 2.0]), Point.vector([0.3, -2.0]))
    assert np.allclose(y.data, [0.0, -2.0], atol=1e-12)
    y = set_.project_tangent(Point.vector([0, 0]), Point.vector([3, 1]))
    assert np.array_equal(y.data, [3.0, 0.0])


def test_tangent_projection_fixes_tangent_vectors(rng):
    for set_ in [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 4, 2)]:
        for stratum in set_.stratum_ids:
            x = set_.random_point(rng, stratum=stratum)
            v = set_.project_tangent(x, Point(rng.standard_normal(x.data.size), x.shape))
            again = set_.project_tangent(x, v)
            assert norm(again - v) <= 1e-9


def test_tangent_projection_is_distance_minimizing_among_samples(rng):
    # Any tangent vector is at least as far from v as the returned projection.
    for set_ in [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 4, 2)]:
        for _ in range(10):
            x = set_.random_point(rng)
            v = Point(rng.standard_normal(x.data.size), x.shape)
            best = norm(v - set_.project_tangent(x, v))
            for _ in range(20):
                w = set_.project_tangent(x, Point(rng.standard_normal(x.data.size), x.shape))
                assert norm(v - w) >= best - 1e-9


def test_psd_tangent_projection_unsupported():
    set_ = PsdLowRankSet(3, 1)
    x = set_.random_point(np.random.default_rng(0), stratum=1)
    with pytest.raises(NotImplementedError):
        set_.project_tangent(x, Point.zeros((3, 3)))


# -- matrix cones -------------------------------------------------------------


def test_lowrank_regular_cone_closed_forms():
    set_ = LowRankSet(3, 3, 2)
    x = Point.matrix(np.diag([2.0, 1.0, 0.0]))
    e33 = np.zeros((3, 3)); e33[2, 2] = 1.0
    e11 = np.zeros((3, 3)); e11[0, 0] = 1.0
    assert set_.dist_regular_normal(x, Point.matrix(e33)) == pytest.approx(0.0, abs=1e-12)
    assert set_.dist_regular_normal(x, Point.matrix(e11)) == pytest.approx(1.0, abs=1e-12)
    # Rank-deficient point: regular normal cone collapses to the origin.
    x_low = Point.matrix(np.diag([2.0, 0.0, 0.0]))
    assert set_.dist_regular_normal(x_low, Point.matrix(e33)) == pytest.approx(1.0, abs=1e-12)


def test_lowrank_general_cone_rank_bound():
    set_ = LowRankSet(3, 3, 2)
    x = Point.matrix(np.diag([1.0, 0.0, 0.0]))
    e22 = np.zeros((3, 3)); e22[1, 1] = 1.0
    e33 = np.zeros((3, 3)); e33[2, 2] = 1.0
    assert set_.in_general_normal(x, Point.matrix(e22))
    assert set_.in_general_normal(x, Point.matrix(e33))
    assert not set_.in_general_normal(x, Point.matrix(e22 + e33))  # rank 2 > 3 - r


def test_psd_regular_cone_closed_forms():
    set_ = PsdLowRankSet(2, 1)
    x = Point.matrix(np.diag([1.0, 0.0]))
    kernel_dir = np.zeros((2, 2)); kernel_dir[1, 1] = 1.0
    range_dir = np.zeros((2, 2)); range_dir[0, 0] = 1.0
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert set_.dist_regular_normal(x, Point.matrix(kernel_dir)) == pytest.approx(0.0, abs=1e-12)
    assert set_.dist_regular_normal(x, Point.matrix(-kernel_dir)) == pytest.approx(0.0, abs=1e-12)
    assert set_.dist_regular_normal(x, Point.matrix(skew)) == pytest.approx(0.0, abs=1e-12)
    assert set_.dist_regular_normal(x, Point.matrix(range_dir)) == pytest.approx(1.0, abs=1e-12)


def test_psd_regular_cone_is_signed_below_top_stratum():
    set_ = PsdLowRankSet(2, 1)
    origin = Point.zeros((2, 2))
    eye = Point.matrix(np.eye(2))
    assert set_.dist_regular_normal(origin, -1.0 * eye) == pytest.approx(0.0, abs=1e-12)
    assert set_.dist_regular_normal(origin, eye) == pytest.approx(math.sqrt(2.0), abs=1e-12)


# -- kinked 2-D sets ----------------------------------------------------------


def test_curve_origin_cone_table():
    set_ = CurveSet()
    origin = Point.zeros((2,))
    eta = 1e-9
    for k in range(24):
        theta = 2.0 * math.pi * k / 24
        v = Point.vector([math.cos(theta), math.sin(theta)])
        in_tangent = norm(v - set_.project_tangent(origin, v)) <= eta
        in_regular = set_.dist_regular_normal(origin, v) <= eta
        in_proximal = set_.in_proximal_normal(origin, v)
        in_general = set_.in_general_normal(origin, v)
        v0, v1 = v.data
        want_tangent = (abs(v0) <= eta and v1 >= -eta) or (v0 <= eta and abs(v1) <= eta)
        want_regular = v0 >= -eta and v1 <= eta
        want_proximal = want_regular and not (v0 > eta and abs(v1) <= eta)
        want_general = want_regular or want_tangent
        assert in_tangent == want_tangent, theta
        assert in_regular == want_regular, theta
        assert in_proximal == want_proximal, theta
        assert in_general == want_general, theta


def test_curve_removed_ray_distance_vs_membership():
    set_ = CurveSet()
    origin = Point.zeros((2,))
    ray = Point.vector([1.0, 0.0])
    assert set_.dist_proximal_normal(origin, ray) == 0.0
    assert not set_.in_proximal_normal(origin, ray)
    # The sampling certificate's step test also rejects it at sizable step lengths.
    assert witness_scan(set_, origin, ray, [2.0 ** -k for k in range(7)]) is None
    # Straight down is a genuine proximal normal.
    down = Point.vector([0.0, -1.0])
    assert set_.in_proximal_normal(origin, down)
    assert in_proximal_normal_witness(set_, origin, down)


def test_curve_smooth_points_have_matching_normal_cones(rng):
    set_ = CurveSet()
    for stratum in (1, 2):
        x = set_.random_point(rng, stratum=stratum)
        v = set_.sample_regular_normal(x, rng)
        assert set_.dist_regular_normal(x, v) <= 1e-9
        assert set_.in_general_normal(x, v)
        tangent = set_.project_tangent(x, Point.vector(rng.standard_normal(2)))
        if norm(tangent) > 1e-9:
            assert abs(np.dot(tangent.data, v.data)) <= 1e-9 * norm(tangent) * max(1.0, norm(v))


def test_epigraph_origin_cones():
    set_ = EpigraphSet()
    origin = Point.zeros((2,))
    ray = Point.vector([1.0, 0.0])
    assert set_.dist_regular_normal(origin, ray) == 0.0
    assert not set_.in_proximal_normal(origin, ray)
    assert set_.in_general_normal(origin, ray)
    assert set_.in_proximal_normal(origin, Point.vector([0.5, -0.5]))
    assert in_proximal_normal_witness(set_, origin, Point.vector([0.5, -0.5]))
    # Tangent cone at the kink is the second quadrant.
    t = set_.project_tangent(origin, Point.vector([1.0, -1.0]))
    assert np.allclose(t.data, [0.0, 0.0], atol=1e-12)
    t = set_.project_tangent(origin, Point.vector([-1.0, 2.0]))
    assert np.allclose(t.data, [-1.0, 2.0], atol=1e-12)


def test_epigraph_interior_has_trivial_cones(rng):
    set_ = EpigraphSet()
    x = Point.vector([0.3, 2.0])
    v = Point.vector(rng.standard_normal(2))
    assert set_.dist_regular_normal(x, v) == pytest.approx(norm(v), abs=1e-12)
    assert set_.in_general_normal(x, v) == (norm(v) <= 1e-9)
    assert norm(set_.project_tangent(x, v) - v) == 0.0


# -- cross-set properties -----------------------------------------------------


def test_cone_queries_reject_infeasible_points():
    with pytest.raises(InfeasiblePointError):
        SparseSet(3, 1).dist_regular_normal(Point.vector([1, 1, 0]), Point.zeros((3,)))
    with pytest.raises(InfeasiblePointError):
        PsdLowRankSet(2, 1).dist_regular_normal(Point.matrix([[0, 1], [1, 0]]),
                                                Point.zeros((2, 2)))
    with pytest.raises(InfeasiblePointError):
        CurveSet().stratum_id(Point.vector([1.0, 0.5]))


def test_infeasibility_message_of_a_large_point_is_bounded():
    set_ = LowRankSet(200, 200, 5)
    x = Point(np.random.default_rng(0).standard_normal((200, 200)))
    with pytest.raises(InfeasiblePointError) as err:
        set_.stratum_id(x)
    message = str(err.value)
    assert len(message) < 1000
    assert message.startswith("point not on lowrank:m=200,n=200,r=5: numerical rank 200 exceeds 5")
    assert "shape=(200, 200)" in message and f"norm={norm(x)!r}" in message
    with pytest.raises(InfeasiblePointError) as err:
        pgd(set_, least_squares(x), x, SolverConfig())
    message = str(err.value)
    assert len(message) < 1000
    assert message.startswith("x0 is not on lowrank:m=200,n=200,r=5")


def test_infeasibility_message_of_a_small_point_holds_its_repr():
    x = Point(np.arange(64.0).reshape(8, 8))
    with pytest.raises(InfeasiblePointError) as err:
        LowRankSet(8, 8, 1).stratum_id(x)
    assert str(err.value).endswith(f"(x={x!r})")
    with pytest.raises(InfeasiblePointError) as err:
        pgd(LowRankSet(8, 8, 1), least_squares(x), x, SolverConfig())
    assert str(err.value).endswith(f": {x!r}")


@pytest.mark.parametrize("set_", ALL_SETS, ids=repr)
def test_random_point_rejects_unknown_strata(set_):
    rng = np.random.default_rng(0)
    for stratum in (-1, len(set_.stratum_ids), 7):
        with pytest.raises(ValueError, match="stratum must be in"):
            set_.random_point(rng, stratum=stratum)


def test_stratum_id_constant_on_strata(rng):
    for set_ in ALL_SETS:
        for stratum in set_.stratum_ids:
            for _ in range(5):
                x = set_.random_point(rng, stratum=stratum)
                assert set_.stratum_id(x) == stratum


def test_sampled_regular_normals_are_regular_and_proximal(rng):
    for set_ in REFERENCE_SETS:
        for stratum in set_.stratum_ids:
            for _ in range(5):
                x = set_.random_point(rng, stratum=stratum)
                v = set_.sample_regular_normal(x, rng)
                assert set_.dist_regular_normal(x, v) <= 1e-9 * max(1.0, norm(v))
                assert set_.in_general_normal(x, v)
                assert proximal_normal_witness(set_, x, v) is not None


def test_projected_translation_random_trials(rng):
    for set_ in ALL_SETS:
        for _ in range(40):
            x = set_.random_point(rng)
            v = Point(rng.standard_normal(x.data.size), x.shape)
            y, ok_dist, ok_ip = projected_translation_check(set_, x, v)
            assert set_.contains(y)
            assert ok_dist and ok_ip


def test_projected_translation_trivial_for_zero_translation(rng):
    for set_ in ALL_SETS:
        x = set_.random_point(rng)
        _, ok_dist, ok_ip = projected_translation_check(set_, x, Point.zeros(set_.ambient_shape))
        assert ok_dist and ok_ip


def test_regular_normal_distance_behaves_like_a_cone_distance(rng):
    # Zero is in every cone, the distance is positively homogeneous, and the
    # cones are convex, so midpoints are no farther than the average.
    for set_ in ALL_SETS:
        for _ in range(10):
            x = set_.random_point(rng)
            v = Point(rng.standard_normal(x.data.size), x.shape)
            w = Point(rng.standard_normal(x.data.size), x.shape)
            dv = set_.dist_regular_normal(x, v)
            assert dv <= norm(v) + 1e-12
            lam = float(rng.uniform(0.1, 5.0))
            assert set_.dist_regular_normal(x, lam * v) == pytest.approx(lam * dv, rel=1e-9, abs=1e-12)
            mid = 0.5 * (v + w)
            bound = 0.5 * (dv + set_.dist_regular_normal(x, w))
            assert set_.dist_regular_normal(x, mid) <= bound + 1e-9


def test_certified_normals_satisfy_global_proximal_inequality(rng):
    # If x projects back from x + a*v, then <v, z - x> <= ||z - x||^2 / (2a)
    # for every feasible z; checked with the witness's certified step length.
    for set_ in REFERENCE_SETS:
        for _ in range(5):
            x = set_.random_point(rng, stratum=set_.stratum_ids[-1])
            v = set_.sample_regular_normal(x, rng)
            alpha = proximal_normal_witness(set_, x, v)
            assert alpha is not None
            slack = 1e-8 * max(1.0, norm(v)) ** 2
            for _ in range(30):
                z = set_.project(Point(2.0 * rng.standard_normal(x.data.size), x.shape))
                gap = z - x
                assert np.dot(v.data, gap.data) <= norm(gap) ** 2 / (2.0 * alpha) + slack


def _orthonormal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def test_general_normals_witnessed_by_nearby_top_stratum_points(rng):
    # Limit definition: each claimed general normal at x must be an exact
    # regular normal at feasible points arbitrarily close to x.
    delta = 1e-6

    set_ = SparseSet(6, 2)
    for k in (0, 1):
        x = set_.random_point(rng, stratum=k)
        support = np.flatnonzero(np.abs(x.data) > 1e-9)
        free = np.setdiff1d(np.arange(6), support)
        v_support = free[:6 - set_.s]
        fill = np.setdiff1d(free, v_support)[:set_.s - k]
        v = np.zeros(6)
        v[v_support] = rng.standard_normal(v_support.size)
        vp = Point.vector(v)
        assert set_.in_general_normal(x, vp)
        z = Point(x.data + delta * np.isin(np.arange(6), fill), (6,))
        assert set_.contains(z) and set_.stratum_id(z) == set_.s
        assert set_.dist_regular_normal(z, vp) <= 1e-12
        assert norm(z - x) <= 2 * delta

    lr = LowRankSet(4, 4, 2)
    for k in (0, 1):
        qu, qv = _orthonormal(rng, 4), _orthonormal(rng, 4)
        x = Point.matrix((qu[:, :k] * rng.uniform(0.5, 1.5, k)) @ qv[:, :k].T)
        grow = qu[:, k:lr.r] @ qv[:, k:lr.r].T
        v = Point.matrix(qu[:, lr.r:] @ np.diag(rng.uniform(0.5, 1.5, 2)) @ qv[:, lr.r:].T)
        assert lr.in_general_normal(x, v)
        z = Point.matrix(x.as_array() + delta * grow)
        assert lr.contains(z) and lr.stratum_id(z) == lr.r
        assert lr.dist_regular_normal(z, v) <= 1e-9
        assert norm(z - x) <= 2 * delta

    ps = PsdLowRankSet(4, 2)
    for k in (0, 1):
        q = _orthonormal(rng, 4)
        x = Point.matrix((q[:, :k] * rng.uniform(0.5, 1.5, k)) @ q[:, :k].T)
        grow = q[:, k:ps.r] @ q[:, k:ps.r].T
        b = rng.standard_normal((2, 2))
        v = Point.matrix(q[:, ps.r:] @ (b + b.T) @ q[:, ps.r:].T)
        assert ps.in_general_normal(x, v)
        z = Point.matrix(x.as_array() + delta * grow)
        assert ps.contains(z) and ps.stratum_id(z) == ps.r
        assert ps.dist_regular_normal(z, v) <= 1e-9
        assert norm(z - x) <= 4 * delta


def test_witness_implies_small_regular_distance(rng):
    # Nesting: a certified proximal normal is (numerically) a regular normal.
    for set_ in REFERENCE_SETS:
        for _ in range(10):
            x = set_.random_point(rng, stratum=set_.stratum_ids[-1])
            v = set_.sample_regular_normal(x, rng)
            v = v + 1e-8 * Point(rng.standard_normal(v.data.size), v.shape)
            if in_proximal_normal_witness(set_, x, v, tol=1e-12):
                assert set_.dist_regular_normal(x, v) <= 1e-4 * max(1.0, norm(v))


def test_witness_monotone_in_alpha(rng):
    # Once certified at some step, every smaller grid step also certifies.
    set_ = SparseSet(5, 2)
    for _ in range(20):
        x = set_.random_point(rng, stratum=2)
        v = set_.sample_regular_normal(x, rng)
        alpha = proximal_normal_witness(set_, x, v)
        assert alpha is not None
        smaller = [a for a in (2.0 ** -k for k in range(21)) if a <= alpha]
        for a in smaller[:5]:
            assert witness_scan(set_, x, v, [a]) == a
