import warnings

import numpy as np
import pytest

from ncpgd import (
    CurveSet,
    EpigraphSet,
    LowRankSet,
    NonnegSparseSet,
    Point,
    PsdLowRankSet,
    ShapeError,
    SparseSet,
    norm,
)
from ncpgd.sets import from_spec
from ncpgd.sets.curves import _nearest_parameter

from helpers import (
    graph_height,
    graph_min_distance,
    graph_min_distance_scaled,
    nonneg_sparse_bruteforce,
    psd_truncation,
    sparse_bruteforce,
    svd_truncation,
)


def all_sets():
    return [SparseSet(6, 2), NonnegSparseSet(6, 2), LowRankSet(4, 4, 2),
            PsdLowRankSet(4, 2), CurveSet(), EpigraphSet()]


def test_sparse_projection_example():
    best, _ = sparse_bruteforce(np.array([3.0, 1.0, -4.0]), 1)
    y = SparseSet(3, 1).project(Point.vector([3, 1, -4]))
    assert np.array_equal(y.data, [0.0, 0.0, -4.0])
    assert norm(Point.vector([3, 1, -4]) - y) == pytest.approx(best, abs=1e-12)


def test_nonneg_sparse_projection_example():
    best, _ = nonneg_sparse_bruteforce(np.array([-3.0, 2.0, 1.0]), 1)
    y = NonnegSparseSet(3, 1).project(Point.vector([-3, 2, 1]))
    assert np.array_equal(y.data, [0.0, 2.0, 0.0])
    assert norm(Point.vector([-3, 2, 1]) - y) == pytest.approx(best, abs=1e-12)


def test_lowrank_projection_example():
    z = Point.matrix([[2.0, 0.0], [0.0, 1.0]])
    y = LowRankSet(2, 2, 1).project(z)
    assert np.allclose(y.as_array(), [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(y.as_array(), svd_truncation(z.as_array(), 1), atol=1e-12)


def test_psd_projection_example():
    z = Point.matrix([[1.0, 0.0], [0.0, -2.0]])
    y = PsdLowRankSet(2, 1).project(z)
    assert np.allclose(y.as_array(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(y.as_array(), psd_truncation(z.as_array(), 1), atol=1e-12)


def test_projection_fixes_feasible_points(rng):
    for set_ in all_sets():
        for stratum in set_.stratum_ids:
            x = set_.random_point(rng, stratum=stratum)
            assert norm(set_.project(x) - x) <= 1e-9
            assert set_.contains(x)


def test_projection_idempotent_on_random_ambient(rng):
    for set_ in all_sets():
        for _ in range(25):
            z = Point(3.0 * rng.standard_normal(np.prod(set_.ambient_shape)),
                      set_.ambient_shape)
            y = set_.project(z)
            assert norm(set_.project(y) - y) <= 1e-9
            assert set_.contains(y)


def test_sparse_tie_breaking_prefers_smallest_index():
    assert np.array_equal(SparseSet(3, 1).project(Point.vector([2, 2, 1])).data,
                          [2.0, 0.0, 0.0])
    assert np.array_equal(SparseSet(3, 1).project(Point.vector([1, -1, 0])).data,
                          [1.0, 0.0, 0.0])
    assert np.array_equal(NonnegSparseSet(3, 1).project(Point.vector([2, 2, 0])).data,
                          [2.0, 0.0, 0.0])


def test_sparse_projection_matches_bruteforce(rng):
    for s in (1, 2, 3):
        set_ = SparseSet(5, s)
        for _ in range(60):
            z = rng.standard_normal(5)
            best, minimizers = sparse_bruteforce(z, s)
            y = set_.project(Point.vector(z))
            assert norm(Point.vector(z) - y) == pytest.approx(best, abs=1e-12)
            assert any(np.allclose(y.data, m, atol=1e-12) for m in minimizers)


def test_nonneg_projection_matches_bruteforce(rng):
    for s in (1, 2, 3):
        set_ = NonnegSparseSet(5, s)
        for _ in range(60):
            z = rng.standard_normal(5)
            best, minimizers = nonneg_sparse_bruteforce(z, s)
            y = set_.project(Point.vector(z))
            assert norm(Point.vector(z) - y) == pytest.approx(best, abs=1e-12)
            assert any(np.allclose(y.data, m, atol=1e-12) for m in minimizers)


def test_lowrank_projection_matches_dense_svd(rng):
    set_ = LowRankSet(4, 3, 2)
    for _ in range(40):
        z = rng.standard_normal((4, 3))
        y = set_.project(Point.matrix(z))
        assert np.allclose(y.as_array(), svd_truncation(z, 2), atol=1e-10)


def test_psd_projection_matches_dense_eig(rng):
    set_ = PsdLowRankSet(4, 2)
    for _ in range(40):
        z = rng.standard_normal((4, 4))
        y = set_.project(Point.matrix(z))
        assert np.allclose(y.as_array(), psd_truncation(z, 2), atol=1e-10)
        w = np.linalg.eigvalsh(y.as_array())
        assert w.min() >= -1e-12
        assert (w > 1e-9).sum() <= 2


def test_curve_projection_against_grid_oracle(rng):
    set_ = CurveSet()
    for _ in range(20):
        z = 2.0 * rng.standard_normal(2)
        y = set_.project(Point.vector(z))
        assert set_.contains(y, tol=1e-9)
        d = norm(Point.vector(z) - y)
        assert d <= graph_min_distance(z) + 1e-10


def test_curve_projection_snaps_points_on_the_curve():
    set_ = CurveSet()
    for t in (-2.0, -0.3, 0.0, 0.4, 1.7):
        x = Point.vector([t, graph_height(t)])
        assert norm(set_.project(x) - x) <= 1e-12


def test_epigraph_interior_shortcut_and_boundary_search(rng):
    set_ = EpigraphSet()
    inside = Point.vector([0.5, 2.0])
    assert set_.project(inside) is inside
    for _ in range(20):
        z = np.array([rng.uniform(-2, 2), rng.uniform(-3, 0) - 0.5])
        if z[1] >= graph_height(z[0]):
            continue
        y = set_.project(Point.vector(z))
        assert set_.contains(y, tol=1e-9)
        d = norm(Point.vector(z) - y)
        assert d <= graph_min_distance(z) + 1e-10


# Near the kink the steep right branch and the left ray compete for the nearest point.
NEAR_KINK_WORST = np.array([-8.45e-4, 7.87e-3])


def near_kink_points(rng):
    return [NEAR_KINK_WORST] + list(rng.uniform(-1e-2, 1e-2, (150, 2)))


def graph_normal_residual(z: np.ndarray, y: np.ndarray) -> float:
    """How far z - y is from the regular normal cone of the graph at y."""
    r = z - y
    if y[0] < 0.0:
        return abs(r[0])
    if y[0] > 0.0:
        tangent = np.array([1.0, 0.6 * y[0] ** -0.4])
        return abs(r @ tangent) / np.linalg.norm(tangent)
    return float(np.hypot(min(r[0], 0.0), max(r[1], 0.0)))


def check_graph_projection(z: np.ndarray, y: np.ndarray):
    assert abs(y[1] - graph_height(y[0])) <= 1e-12
    assert graph_normal_residual(z, y) <= 1e-12
    assert np.linalg.norm(z - y) <= graph_min_distance(z) + 1e-10


def test_curve_projection_near_kink_against_grid_oracle(rng):
    set_ = CurveSet()
    y = set_.project(Point.vector(NEAR_KINK_WORST))
    assert norm(Point.vector(NEAR_KINK_WORST) - y) <= 1.16e-3
    for z in near_kink_points(rng):
        check_graph_projection(z, set_.project(Point.vector(z)).data)


def test_epigraph_projection_below_graph_near_kink_against_grid_oracle(rng):
    set_ = EpigraphSet()
    below = [z for z in near_kink_points(rng) if z[1] < graph_height(z[0])]
    assert len(below) > 50
    for z in below:
        check_graph_projection(z, set_.project(Point.vector(z)).data)


EXTREME_POINTS = [(1e300, 1e300), (1e200, -1e200), (-1e300, 5.0), (1e300, 1e180)]


@pytest.mark.parametrize("p", EXTREME_POINTS, ids=str)
def test_graph_projection_at_extreme_scales(p):
    z = np.array(p)
    left_ray = float(np.hypot(z[0] - min(z[0], 0.0), z[1]))
    oracle = graph_min_distance_scaled(z)
    scale = float(np.hypot(z[0], z[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = _nearest_parameter(z)
        ys = [np.array([t, graph_height(t)])]
        for set_ in (CurveSet(), EpigraphSet()):
            y = set_.project(Point.vector(z))
            assert set_.contains(y)
            ys.append(y.data)
        for y in ys:
            d = float(np.hypot(*(z - y)))
            assert d <= left_ray
            assert d <= oracle + 1e-12 * scale


def test_projection_is_deterministic(rng):
    for set_ in all_sets():
        z = Point(rng.standard_normal(np.prod(set_.ambient_shape)), set_.ambient_shape)
        a = set_.project(z)
        b = set_.project(z)
        assert np.array_equal(a.data, b.data)


def test_projection_shape_checked():
    with pytest.raises(ShapeError):
        SparseSet(3, 1).project(Point.vector([1, 2]))
    with pytest.raises(ShapeError):
        LowRankSet(2, 3, 1).project(Point.matrix([[1, 2], [3, 4]]))


def test_from_spec_parses_every_shipped_set():
    cases = {
        "sparse:n=10,s=3": SparseSet,
        "nonneg-sparse:n=10,s=3": NonnegSparseSet,
        "lowrank:m=8,n=8,r=2": LowRankSet,
        "psd:n=6,r=2": PsdLowRankSet,
        "curve": CurveSet,
        "epigraph": EpigraphSet,
    }
    for spec, cls in cases.items():
        assert isinstance(from_spec(spec), cls)


def test_from_spec_diagnostics():
    with pytest.raises(ValueError, match="missing field"):
        from_spec("sparse:n=10")
    with pytest.raises(ValueError, match="unknown set kind"):
        from_spec("ball:r=1")
    with pytest.raises(ValueError, match="must be an integer"):
        from_spec("sparse:n=10,s=three")
    with pytest.raises(ValueError, match="unknown field"):
        from_spec("psd:n=6,r=2,k=1")
    with pytest.raises(ValueError, match="^set spec 'sparse': duplicate field 'n'$"):
        from_spec("sparse:n=3,s=1,n=2")
    with pytest.raises(ValueError, match="^set spec 'lowrank': duplicate field 'r'$"):
        from_spec("lowrank:m=3,n=3,r=1,r=2")
    with pytest.raises(ValueError) as err:
        from_spec("curve:x=1")
    assert str(err.value) == "set spec 'curve' takes no parameters, got 'x=1'"
    with pytest.raises(ValueError) as err:
        from_spec("ball:r=1")
    assert str(err.value) == ("unknown set kind 'ball'; expected one of "
                              "sparse, nonneg-sparse, lowrank, psd, curve, epigraph")
