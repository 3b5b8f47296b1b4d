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
    cli,
    norm,
)
from ncpgd.sets import SpecError, from_spec, parse_spec
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


# The oracle below checks y = P(z) by the conditions that characterise it and
# never decomposes z, so it shares no code with `project`: it decomposes y
# and the residual only. Its tolerance is relative to ||z||.
ORACLE_SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]
ORACLE_RTOL = 1e-9


def _factored(rng, m, n, spectrum):
    """U diag(spectrum) V^T with orthonormal U (m x n) and V (n x n), n <= m."""
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * spectrum) @ V.T


def _lowrank_cases(rng):
    """(name, z) for LowRankSet(6, 4, 2): generic, tied at sigma_2 = sigma_3, rank 1."""
    yield "gaussian", rng.standard_normal((6, 4))
    yield "tie", _factored(rng, 6, 4, np.array([2.0, 1.25, 1.25, 0.5]))
    yield "rank-1", np.outer(rng.standard_normal(6), rng.standard_normal(4))


def _psd_cases(rng):
    """(name, z) for PsdLowRankSet(5, 2): generic, tied at lambda_2 = lambda_3, one and
    no positive eigenvalue."""
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    skew = np.triu(np.ones((5, 5)), 1)
    skew -= skew.T
    yield "gaussian", rng.standard_normal((5, 5))
    yield "tie", (Q * np.array([2.0, 1.25, 1.25, -0.5, 0.0])) @ Q.T + skew
    yield "one-positive", (Q * np.array([1.5, -0.2, -1.0, -0.7, 0.0])) @ Q.T
    yield "negative", -(Q * np.array([1.5, 0.2, 1.0, 0.7, 0.3])) @ Q.T


def _scaled(cases):
    """Each case at each scale, seeded."""
    return [pytest.param(scale * z, id=f"{name}-{scale:g}")
            for name, z in cases(np.random.default_rng(7)) for scale in ORACLE_SCALES]


@pytest.mark.parametrize("z", _scaled(_lowrank_cases))
def test_lowrank_projection_meets_eckart_young(z):
    # y = P(z) iff rank y <= r, z - y is orthogonal to the row and column
    # spaces of y, and ||z - y||_2 <= sigma_min+(y), or is 0 when rank y < r.
    r = 2
    y = LowRankSet(6, 4, r).project(Point.matrix(z)).as_array()
    R, t = z - y, ORACLE_RTOL * np.linalg.norm(z)
    sigma = np.linalg.svd(y, compute_uv=False)
    k = int(np.count_nonzero(sigma > t))
    assert k <= r
    assert np.linalg.norm(y.T @ R) <= t * np.linalg.norm(z)
    assert np.linalg.norm(R @ y.T) <= t * np.linalg.norm(z)
    assert np.linalg.norm(R, 2) <= (sigma[k - 1] if k == r else 0.0) + t


@pytest.mark.parametrize("z", _scaled(_psd_cases))
def test_psd_projection_meets_its_optimality_conditions(z):
    # With S = sym z: y = P(z) iff y is symmetric PSD of rank <= r, (S - y) y = 0,
    # and lambda_max(S - y) <= lambda_min+(y), or <= 0 when rank y < r.
    r = 2
    y = PsdLowRankSet(5, r).project(Point.matrix(z)).as_array()
    R, t = 0.5 * (z + z.T) - y, ORACLE_RTOL * np.linalg.norm(z)
    assert np.linalg.norm(y - y.T) <= t
    lam = np.linalg.eigvalsh(y)
    assert lam[0] >= -t
    positive = lam[lam > t]
    assert positive.size <= r
    assert np.linalg.norm(R @ y) <= t * np.linalg.norm(z)
    bound = positive[0] if positive.size == r else 0.0
    assert np.linalg.eigvalsh(R)[-1] <= bound + t


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


# The structural errors of a spec kind[:key=value,...], one template each for every
# family that ncpgd parses with the one spec grammar.
SPEC_TEMPLATES = {
    "unknown kind": "unknown {family} kind {kind!r}; expected one of {kinds}",
    "duplicate field": "{family} spec {kind!r}: duplicate field {detail!r}",
    "missing field": "{family} spec {kind!r}: missing field(s) {detail}",
    "unknown field": "{family} spec {kind!r}: unknown field(s) {detail}",
    "no parameters": "{family} spec {kind!r} takes no parameters, got {detail!r}",
    "not key=value": "{family} spec {kind!r}: expected key=value, got {detail!r}",
}
# Per family: its parser, its kinds, and (error, spec, kind, detail) cases. No rule
# kind is without parameters.
SPEC_FAMILIES = {
    "set": (from_spec, "sparse, nonneg-sparse, lowrank, psd, curve, epigraph", [
        ("unknown kind", "ball:r=1", "ball", None),
        ("duplicate field", "sparse:n=3,s=1,n=2", "sparse", "n"),
        ("duplicate field", "lowrank:m=3,n=3,r=1,r=2", "lowrank", "r"),
        ("missing field", "sparse:n=10", "sparse", "s"),
        ("unknown field", "psd:n=6,r=2,k=1", "psd", "k"),
        ("no parameters", "curve:x=1", "curve", "x=1"),
        ("not key=value", "sparse:10,s=3", "sparse", "10"),
    ]),
    "objective": (lambda spec: cli.parse_objective_field(spec, (2,)),
                  "least-squares, constant, quartic", [
        ("unknown kind", "cubic", "cubic", None),
        ("duplicate field", "least-squares:target=1,0,target=1,0", "least-squares", "target"),
        ("missing field", "least-squares", "least-squares", "target"),
        ("unknown field", "constant:value=1,scale=2", "constant", "scale"),
        ("no parameters", "quartic:p=4", "quartic", "p=4"),
        ("not key=value", "constant:1", "constant", "1"),
    ]),
    "rule": (cli.parse_rule_field, "max, avg, average", [
        ("unknown kind", "min:l=1", "min", None),
        ("duplicate field", "max:l=1,l=2", "max", "l"),
        ("missing field", "avg", "avg", "p"),
        ("unknown field", "max:p=1", "max", "p"),
        ("not key=value", "max:1", "max", "1"),
    ]),
}


@pytest.mark.parametrize("family", SPEC_FAMILIES)
def test_from_spec_diagnostics(family):
    parse, kinds, cases = SPEC_FAMILIES[family]
    for error, spec, kind, detail in cases:
        with pytest.raises(SpecError) as err:
            parse(spec)
        assert str(err.value) == SPEC_TEMPLATES[error].format(family=family, kind=kind,
                                                               detail=detail, kinds=kinds)


def test_from_spec_rejects_a_non_integer_field():
    with pytest.raises(SpecError, match="^set spec 'sparse': field 's' must be an integer, got 'three'$"):
        from_spec("sparse:n=10,s=three")


@pytest.mark.parametrize("spec,fields", [
    ("least-squares:target=1,0,0,0", {"target": "1,0,0,0"}),
    ("least-squares: target = 1, 0", {"target": " 1, 0"}),
    ("constant:value=nan", {"value": "nan"}),
    ("constant", {}),
    ("max:", {}),
])
def test_a_value_runs_up_to_the_next_key(spec, fields):
    kinds = {"least-squares": ("target",), "constant": ("value",), "max": ("l",)}
    assert parse_spec("objective", spec, kinds, optional=("value", "l"))[1] == fields
