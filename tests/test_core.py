import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpgd import (
    Objective,
    Point,
    ShapeError,
    check_gradient,
    constant,
    inner,
    least_squares,
    norm,
    quartic,
)

finite_coords = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8)


def test_inner_orthogonal_axes():
    assert inner(Point.vector([1, 0]), Point.vector([0, 1])) == 0.0


def test_inner_hand_arithmetic():
    assert inner(Point.vector([1, 2]), Point.vector([3, 4])) == 11.0


def test_norm_345():
    assert norm(Point.vector([3, 4])) == 5.0


def test_norm_zero_vector():
    assert norm(Point.zeros((4,))) == 0.0


@given(finite_coords)
def test_inner_self_is_sum_of_squares(coords):
    x = Point.vector(coords)
    oracle = sum(c * c for c in coords)
    assert inner(x, x) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


@given(finite_coords)
def test_norm_of_negation(coords):
    x = Point.vector(coords)
    assert norm(-x) == norm(x)


@given(finite_coords, finite_coords)
def test_cauchy_schwarz(a, b):
    k = min(len(a), len(b))
    x, y = Point.vector(a[:k]), Point.vector(b[:k])
    assert abs(inner(x, y)) <= norm(x) * norm(y) * (1 + 1e-12) + 1e-12


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        inner(Point.vector([1, 2]), Point.vector([1, 2, 3]))
    with pytest.raises(ShapeError):
        Point.vector([1, 2]) + Point.vector([1, 2, 3])
    with pytest.raises(ShapeError):
        Point.vector([1, 2, 3]) - Point([[1, 2], [3, 4]])


def test_matrix_point_uses_frobenius_inner():
    a = Point.matrix([[1, 2], [3, 4]])
    b = Point.matrix([[1, 0], [0, 1]])
    assert inner(a, b) == 5.0
    assert a.shape == (2, 2)
    assert np.array_equal(a.as_array(), [[1.0, 2.0], [3.0, 4.0]])


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point.vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        Point.vector([float("inf"), 0.0])


def _seeded(size, bad, seed):
    """A seeded Gaussian array of size entries; bad, unless None, replaces one entry at a seeded place."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size)
    if bad is not None:
        a[rng.integers(size)] = bad
    return a


# The sizes of the benchmark's sparse points and of its 100x100 and 200x200 matrices.
WORKLOAD_SIZED = [pytest.param(_seeded(size, bad, seed), id=f"{size}-{bad}")
                  for seed, (size, bad) in enumerate(itertools.product(
                      (200, 10_000, 40_000), (None, np.inf, -np.inf, np.nan)))]


@pytest.mark.parametrize("coords", [
    [1e308, 1e308],                   # finite, but the sum overflows
    [1e308, 1e308, -1e308, -1e308],   # finite, but pairwise summation gives inf - inf
    [-1e308, -1e308],
    [1.0, -2.5, 0.0],
    [np.inf],
    [-np.inf],
    [np.nan],
    [1.0, np.inf, -np.inf],
    [0.0, -np.inf],
    *WORKLOAD_SIZED,
], ids=str)
def test_point_accepts_exactly_the_finite_arrays(coords):
    a = np.array(coords)
    finite = bool(np.isfinite(a).all())
    for make in (lambda: Point(a), lambda: Point._of(a.copy(), a.shape)):
        with np.errstate(over="ignore", invalid="ignore"):
            if finite:
                assert np.array_equal(make().data, a)
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    make()


def test_finiteness_test_raises_no_numpy_warning():
    # No np.errstate here: the test itself must not let numpy warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (Point, lambda a: Point._of(a, a.shape)):
            assert make(np.array([1e308, 1e308])).data.tolist() == [1e308, 1e308]
            with pytest.raises(ValueError, match="non-finite"):
                make(np.array([1.0, np.inf, -np.inf]))


def test_point_is_immutable():
    p = Point.vector([1, 2])
    with pytest.raises(AttributeError):
        p.shape = (3,)
    with pytest.raises(ValueError):
        p.data[0] = 5.0


def test_least_squares_values_and_gradient():
    obj = least_squares(Point.vector([1, 0]))
    x = Point.vector([0, 1])
    assert obj.eval(x) == 1.0
    assert np.allclose(obj.grad(x).data, [-1.0, 1.0])


def test_check_gradient_least_squares():
    obj = least_squares(Point.vector([1, 0]))
    err = check_gradient(obj, Point.vector([0, 1]), h=1e-6)
    assert err < 1e-6


def test_check_gradient_constant_objective():
    err = check_gradient(constant(3.0), Point.vector([0.3, -0.7, 2.0]))
    assert err < 1e-12


def test_check_gradient_cubic():
    cubic = Objective(lambda p: float(p.data[0]) ** 3,
                      lambda p: Point([3.0 * float(p.data[0]) ** 2], (1,)),
                      name="cubic")
    err = check_gradient(cubic, Point.vector([1.0]), h=1e-5)
    assert err < 1e-8


def test_check_gradient_rejects_bad_step():
    for h, text in ((0.0, "0.0"), (-1e-6, "-1e-06"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ValueError, match=rf"^step h must be in \(0, inf\), got {text}$"):
            check_gradient(constant(), Point.vector([0.0]), h=h)


def test_constant_rejects_a_non_finite_value():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="constant value must be finite"):
            constant(value)


def test_check_gradient_reports_non_finite_objective():
    bad = Objective(lambda p: float("inf"), lambda p: Point(np.zeros(p.data.size), p.shape))
    with pytest.raises(ValueError):
        check_gradient(bad, Point.vector([1.0]))


def test_gradient_shape_is_enforced():
    bad = Objective(lambda p: 0.0, lambda p: Point([1.0], (1,)))
    with pytest.raises(ShapeError):
        bad.grad(Point.vector([1.0, 2.0]))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_shipped_objectives_pass_gradient_check(seed):
    rng = np.random.default_rng(seed)
    x_vec = Point(rng.standard_normal(4), (4,))
    x_mat = Point(rng.standard_normal(6), (2, 3))
    for obj in (least_squares(Point(rng.standard_normal(4), (4,))), constant(1.5), quartic()):
        assert check_gradient(obj, x_vec) < 1e-5
    for obj in (least_squares(Point(rng.standard_normal(6), (2, 3))), constant(), quartic()):
        assert check_gradient(obj, x_mat) < 1e-5


def test_point_slots_are_pinned():
    # A test that reads a removed private slot through getattr would pass
    # without testing anything; this pins the slots the tests may read.
    assert Point.__slots__ == ("data", "shape", "_memo")
