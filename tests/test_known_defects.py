"""Known defects, pinned as strict expected failures.

Each test states the behaviour the package should have. It fails today, and
``strict=True`` turns a pass into a failure, so the change that mends a
defect must also drop its mark (ROADMAP items 3 and 11).
"""

import warnings

import numpy as np
import pytest

from ncpgd import LowRankSet, Point, PsdLowRankSet, SparseSet, in_proximal_normal_witness, norm
from ncpgd import cli

# FeasibleSet.tol is absolute, while SVD/eigh roundoff grows like 1e-16 * |x|.
ABSOLUTE_TOL = pytest.mark.xfail(strict=True, raises=AssertionError,
                                 reason="the membership tolerance does not scale with the point")


@pytest.mark.parametrize("set_", [LowRankSet(8, 8, 2), PsdLowRankSet(6, 2)], ids=repr)
@pytest.mark.parametrize("scale", [1e4, pytest.param(1e8, marks=ABSOLUTE_TOL)])
def test_a_scaled_point_stays_on_the_set(set_, scale):
    rng = np.random.default_rng(3)
    for k in set_.stratum_ids[1:]:
        for _ in range(3):
            x = set_.random_point(rng, stratum=k)
            assert set_.contains(Point(scale * x.as_array()))


# The small-scale side: below the absolute tolerance every point is on the set,
# where contains is True and stratum_id is 0.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the membership tolerance does not scale with the point")
@pytest.mark.parametrize("set_", [LowRankSet(8, 8, 2), SparseSet(8, 2)], ids=repr)
def test_a_point_off_the_set_stays_off_it_when_scaled_down(set_):
    z = np.random.default_rng(0).standard_normal(set_.ambient_shape)
    assert not set_.contains(Point(z))
    assert not set_.contains(Point(1e-12 * z))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a run overflows in numpy before it stops on a non-finite value")
def test_a_quartic_solve_from_a_huge_start_emits_no_overflow_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.main(["solve", "--set", "sparse:n=3,s=1", "--objective", "quartic",
                  "--x0", "1e80,0,0"])
    # Today: "overflow encountered in dot", from the objective, the Armijo
    # test and the regular-normal distance.
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


# The sampled witness's step test is second order in the tangent part of v:
# it certifies a regular-normal distance up to about sqrt(2 * tol) * |v|
# (ROADMAP item 11). The solver and the CSV column no longer use it; the
# `cones` line and `check --suite prox-equals-regular` still do.
def _sparse_off_normal():
    """x on the top stratum of SparseSet(6, 2); v = e3 + 1e-4 * e1, e1 tangent."""
    x = Point.vector([1.0, -2.0, 0.0, 0.0, 0.0, 0.0])
    return SparseSet(6, 2), x, Point.vector([1e-4, 0.0, 1.0, 0.0, 0.0, 0.0])


def _lowrank_off_normal():
    """x of rank 2 in LowRankSet(4, 4, 2); v = a unit normal + 1e-4 * a unit tangent direction."""
    set_ = LowRankSet(4, 4, 2)
    rng = np.random.default_rng(11)
    x = set_.random_point(rng, stratum=2)
    n = set_.sample_regular_normal(x, rng)
    t = set_.project_tangent(x, Point(rng.standard_normal((4, 4)), (4, 4)))
    return set_, x, (1.0 / norm(n)) * n + (1e-4 / norm(t)) * t


OFF_NORMAL = [_sparse_off_normal, _lowrank_off_normal]


@pytest.mark.parametrize("case", OFF_NORMAL, ids=lambda c: c.__name__)
def test_the_off_normal_directions_are_1e_4_from_the_regular_cone(case):
    set_, x, v = case()
    assert set_.dist_regular_normal(x, v) == pytest.approx(1e-4, rel=1e-9)
    assert not set_.in_proximal_normal(x, v, 1e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the sampled witness accepts a tangent part of about sqrt(2 * tol)")
@pytest.mark.parametrize("case", OFF_NORMAL, ids=lambda c: c.__name__)
def test_the_witness_rejects_a_direction_1e_4_from_the_regular_cone(case):
    set_, x, v = case()
    assert not in_proximal_normal_witness(set_, x, v, tol=1e-8)
