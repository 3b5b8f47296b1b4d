"""Known defects, pinned as strict expected failures.

Each test states the behaviour the package should have. It fails today, and
``strict=True`` turns a pass into a failure, so the change that mends a
defect must also drop its mark (ROADMAP item 3).
"""

import warnings

import numpy as np
import pytest

from ncpgd import LowRankSet, Point, PsdLowRankSet, SparseSet
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
