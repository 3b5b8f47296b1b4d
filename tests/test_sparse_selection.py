"""The O(n) top-k selection of the sparse sets against a stable sort.

`_top_indices` must return the index set of the first k entries of a stable
sort on descending value, ties, zeros, -0.0 and project_tangent's -inf mask
included, so that both sparse sets project exactly as the stable-sort
references in helpers.py do, bit for bit. It takes one of two branches: the
k-th largest value is unique (or every copy of it fits in k places), or
copies of it compete for the last places. The seeded tests show that their
inputs reach both at every size.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpgd import NonnegSparseSet, Point, SparseSet
from ncpgd.sets.sparse import _top_indices

from helpers import _project, _tangent

SIZES = [2, 3, 10, 200, 10000]


def _ks(n):
    if n <= 10:
        return range(1, n)
    return (1, 2, n // 20, n // 2, n - 1)


def _vectors(seed, n):
    """Seeded vectors of length n: distinct values, ties, zeros and -0.0."""
    rng = np.random.default_rng(seed)
    yield rng.standard_normal(n)
    yield rng.integers(-3, 4, size=n).astype(float)
    few = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.5, 2.0], size=n)
    yield few
    sparse = np.where(rng.random(n) < 0.7, rng.choice([0.0, -0.0], size=n), rng.standard_normal(n))
    yield sparse
    yield np.full(n, -0.0)


def _stable(m, k):
    return np.sort(np.argsort(-m, kind="stable")[:k])


def _tied(m, k):
    """Whether the k-th and (k+1)-th largest values are equal: the tied branch."""
    desc = np.sort(m)[::-1]
    return bool(desc[k] == desc[k - 1])


@pytest.mark.parametrize("n", SIZES)
def test_selection_matches_the_stable_sort(n):
    branches = set()
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        for v in _vectors(seed, n):
            # Signed values, magnitudes, and magnitudes under a -inf mask.
            masked = np.abs(v)
            masked[rng.random(n) < 0.3] = -np.inf
            for m in (v, np.abs(v), masked):
                for k in _ks(n):
                    got = _top_indices(m, k)
                    assert got.size == k
                    assert np.array_equal(np.sort(got), _stable(m, k)), (n, k, m)
                    branches.add(_tied(m, k))
    assert branches == {False, True}


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -np.inf]),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=2, max_size=12),
       st.data())
def test_selection_matches_the_stable_sort_on_any_values(values, data):
    m = np.array(values)
    k = data.draw(st.integers(1, m.size - 1))
    assert np.array_equal(np.sort(_top_indices(m, k)), _stable(m, k))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _feasible(rng, n, s, nonneg):
    """A point with a support of 0 to s entries, and that support."""
    x = np.zeros(n)
    size = int(rng.integers(0, s + 1))
    idx = rng.choice(n, size=size, replace=False)
    x[idx] = rng.uniform(0.5, 1.5, size=size) * (1.0 if nonneg else rng.choice([-1.0, 1.0], size=size))
    return x, np.sort(idx)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("cls", [SparseSet, NonnegSparseSet])
def test_projections_match_the_stable_sort_references(n, cls):
    nonneg = cls is NonnegSparseSet
    clamp = (lambda a: np.maximum(a, 0.0)) if nonneg else (lambda a: a)
    project_branches, tangent_branches = set(), set()
    for s in _ks(n):
        set_ = cls(n, s)
        for seed in range(2):
            rng = np.random.default_rng(2000 + seed)
            for v in _vectors(seed, n):
                got = set_.project(Point(v)).data
                assert np.array_equal(_bits(got), _bits(_project(v, s, nonneg)))
                project_branches.add(_tied(np.abs(clamp(v)), s))

                x, support = _feasible(rng, n, s, nonneg)
                got = set_.project_tangent(Point(x), Point(v)).data
                assert np.array_equal(_bits(got), _bits(_tangent(v, support, s, nonneg)))
                if support.size < s:
                    mag = np.abs(clamp(v))
                    mag[support] = -np.inf
                    tangent_branches.add(_tied(mag, s - support.size))
    assert project_branches == tangent_branches == {False, True}
