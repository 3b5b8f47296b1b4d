"""Sparsity-constrained vector sets."""

from __future__ import annotations

import math

import numpy as np

from ..core import Point, norm
from .base import FeasibleSet


def _top_indices(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest magnitudes, ascending; ties go to the smallest index.

    The same index set as ``np.argsort(-magnitudes, kind="stable")[:k]``, in
    O(n) rather than O(n log n). A partition gives the k-th largest value t.
    When exactly k entries are >= t (t is unique, or every entry equal to t
    fits), those are the answer. Otherwise every index above t is kept and
    the smallest indices equal to t fill the remaining places. Zeros, -0.0
    and project_tangent's -inf mask are ordinary values here. Callers assign
    ``out[keep] = ...``, which does not depend on the order of the indices;
    an index array is faster there than a boolean mask.
    """
    n = magnitudes.size
    part = magnitudes.copy()
    part.partition(n - k)
    t = part[n - k]
    top = (magnitudes >= t).nonzero()[0]
    if top.size == k:
        return top
    keep = magnitudes > t
    ties = (magnitudes == t).nonzero()[0]
    keep[ties[:k - np.count_nonzero(keep)]] = True
    return keep.nonzero()[0]


class _Sparsity(FeasibleSet):
    """Vectors with at most s nonzero entries, possibly under a sign constraint.

    The selection, support and cone code shared by both sparse sets. The
    methods below default to no sign constraint; NonnegSparseSet overrides
    them.
    """

    _kind = ""

    def __init__(self, n: int, s: int):
        n, s = int(n), int(s)
        if not 0 < s < n:
            raise ValueError(f"need 0 < s < n, got n={n}, s={s}")
        super().__init__((n,))
        self.n = n
        self.s = s

    def __repr__(self):
        return f"{self._kind}:n={self.n},s={self.s}"

    @property
    def stratum_ids(self):
        return tuple(range(self.s + 1))

    def _clamp(self, a: np.ndarray) -> np.ndarray:
        return a

    def _check_signs(self, x: Point, t: float):
        pass

    def _in_sign_normal(self, v: Point, t: float) -> bool:
        """Whether v is normal to the sign constraint alone (decides past n - s nonzeros)."""
        return False

    def _signs(self, rng: np.random.Generator, magnitudes: np.ndarray) -> np.ndarray:
        return magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size)

    def _normal_off_support(self, v_rng: np.random.Generator, size: int):
        """Regular normal entries off the support below the top stratum."""
        return 0.0

    def _support(self, x: Point, tol: float | None) -> np.ndarray:
        self._require_shape(x)
        t = self._tol(tol)
        self._check_signs(x, t)
        idx = (abs(x.data) > t).nonzero()[0]
        if idx.size > self.s:
            self._infeasible(x, f"{idx.size} entries exceed the sparsity level {self.s}")
        return idx

    def _off_support(self, support: np.ndarray) -> np.ndarray:
        """Boolean mask of the entries outside support."""
        off = np.ones(self.n, dtype=bool)
        off[support] = False
        return off

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        y = self._clamp(x.data)
        keep = _top_indices(abs(y), self.s)
        out = np.zeros(self.n)
        out[keep] = y[keep]
        # Entries of x (clamped at 0 on the nonnegative set) or zeros: finite because x is.
        return Point._of(out, (self.n,), finite=True)

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return int(self._support(x, tol).size)

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        support = self._support(x, tol)
        if support.size and abs(v.data[support]).max() > t:
            return False
        nnz = int(np.count_nonzero(abs(v.data) > t))
        return nnz <= self.n - self.s or self._in_sign_normal(v, t)

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        support = self._support(x, tol)
        out = np.zeros(self.n)
        out[support] = v.data[support]
        free = self.s - support.size
        if free > 0:
            w = self._clamp(v.data)
            mag = abs(w)
            mag[support] = -np.inf
            keep = _top_indices(mag, free)
            out[keep] = w[keep]
        # Entries of v, clamped or zeroed: finite because v is.
        return Point._of(out, (self.n,), finite=True)

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = self._pick_stratum(rng, stratum)
        out = np.zeros(self.n)
        if k:
            idx = rng.choice(self.n, size=k, replace=False)
            out[idx] = self._signs(rng, rng.uniform(0.5, 1.5, size=k))
        return Point(out, (self.n,))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        support = self._support(x, tol)
        off = self._off_support(support)
        out = np.zeros(self.n)
        if support.size == self.s:
            out[off] = v_rng.standard_normal(self.n - support.size)
        else:
            out[off] = self._normal_off_support(v_rng, self.n - support.size)
        return Point(out, (self.n,))


class SparseSet(_Sparsity):
    """Vectors of R^n with at most s nonzero entries (0 < s < n).

    Strata are indexed by the number of nonzero entries. Projection keeps the
    s largest-magnitude entries, ties broken by smallest index, as a stable
    sort on descending magnitude would; an O(n) partition finds them, with
    a second pass over the entries only when the s-th largest magnitude is
    tied (see _top_indices).
    """

    _kind = "sparse"

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        support = self._support(x, tol)
        if support.size == self.s:
            # Cone = vectors supported off the support of x.
            w = v.data[support]
            return math.sqrt(w.dot(w))
        # Below the top stratum the regular normal cone is {0}.
        return norm(v)


class NonnegSparseSet(_Sparsity):
    """Nonnegative vectors of R^n with at most s nonzero entries.

    Projection clamps negatives to zero, then keeps the s largest entries,
    ties broken by smallest index as in SparseSet.
    """

    _kind = "nonneg-sparse"

    def _clamp(self, a: np.ndarray) -> np.ndarray:
        return np.maximum(a, 0.0)

    def _check_signs(self, x: Point, t: float):
        if x.data.min(initial=0.0) < -t:
            self._infeasible(x, "negative entry")

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        support = self._support(x, tol)
        w = v.data[support]
        on = float(w.dot(w))
        if support.size == self.s:
            # Off-support part is unconstrained at the top stratum.
            return math.sqrt(on)
        # Below it, normals are nonpositive off the support.
        pos = np.maximum(v.data[self._off_support(support)], 0.0)
        return math.sqrt(on + pos.dot(pos))

    def _in_sign_normal(self, v: Point, t: float) -> bool:
        return bool(v.data.max(initial=0.0) <= t)

    def _signs(self, rng: np.random.Generator, magnitudes: np.ndarray) -> np.ndarray:
        return magnitudes

    def _normal_off_support(self, v_rng: np.random.Generator, size: int):
        return -abs(v_rng.standard_normal(size))
