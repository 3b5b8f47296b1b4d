"""Sparsity-constrained vector sets."""

from __future__ import annotations

import numpy as np

from ..core import Point, norm
from .base import DEFAULT_TOL, FeasibleSet


def _top_indices(magnitudes: np.ndarray, k: int) -> np.ndarray:
    # Stable sort on descending magnitude: ties go to the smallest index.
    order = np.argsort(-magnitudes, kind="stable")
    return order[:k]


class SparseSet(FeasibleSet):
    """Vectors of R^n with at most s nonzero entries (0 < s < n).

    Strata are indexed by the number of nonzero entries. Projection keeps the
    s largest-magnitude entries, ties broken by smallest index.
    """

    def __init__(self, n: int, s: int, tol: float = DEFAULT_TOL):
        n, s = int(n), int(s)
        if not 0 < s < n:
            raise ValueError(f"need 0 < s < n, got n={n}, s={s}")
        super().__init__((n,), tol)
        self.n = n
        self.s = s

    def __repr__(self):
        return f"sparse:n={self.n},s={self.s}"

    @property
    def stratum_ids(self):
        return tuple(range(self.s + 1))

    def _support(self, x: Point, tol: float | None) -> np.ndarray:
        self._require_shape(x)
        idx = np.flatnonzero(np.abs(x.data) > self._tol(tol))
        if idx.size > self.s:
            self._infeasible(x, f"{idx.size} entries exceed the sparsity level {self.s}")
        return idx

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        keep = _top_indices(np.abs(x.data), self.s)
        out = np.zeros(self.n)
        out[keep] = x.data[keep]
        return Point._of(out, (self.n,))

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return int(self._support(x, tol).size)

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        support = self._support(x, tol)
        if support.size == self.s:
            # Cone = vectors supported off the support of x.
            return float(np.linalg.norm(v.data[support]))
        # Below the top stratum the regular normal cone is {0}.
        return norm(v)

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        support = self._support(x, tol)
        if support.size and np.max(np.abs(v.data[support])) > t:
            return False
        nnz = int(np.count_nonzero(np.abs(v.data) > t))
        return nnz <= self.n - self.s

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        support = self._support(x, tol)
        out = np.zeros(self.n)
        out[support] = v.data[support]
        free = self.s - support.size
        if free > 0:
            mag = np.abs(v.data).astype(float)
            mag[support] = -np.inf
            keep = _top_indices(mag, free)
            out[keep] = v.data[keep]
        return Point._of(out, (self.n,))

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = int(rng.integers(0, self.s + 1)) if stratum is None else int(stratum)
        if not 0 <= k <= self.s:
            raise ValueError(f"stratum must be in 0..{self.s}, got {k}")
        out = np.zeros(self.n)
        if k:
            idx = rng.choice(self.n, size=k, replace=False)
            out[idx] = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
        return Point(out, (self.n,))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        support = self._support(x, tol)
        out = np.zeros(self.n)
        if support.size == self.s:
            off = np.setdiff1d(np.arange(self.n), support)
            out[off] = v_rng.standard_normal(off.size)
        return Point(out, (self.n,))


class NonnegSparseSet(FeasibleSet):
    """Nonnegative vectors of R^n with at most s nonzero entries.

    Projection clamps negatives to zero, then keeps the s largest entries.
    """

    def __init__(self, n: int, s: int, tol: float = DEFAULT_TOL):
        n, s = int(n), int(s)
        if not 0 < s < n:
            raise ValueError(f"need 0 < s < n, got n={n}, s={s}")
        super().__init__((n,), tol)
        self.n = n
        self.s = s

    def __repr__(self):
        return f"nonneg-sparse:n={self.n},s={self.s}"

    @property
    def stratum_ids(self):
        return tuple(range(self.s + 1))

    def _support(self, x: Point, tol: float | None) -> np.ndarray:
        self._require_shape(x)
        t = self._tol(tol)
        if np.min(x.data, initial=0.0) < -t:
            self._infeasible(x, "negative entry")
        idx = np.flatnonzero(x.data > t)
        if idx.size > self.s:
            self._infeasible(x, f"{idx.size} entries exceed the sparsity level {self.s}")
        return idx

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        clamped = np.maximum(x.data, 0.0)
        keep = _top_indices(clamped, self.s)
        out = np.zeros(self.n)
        out[keep] = clamped[keep]
        return Point._of(out, (self.n,))

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return int(self._support(x, tol).size)

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        support = self._support(x, tol)
        on = float(np.dot(v.data[support], v.data[support]))
        if support.size == self.s:
            # Off-support part is unconstrained at the top stratum.
            return float(np.sqrt(on))
        # Below it, normals are nonpositive off the support.
        off = np.setdiff1d(np.arange(self.n), support)
        pos = np.maximum(v.data[off], 0.0)
        return float(np.sqrt(on + np.dot(pos, pos)))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        support = self._support(x, tol)
        if support.size and np.max(np.abs(v.data[support])) > t:
            return False
        nnz = int(np.count_nonzero(np.abs(v.data) > t))
        if nnz <= self.n - self.s:
            return True
        return bool(np.max(v.data, initial=0.0) <= t)

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        support = self._support(x, tol)
        out = np.zeros(self.n)
        out[support] = v.data[support]
        free = self.s - support.size
        if free > 0:
            clamped = np.maximum(v.data, 0.0)
            clamped[support] = -np.inf
            keep = _top_indices(clamped, free)
            out[keep] = np.maximum(v.data[keep], 0.0)
        return Point._of(out, (self.n,))

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = int(rng.integers(0, self.s + 1)) if stratum is None else int(stratum)
        if not 0 <= k <= self.s:
            raise ValueError(f"stratum must be in 0..{self.s}, got {k}")
        out = np.zeros(self.n)
        if k:
            idx = rng.choice(self.n, size=k, replace=False)
            out[idx] = rng.uniform(0.5, 1.5, size=k)
        return Point(out, (self.n,))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        support = self._support(x, tol)
        off = np.setdiff1d(np.arange(self.n), support)
        out = np.zeros(self.n)
        if support.size == self.s:
            out[off] = v_rng.standard_normal(off.size)
        else:
            out[off] = -np.abs(v_rng.standard_normal(off.size))
        return Point(out, (self.n,))
