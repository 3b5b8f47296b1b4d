"""Bounded-rank matrix sets.

Each set decomposes a point at most once and keeps the result on the point
as its memo (see ``Point``), which every later ``project``, ``contains``,
stratum or cone query at the point reads, ``sample_regular_normal``
included. A memo is written in one of two ways:

- By a projection, on the point it returns: the r kept singular values or
  eigenvalues and their vectors. The spectrum is shorter than min(m, n) (n
  for ``PsdLowRankSet``) because the point's other singular values or
  eigenvalues are exactly zero, so this memo serves a set of any rank, and
  it is trusted: the PSD queries skip their symmetry and sign checks.
  Projecting a projected point therefore decomposes nothing and returns its
  bits, for the set that made it and for a set of larger rank.
- By the first query that decomposes any other point, through the thin SVD
  of x (``LowRankSet``) or the eigendecomposition of its symmetric part
  (``PsdLowRankSet``): every singular value or eigenvalue, and the vectors of
  the r + 1 largest.

A memo is written once and lives as long as the point, so two kinds of query
decompose on every call: a query by the other matrix class, and one by a set
of larger rank than a decomposition memo covers.

``contains`` tests ``norm(x - P(x)) <= tol`` at every point, with P(x)
rebuilt from the memo by the helper ``project`` uses; at a point that the
set, or one of smaller rank, projected, P(x) is x itself.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Point, _sq_dist, norm
from .base import FeasibleSet


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _kept(x: Point, kind: type):
    """The arrays kind left in the memo of x, or None."""
    f = getattr(x, "_memo", None)
    return f[1:] if f is not None and f[0] is kind else None


def _keep(x: Point, kind: type, *arrays: np.ndarray) -> Point:
    """Leave arrays, made read-only, as the memo of x unless it has one; return x."""
    if getattr(x, "_memo", None) is None:
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(x, "_memo", (kind, *arrays))
    return x


def _ortho_block(W: np.ndarray, U: np.ndarray, Vt: np.ndarray) -> np.ndarray:
    """P_{U^perp} W P_{V^perp} for orthonormal columns U and orthonormal rows Vt."""
    R = W - U @ (U.T @ W)
    return R - (R @ Vt.T) @ Vt


class _BoundedRank(FeasibleSet):
    """Matrices of rank at most r, with strata indexed by rank.

    The projection, membership and stratum code shared by both matrix sets.
    A subclass supplies two helpers. ``_truncation(x)`` returns the flat
    coordinates of the projection of x and the memo ``project`` leaves on
    it: the family class, ``LowRankSet`` or ``PsdLowRankSet``, then the kept
    factors. ``_factors(x, tol)`` returns orthonormal bases U (columns) and
    Vt (rows) of the column and row spaces of the feasible point x, and its
    numerical rank k.
    """

    def __init__(self, shape: tuple[int, int], r: int, sides: tuple[int, ...]):
        super().__init__(shape)
        self.r = r
        self._sides = sides  # the row counts of random_point's bases: one per side, one if PSD

    @property
    def stratum_ids(self):
        return tuple(range(self.r + 1))

    def _rank(self, x: Point, spectrum: np.ndarray, t: float) -> int:
        """Numerical rank of x: its count of spectrum entries above t, at most r."""
        k = int(np.count_nonzero(spectrum > t))
        if k > self.r:
            self._infeasible(x, f"numerical rank {k} exceeds {self.r}")
        return k

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        flat, kept = self._truncation(x)
        return _keep(Point._of(flat, self.ambient_shape), *kept)

    def contains(self, x: Point, tol: float | None = None) -> bool:
        self._require_shape(x)
        return math.sqrt(_sq_dist(x.data, self._truncation(x)[0])) <= self._tol(tol)

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return self._factors(x, tol)[2]

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        """U diag(s) V^T of rank k, the stratum's: U and V the Q factors of normal draws, one
        per side (one basis, V = U, on a PSD set), then s uniform in [0.5, 1.5]."""
        k = self._pick_stratum(rng, stratum)
        if k == 0:
            return Point.zeros(self.ambient_shape)
        Q = [np.linalg.qr(rng.standard_normal((side, k)))[0] for side in self._sides]
        s = rng.uniform(0.5, 1.5, size=k)
        return Point((Q[0] * s) @ Q[-1].T, self.ambient_shape)


class LowRankSet(_BoundedRank):
    """Matrices of R^{m x n} with rank at most r (0 < r < min(m, n)).

    Strata are indexed by rank. Projection is rank-r truncation of the
    singular value decomposition.
    """

    def __init__(self, m: int, n: int, r: int):
        m, n, r = int(m), int(n), int(r)
        if not 0 < r < min(m, n):
            raise ValueError(f"need 0 < r < min(m, n), got m={m}, n={n}, r={r}")
        super().__init__((m, n), r, (m, n))
        self.m = m
        self.n = n

    def __repr__(self):
        return f"lowrank:m={self.m},n={self.n},r={self.r}"

    def _svd(self, x: Point):
        """Singular values of x and its leading singular vector pairs.

        Read from the memo of x: a projection's r kept pairs, whose spectrum
        is shorter than min(m, n) and serves every rank, or every singular
        value and more than r pairs. Otherwise computes the thin SVD and
        leaves the latter memo unless x has one.
        """
        f = _kept(x, LowRankSet)
        if f is not None and (f[0].shape[1] > self.r or f[1].size < min(self.m, self.n)):
            return f
        U, s, Vt = np.linalg.svd(x.as_array(), full_matrices=False)
        # r + 1 pairs, so that U[:, :k] (k <= r) is a strided view, as it is of
        # the whole thin U: numpy's products then take the same kernels and give
        # the same bits. Copies, not views, so that x keeps no whole U alive.
        f = (U[:, :self.r + 1].copy(), s, Vt[:self.r + 1].copy())
        _keep(x, LowRankSet, *f)
        return f

    def _factors(self, x: Point, tol: float | None):
        """Leading singular vectors U[:, :k], Vt[:k] of x and its numerical rank k."""
        self._require_shape(x)
        t = self._tol(tol)
        U, s, Vt = self._svd(x)
        k = self._rank(x, s, t)
        return U[:, :k], Vt[:k], k

    def _truncation(self, x: Point):
        """Flat coordinates of the projection of x, and its memo: LowRankSet, U, s, Vt kept."""
        U, s, Vt = self._svd(x)
        r = self.r
        U, s, Vt = U[:, :r].copy(), s[:r].copy(), Vt[:r].copy()
        return ((U * s) @ Vt).reshape(-1), (LowRankSet, U, s, Vt)

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        U, Vt, k = self._factors(x, tol)
        W = v.as_array()
        if k < self.r:
            return norm(v)
        return float(np.linalg.norm(W - _ortho_block(W, U, Vt)))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        U, Vt, k = self._factors(x, tol)
        W = v.as_array()
        scale = max(1.0, float(np.linalg.norm(W)))
        if k:
            if np.linalg.norm(U.T @ W) > t * scale:
                return False
            if np.linalg.norm(W @ Vt.T) > t * scale:
                return False
        sw = np.linalg.svd(W, compute_uv=False)
        rank_w = int(np.count_nonzero(sw > t * scale))
        return rank_w <= min(self.m, self.n) - self.r

    def project_tangent(self, x: Point, v: Point, tol: float | None = None) -> Point:
        self._require_shape(v)
        U, Vt, k = self._factors(x, tol)
        W = v.as_array()
        B = _ortho_block(W, U, Vt)
        out = W - B
        free = self.r - k
        if free > 0:
            Ub, sb, Vbt = np.linalg.svd(B, full_matrices=False)
            out = out + (Ub[:, :free] * sb[:free]) @ Vbt[:free]
        return Point._of(out.reshape(-1), (self.m, self.n))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        U, Vt, k = self._factors(x, tol)
        if k < self.r:
            return Point.zeros((self.m, self.n))
        G = v_rng.standard_normal((self.m, self.n))
        return Point(_ortho_block(G, U, Vt), (self.m, self.n))


class PsdLowRankSet(_BoundedRank):
    """Symmetric positive-semidefinite order-n matrices with rank at most r.

    The ambient space is all of R^{n x n}; projection first symmetrizes, then
    keeps the r largest eigenvalues clamped at zero. Strata are indexed by
    rank.
    """

    def __init__(self, n: int, r: int):
        n, r = int(n), int(r)
        if not 0 < r < n:
            raise ValueError(f"need 0 < r < n, got n={n}, r={r}")
        super().__init__((n, n), r, (n,))
        self.n = n

    def __repr__(self):
        return f"psd:n={self.n},r={self.r}"

    def _eigh(self, x: Point):
        """Eigenvalues of the symmetric part of x, ascending, and leading eigenvectors.

        Read from the memo of x: a projection's r kept pairs, whose spectrum
        is shorter than n and serves every rank, or every eigenvalue and the
        eigenvectors of more than r of the largest. Otherwise computes the
        decomposition and leaves the latter memo unless x has one.
        """
        f = _kept(x, PsdLowRankSet)
        if f is not None and (f[1].shape[1] > self.r or f[0].size < self.n):
            return f
        w, Q = np.linalg.eigh(_sym(x.as_array()))
        # r + 1 vectors, copied, for the reasons given in LowRankSet._svd.
        f = (w, Q[:, self.n - self.r - 1:].copy())
        _keep(x, PsdLowRankSet, *f)
        return f

    def _truncation(self, x: Point):
        """Flat coordinates of the projection of x, and its memo: PsdLowRankSet, lam, Q kept."""
        w, Q = self._eigh(x)
        lam = np.maximum(w[max(w.size - self.r, 0):], 0.0)
        Q = Q[:, Q.shape[1] - lam.size:].copy()
        return ((Q * lam) @ Q.T).reshape(-1), (PsdLowRankSet, lam, Q)

    def _factors(self, x: Point, tol: float | None):
        """Orthonormal basis U of the range of the feasible point x, U.T, and its numerical rank k.

        U holds the eigenvectors of the k positive eigenvalues. A projection's
        memo is trusted, so x is then neither tested for symmetry nor for a
        negative eigenvalue; any other memo or decomposition is (see
        ``_eigh``).
        """
        self._require_shape(x)
        t = self._tol(tol)
        f = _kept(x, PsdLowRankSet)
        if f is None or f[0].size == self.n:
            M = x.as_array()
            skew = 0.5 * (M - M.T)
            if np.linalg.norm(skew) > t * max(1.0, float(np.linalg.norm(M))):
                self._infeasible(x, "not symmetric")
            w, Q = self._eigh(x)
            if w[0] < -t:
                self._infeasible(x, f"negative eigenvalue {w[0]:.3e}")
        else:
            w, Q = f
        k = self._rank(x, w, t)
        U = Q[:, Q.shape[1] - k:]
        return U, U.T, k

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        U, Ut, k = self._factors(x, tol)
        W = _sym(v.as_array())
        # Normal part on the kernel of x: all of P W P there (P the kernel
        # projector) on the top stratum, only its negative part below it.
        B = _ortho_block(W, U, Ut)
        if k < self.r:
            wb, Qb = np.linalg.eigh(_sym(B))
            B = (Qb * np.minimum(wb, 0.0)) @ Qb.T
        return float(np.linalg.norm(W - B))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        U, Ut, k = self._factors(x, tol)
        W = _sym(v.as_array())
        scale = max(1.0, float(np.linalg.norm(v.as_array())))
        if k and np.linalg.norm(W @ U) > t * scale:
            return False
        # P W P (P the kernel projector) vanishes on the range of x, so next
        # to the eigenvalues of W restricted to the kernel it has k zeros.
        wb = np.linalg.eigvalsh(_sym(_ortho_block(W, U, Ut)))
        rank_b = int(np.count_nonzero(abs(wb) > t * scale))
        if rank_b <= self.n - self.r:
            return True
        return bool(wb.max(initial=0.0) <= t * scale)

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        U, Ut, k = self._factors(x, tol)
        n = self.n
        A = v_rng.standard_normal((n, n))
        skew = 0.5 * (A - A.T)
        # P B P, with P = I - U U^T the kernel projector, so the draw needs
        # the range of x only. Compressed to the kernel, B is a symmetrized
        # (n - k) x (n - k) Gaussian on the top stratum and minus a scaled
        # Wishart below it.
        if k == self.r:
            B = _sym(v_rng.standard_normal((n, n)))
        else:
            G = v_rng.standard_normal((n, n - k))
            B = -(G @ G.T) / np.sqrt(n - k)
        return Point(skew + _ortho_block(B, U, Ut), (n, n))

