"""Bounded-rank matrix sets.

Each set decomposes a point at most once (see ``Point``). The first query
that needs the thin SVD of x (``LowRankSet``) or the eigendecomposition of
its symmetric part (``PsdLowRankSet``) keeps every singular value or
eigenvalue, and the singular vectors or eigenvectors of the r + 1 largest, on
x as its memo, and every later ``project``, ``contains``, stratum or cone
query at x reads them. The memo lives as long as x. The one exception to
r + 1 is ``PsdLowRankSet.sample_regular_normal``, which needs a basis of the
kernel: when it is the first query at x, the memo keeps all n eigenvectors,
and every later query reads them. Two queries decompose again: one by a set
of larger rank than the memo's, which holds too few leading factors for it,
and ``sample_regular_normal`` at a point whose memo holds only r + 1
eigenvectors.

Both projections also leave their kept factors on the point they return, so
the stratum and cone queries at a projected iterate cost a few O(mnr)
products and no decomposition at all. These carried factors are trusted: a
projected point is on the set when its discarded singular values or
eigenvalues are small. A memo is the point's own decomposition instead, so
``contains`` at a point without carried factors still tests
``norm(x - project(x)) <= tol``, with the projection rebuilt from the memo.
"""

from __future__ import annotations

import numpy as np

from ..core import Point, norm
from .base import FeasibleSet


def _fix_gauge(Q: np.ndarray) -> np.ndarray:
    """Sign convention: first sizable entry of each column positive."""
    A = abs(Q)
    big = A > 1e-12 * A.max(axis=0, initial=0.0)
    first = np.argmax(big, axis=0)
    flip = big.any(axis=0) & (Q[first, np.arange(Q.shape[1])] < 0.0)
    return np.where(flip, -Q, Q)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _kept(x: Point, slot: str, kind: type):
    """The arrays kind left in the slot ``_factors`` or ``_memo`` of x, or None."""
    f = getattr(x, slot, None)
    return f[1:] if f is not None and f[0] is kind else None


def _keep(x: Point, slot: str, kind: type, *arrays: np.ndarray) -> Point:
    """Leave arrays, made read-only, in the slot of x unless it is taken; return x."""
    if getattr(x, slot, None) is None:
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(x, slot, (kind, *arrays))
    return x


def _ortho_block(W: np.ndarray, U: np.ndarray, Vt: np.ndarray) -> np.ndarray:
    """P_{U^perp} W P_{V^perp} for orthonormal columns U and orthonormal rows Vt."""
    R = W - U @ (U.T @ W)
    return R - (R @ Vt.T) @ Vt


class LowRankSet(FeasibleSet):
    """Matrices of R^{m x n} with rank at most r (0 < r < min(m, n)).

    Strata are indexed by rank. Projection is rank-r truncation of the
    singular value decomposition.
    """

    def __init__(self, m: int, n: int, r: int):
        m, n, r = int(m), int(n), int(r)
        if not 0 < r < min(m, n):
            raise ValueError(f"need 0 < r < min(m, n), got m={m}, n={n}, r={r}")
        super().__init__((m, n))
        self.m = m
        self.n = n
        self.r = r

    def __repr__(self):
        return f"lowrank:m={self.m},n={self.n},r={self.r}"

    @property
    def stratum_ids(self):
        return tuple(range(self.r + 1))

    def _svd(self, x: Point):
        """Every singular value of x and more than r of its leading singular vector pairs.

        Read from the memo of x; the first call at x computes the thin SVD
        and leaves this memo.
        """
        f = _kept(x, "_memo", LowRankSet)
        if f is not None and f[0].shape[1] > self.r:
            return f
        U, s, Vt = np.linalg.svd(x.as_array(), full_matrices=False)
        # r + 1 pairs, so that U[:, :k] (k <= r) is a strided view, as it is of
        # the whole thin U: numpy's products then take the same kernels and give
        # the same bits. Copies, not views, so that x keeps no whole U alive.
        f = (U[:, :self.r + 1].copy(), s, Vt[:self.r + 1].copy())
        _keep(x, "_memo", LowRankSet, *f)
        return f

    def _factors(self, x: Point, tol: float | None):
        """Leading singular vectors U[:, :k], Vt[:k] of x and its numerical rank k."""
        self._require_shape(x)
        t = self._tol(tol)
        f = _kept(x, "_factors", LowRankSet)
        U, s, Vt = self._svd(x) if f is None else f
        k = int(np.count_nonzero(s > t))
        if k > self.r:
            self._infeasible(x, f"numerical rank {k} exceeds {self.r}")
        return U[:, :k], Vt[:k], k

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        U, s, Vt = self._svd(x)
        r = self.r
        U, s, Vt = U[:, :r].copy(), s[:r].copy(), Vt[:r].copy()
        y = Point._of(((U * s) @ Vt).reshape(-1), (self.m, self.n))
        return _keep(y, "_factors", LowRankSet, U, s, Vt)

    def contains(self, x: Point, tol: float | None = None) -> bool:
        f = _kept(x, "_factors", LowRankSet)
        if f is None:
            # norm(x - project(x)) <= tol, with the projection rebuilt from the memo.
            return super().contains(x, tol)
        self._require_shape(x)
        # The distance to the set is the norm of the singular values beyond r.
        return float(np.linalg.norm(f[1][self.r:])) <= self._tol(tol)

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return self._factors(x, tol)[2]

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

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = self._pick_stratum(rng, stratum)
        if k == 0:
            return Point.zeros((self.m, self.n))
        Qu, _ = np.linalg.qr(rng.standard_normal((self.m, k)))
        Qv, _ = np.linalg.qr(rng.standard_normal((self.n, k)))
        sigma = rng.uniform(0.5, 1.5, size=k)
        return Point((Qu * sigma) @ Qv.T, (self.m, self.n))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        U, Vt, k = self._factors(x, tol)
        if k < self.r:
            return Point.zeros((self.m, self.n))
        G = v_rng.standard_normal((self.m, self.n))
        return Point(_ortho_block(G, U, Vt), (self.m, self.n))


class PsdLowRankSet(FeasibleSet):
    """Symmetric positive-semidefinite order-n matrices with rank at most r.

    The ambient space is all of R^{n x n}; projection first symmetrizes, then
    keeps the r largest eigenvalues clamped at zero. Strata are indexed by
    rank.
    """

    def __init__(self, n: int, r: int):
        n, r = int(n), int(r)
        if not 0 < r < n:
            raise ValueError(f"need 0 < r < n, got n={n}, r={r}")
        super().__init__((n, n))
        self.n = n
        self.r = r

    def __repr__(self):
        return f"psd:n={self.n},r={self.r}"

    @property
    def stratum_ids(self):
        return tuple(range(self.r + 1))

    def _eigh(self, x: Point, full: bool = False):
        """Every eigenvalue of the symmetric part of x, ascending, and eigenvectors.

        The eigenvectors are those of more than r of the largest eigenvalues,
        read from the memo of x; the first call at x computes the
        decomposition and leaves this memo. ``full=True`` returns all n
        eigenvectors, for callers that need a basis of the kernel: read from
        the memo when a full call made it, else decomposed again.
        """
        f = _kept(x, "_memo", PsdLowRankSet)
        if f is not None and f[1].shape[1] > (self.n - 1 if full else self.r):
            return f
        w, Q = np.linalg.eigh(_sym(x.as_array()))
        # A full call keeps all of Q. Otherwise r + 1 vectors, copied, for the
        # reasons given in LowRankSet._svd. A view of either is strided, so
        # every product at it gives the same bits.
        f = (w, Q if full else Q[:, self.n - self.r - 1:].copy())
        _keep(x, "_memo", PsdLowRankSet, *f)
        return f

    def project(self, x: Point) -> Point:
        self._require_shape(x)
        w, Q = self._eigh(x)
        lam = np.maximum(w[self.n - self.r:], 0.0)
        Q = Q[:, Q.shape[1] - self.r:].copy()
        y = Point._of(((Q * lam) @ Q.T).reshape(-1), (self.n, self.n))
        return _keep(y, "_factors", PsdLowRankSet, lam, Q)

    def contains(self, x: Point, tol: float | None = None) -> bool:
        f = _kept(x, "_factors", PsdLowRankSet)
        if f is None:
            # norm(x - project(x)) <= tol, with the projection rebuilt from the memo.
            return super().contains(x, tol)
        self._require_shape(x)
        # x is PSD with the ascending eigenvalues lam; its distance to the
        # set is the norm of all but the r largest.
        lam = f[0]
        return float(np.linalg.norm(lam[:max(lam.size - self.r, 0)])) <= self._tol(tol)

    def _eig(self, x: Point, tol: float | None, full: bool = False):
        """Ascending eigenvalues of the feasible point x, eigenvectors, and its numerical rank k.

        The last k eigenvectors span the range of x. A point made by this
        set's projection yields its r kept pairs; any other point yields its
        memo (see ``_eigh``). ``full=True`` returns all n pairs, for callers
        that need a basis of the kernel: it reads a memo that already holds
        all n eigenvectors, and otherwise decomposes and leaves one.
        """
        self._require_shape(x)
        t = self._tol(tol)
        f = None if full else _kept(x, "_factors", PsdLowRankSet)
        if f is None:
            M = x.as_array()
            skew = 0.5 * (M - M.T)
            if np.linalg.norm(skew) > t * max(1.0, float(np.linalg.norm(M))):
                self._infeasible(x, "not symmetric")
            w, Q = self._eigh(x, full)
            if w[0] < -t:
                self._infeasible(x, f"negative eigenvalue {w[0]:.3e}")
        else:
            w, Q = f
        k = int(np.count_nonzero(w > t))
        if k > self.r:
            self._infeasible(x, f"numerical rank {k} exceeds {self.r}")
        return w, Q, k

    def _range(self, x: Point, tol: float | None):
        """Orthonormal basis of the range of x (eigenvectors of its k positive eigenvalues) and k."""
        _, Q, k = self._eig(x, tol)
        return Q[:, Q.shape[1] - k:], k

    def stratum_id(self, x: Point, tol: float | None = None) -> int:
        return self._range(x, tol)[1]

    def dist_regular_normal(self, x: Point, v: Point, tol: float | None = None) -> float:
        self._require_shape(v)
        U, k = self._range(x, tol)
        W = _sym(v.as_array())
        # Normal part on the kernel of x: all of P W P there (P the kernel
        # projector) on the top stratum, only its negative part below it.
        B = _ortho_block(W, U, U.T)
        if k < self.r:
            wb, Qb = np.linalg.eigh(_sym(B))
            B = (Qb * np.minimum(wb, 0.0)) @ Qb.T
        return float(np.linalg.norm(W - B))

    def in_general_normal(self, x: Point, v: Point, tol: float | None = None) -> bool:
        self._require_shape(v)
        t = self._tol(tol)
        U, k = self._range(x, tol)
        W = _sym(v.as_array())
        scale = max(1.0, float(np.linalg.norm(v.as_array())))
        if k and np.linalg.norm(W @ U) > t * scale:
            return False
        # P W P (P the kernel projector) vanishes on the range of x, so next
        # to the eigenvalues of W restricted to the kernel it has k zeros.
        wb = np.linalg.eigvalsh(_sym(_ortho_block(W, U, U.T)))
        rank_b = int(np.count_nonzero(abs(wb) > t * scale))
        if rank_b <= self.n - self.r:
            return True
        return bool(wb.max(initial=0.0) <= t * scale)

    def random_point(self, rng: np.random.Generator, stratum: int | None = None) -> Point:
        k = self._pick_stratum(rng, stratum)
        if k == 0:
            return Point.zeros((self.n, self.n))
        Q, _ = np.linalg.qr(rng.standard_normal((self.n, k)))
        lam = rng.uniform(0.5, 1.5, size=k)
        return Point((Q * lam) @ Q.T, (self.n, self.n))

    def sample_regular_normal(self, x: Point, v_rng: np.random.Generator,
                              tol: float | None = None) -> Point:
        _, Q, k = self._eig(x, tol, full=True)
        A = v_rng.standard_normal((self.n, self.n))
        skew = 0.5 * (A - A.T)
        # The sample depends on the kernel basis, so fix its signs.
        U_perp = _fix_gauge(Q[:, :self.n - k])
        G = v_rng.standard_normal((self.n - k, self.n - k))
        if k == self.r:
            B = _sym(G)
        else:
            B = -(G @ G.T) / np.sqrt(self.n - k)
        return Point(skew + U_perp @ B @ U_perp.T, (self.n, self.n))
