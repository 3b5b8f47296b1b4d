"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately brute force (support enumeration, dense
decompositions, grid scans) and never calls back into the code paths it is
used to check.
"""

import itertools
import math

import numpy as np

from ncpgd import norm


def sparse_bruteforce(z: np.ndarray, s: int):
    """Best distance and all minimizers over every support pattern."""
    n = z.size
    candidates = []
    for support in itertools.combinations(range(n), s):
        y = np.zeros(n)
        idx = list(support)
        y[idx] = z[idx]
        candidates.append((float(np.linalg.norm(z - y)), y))
    best = min(d for d, _ in candidates)
    return best, [y for d, y in candidates if d <= best + 1e-12]


def nonneg_sparse_bruteforce(z: np.ndarray, s: int):
    n = z.size
    candidates = []
    for support in itertools.combinations(range(n), s):
        y = np.zeros(n)
        idx = list(support)
        y[idx] = np.maximum(z[idx], 0.0)
        candidates.append((float(np.linalg.norm(z - y)), y))
    best = min(d for d, _ in candidates)
    return best, [y for d, y in candidates if d <= best + 1e-12]


def svd_truncation(M: np.ndarray, r: int) -> np.ndarray:
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U[:, :r] * s[:r]) @ Vt[:r]


def psd_truncation(M: np.ndarray, r: int) -> np.ndarray:
    S = 0.5 * (M + M.T)
    w, Q = np.linalg.eigh(S)
    lam = np.maximum(w[-r:], 0.0)
    return (Q[:, -r:] * lam) @ Q[:, -r:].T


def graph_height(t: float) -> float:
    return t ** 0.6 if t > 0.0 else 0.0


def graph_min_distance(p: np.ndarray, grid: int = 400001) -> float:
    """Dense-grid lower bound on the distance from p to the kinked graph."""
    radius = 2.0 * float(np.hypot(p[0], p[1])) + 1.0
    ts = np.linspace(-radius, radius, grid)
    heights = np.where(ts > 0.0, np.power(np.maximum(ts, 0.0), 0.6), 0.0)
    d2 = (ts - p[0]) ** 2 + (heights - p[1]) ** 2
    return float(np.sqrt(d2.min()))


def graph_min_distance_scaled(p: np.ndarray, grid: int = 400001) -> float:
    """graph_min_distance in units of S = max(1, |p|), so it stays finite at any scale.

    The grid covers t in [-2S, 2S]; every quantity is divided by S before it
    is squared or summed.
    """
    scale = max(1.0, float(np.hypot(p[0], p[1])))
    taus = np.linspace(-2.0, 2.0, grid)
    heights = np.where(taus > 0.0, np.power(np.maximum(taus, 0.0) * scale, 0.6) / scale, 0.0)
    return scale * float(np.hypot(taus - p[0] / scale, heights - p[1] / scale).min())


def witness_scan(set_, x, v, alphas, tol=None):
    """The linear scan over the step grid: the first certifying step, in grid order.

    The reference for proximal_normal_witness, which finds the same step by
    bisection: up to len(alphas) projections against its at most
    2 + ceil(log2(len(alphas) - 1)).
    """
    tol = set_.tol if tol is None else float(tol)
    nv = norm(v)
    alphas = tuple(float(a) for a in alphas)
    if not all(a > 0.0 for a in alphas):
        raise ValueError("witness step lengths must be positive")
    if not alphas:
        return None
    if nv == 0.0:
        return alphas[0]
    for a in alphas:
        z = x + a * v
        y = set_.project(z)
        gap = a * nv - norm(z - y)
        if gap <= tol * a * max(1.0, nv):
            return a
    return None


# -- plain-numpy replays of the solvers on the sparse set ----------------------
#
# Textbook loops over bare arrays for f(x) = 0.5 * ||A x - b||^2 on
# {x : ||x||_0 <= s}. They evaluate f, the gradient, the projection and the
# Armijo test in the same floating-point order as the library, so a replay
# must match a library run exactly (==), not merely to a tolerance.


def _ls_value(A, b, x):
    r = A @ x - b
    return 0.5 * float(r @ r)


def _ls_grad(A, b, x):
    return A.T @ (A @ x - b)


def _hard_threshold(z, s):
    # Keep the s largest magnitudes; ties go to the smallest index.
    keep = np.argsort(-np.abs(z), kind="stable")[:s]
    y = np.zeros(z.size)
    y[keep] = z[keep]
    return y


def _sparse_tangent(v, support, s):
    # v on the support, plus the largest magnitudes of v off it up to s
    # entries; ties go to the smallest index.
    d = np.zeros(v.size)
    d[support] = v[support]
    free = s - support.size
    if free > 0:
        mag = np.abs(v)
        mag[support] = -np.inf
        keep = np.argsort(-mag, kind="stable")[:free]
        d[keep] = v[keep]
    return d


def _support(x, tol):
    return np.flatnonzero(np.abs(x) > tol)


def _regular_distance(x, v, s, tol):
    support = _support(x, tol)
    return float(np.linalg.norm(v[support] if support.size == s else v))


def _backtrack(A, b, s, x, g, d, mu, alpha, beta, c, max_backtracks):
    """(y, f(y), alpha, backtracks) of the first Armijo trial, or None."""
    k = 0
    while True:
        y = _hard_threshold(x + alpha * d, s)
        fy = _ls_value(A, b, y)
        if fy <= mu + c * float(g @ (y - x)):
            return y, fy, alpha, k
        if k >= max_backtracks:
            return None
        alpha *= beta
        k += 1


def replay_sparse_pgd(A, b, s, x0, *, alpha, beta, c, window=None, weight=None,
                      stat_tol, max_iters, max_backtracks, tol=1e-9):
    """pgd with the max rule (window) or the average rule (weight); returns the trace columns."""
    xs, fs, alphas, bts, mus, stats = [x0], [_ls_value(A, b, x0)], [math.nan], [0], [], []
    mu = fs[0]
    i = 0
    while True:
        x = xs[i]
        g = _ls_grad(A, b, x)
        stats.append(_regular_distance(x, -g, s, tol))
        if window is not None:
            mu = max(fs[max(0, i - window):i + 1])
        else:
            mu = (1.0 - weight) * mu + weight * fs[i]
        mus.append(mu)
        if stats[-1] <= stat_tol:
            return xs, fs, mus, alphas, bts, stats, "stationary-at-tol"
        if i >= max_iters:
            return xs, fs, mus, alphas, bts, stats, "max-iters"
        step = _backtrack(A, b, s, x, g, -g, mu, alpha, beta, c, max_backtracks)
        if step is None:
            return xs, fs, mus, alphas, bts, stats, "backtrack-failure"
        for col, val in zip((xs, fs, alphas, bts), step):
            col.append(val)
        i += 1


def replay_sparse_p2gd(A, b, s, x0, *, alpha, beta, c, stat_tol, max_iters, max_backtracks,
                       tol=1e-9):
    """p2gd: monotone Armijo search along the tangent-cone projection of -grad."""
    xs, fs, alphas, bts, mus, stats = [x0], [_ls_value(A, b, x0)], [math.nan], [0], [], []
    i = 0
    while True:
        x, fx = xs[i], fs[i]
        g = _ls_grad(A, b, x)
        v = -g
        d = _sparse_tangent(v, _support(x, tol), s)
        stats.append(_regular_distance(x, v, s, tol))
        mus.append(fx)
        if np.linalg.norm(d) <= stat_tol:
            return xs, fs, mus, alphas, bts, stats, "stationary-at-tol"
        if i >= max_iters:
            return xs, fs, mus, alphas, bts, stats, "max-iters"
        step = _backtrack(A, b, s, x, g, d, fx, alpha, beta, c, max_backtracks)
        if step is None:
            return xs, fs, mus, alphas, bts, stats, "backtrack-failure"
        for col, val in zip((xs, fs, alphas, bts), step):
            col.append(val)
        i += 1
