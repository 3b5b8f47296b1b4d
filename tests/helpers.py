"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately brute force (support enumeration, dense
decompositions, grid scans) and never calls back into the code paths it is
used to check. The module also holds a parser for the CLI's trace CSV.
"""

import csv
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


def memo(x):
    """The decomposition memo of a matrix point as (kind, spectrum, vectors), or None.

    kind is the set class that wrote it, spectrum its singular values or
    eigenvalues, and vectors (U, Vt) for a LowRankSet memo or (Q,) for a
    PsdLowRankSet one. A projection's memo has a spectrum shorter than
    min(x.shape).
    """
    m = getattr(x, "_memo", None)
    if m is None:
        return None
    kind, *arrays = m
    if len(arrays) == 3:
        U, s, Vt = arrays
        return kind, s, (U, Vt)
    w, Q = arrays
    return kind, w, (Q,)


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

    The reference for both witness queries, written out step by step apart
    from the library: proximal_normal_witness must return its answer on
    WITNESS_ALPHA_GRID, and in_proximal_normal_witness whether that answer is
    not None. Over the reversed grid it returns the smallest certifying step.
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


# -- plain-numpy replays of the solvers on the sparse sets ---------------------
#
# Textbook loops over bare arrays for f(x) = 0.5 * ||A x - b||^2 on
# {x : ||x||_0 <= s}, or with nonneg=True on {x >= 0 : ||x||_0 <= s}. They
# evaluate f, the gradient, the projection and the Armijo test in the same
# floating-point order as the library, so a replay must match a library run
# exactly (==), not merely to a tolerance.


def _ls_value(A, b, x):
    r = A @ x - b
    return 0.5 * float(r @ r)


def _ls_grad(A, b, x):
    return A.T @ (A @ x - b)


def _project(z, s, nonneg):
    # Keep the s largest magnitudes of z, clamped at 0 first on the
    # nonnegative set; ties go to the smallest index.
    if nonneg:
        z = np.maximum(z, 0.0)
    keep = np.argsort(-np.abs(z), kind="stable")[:s]
    y = np.zeros(z.size)
    y[keep] = z[keep]
    return y


def _tangent(v, support, s, nonneg):
    # v on the support, plus the largest magnitudes of v off it (clamped at 0
    # on the nonnegative set) up to s entries; ties go to the smallest index.
    w = np.maximum(v, 0.0) if nonneg else v
    d = np.zeros(v.size)
    d[support] = v[support]
    free = s - support.size
    if free > 0:
        mag = np.abs(w)
        mag[support] = -np.inf
        keep = np.argsort(-mag, kind="stable")[:free]
        d[keep] = w[keep]
    return d


def _support(x, tol):
    return np.flatnonzero(np.abs(x) > tol)


def _regular_distance(x, v, s, tol, nonneg=False):
    support = _support(x, tol)
    if not nonneg:
        return float(np.linalg.norm(v[support] if support.size == s else v))
    # Unconstrained off the support at the top stratum; below it, normals are
    # nonpositive there, so only the positive part of v off the support counts.
    on = float(v[support] @ v[support])
    if support.size == s:
        return math.sqrt(on)
    off = np.ones(x.size, dtype=bool)
    off[support] = False
    pos = np.maximum(v[off], 0.0)
    return math.sqrt(on + pos @ pos)


def _backtrack(A, b, s, x, g, d, mu, alpha, beta, c, max_backtracks, nonneg):
    """(y, f(y), alpha, backtracks) of the first Armijo trial, or None."""
    k = 0
    while True:
        y = _project(x + alpha * d, s, nonneg)
        fy = _ls_value(A, b, y)
        if fy <= mu + c * float(g @ (y - x)):
            return y, fy, alpha, k
        if k >= max_backtracks:
            return None
        alpha *= beta
        k += 1


def replay_sparse_pgd(A, b, s, x0, *, alpha, beta, c, window=None, weight=None,
                      stat_tol, max_iters, max_backtracks, tol=1e-9, nonneg=False):
    """pgd with the max rule (window) or the average rule (weight); returns the trace columns."""
    xs, fs, alphas, bts, mus, stats = [x0], [_ls_value(A, b, x0)], [math.nan], [0], [], []
    mu = fs[0]
    i = 0
    while True:
        x = xs[i]
        g = _ls_grad(A, b, x)
        stats.append(_regular_distance(x, -g, s, tol, nonneg))
        if window is not None:
            mu = max(fs[max(0, i - window):i + 1])
        else:
            mu = (1.0 - weight) * mu + weight * fs[i]
        mus.append(mu)
        if stats[-1] <= stat_tol:
            return xs, fs, mus, alphas, bts, stats, "stationary-at-tol"
        if i >= max_iters:
            return xs, fs, mus, alphas, bts, stats, "max-iters"
        step = _backtrack(A, b, s, x, g, -g, mu, alpha, beta, c, max_backtracks, nonneg)
        if step is None:
            return xs, fs, mus, alphas, bts, stats, "backtrack-failure"
        for col, val in zip((xs, fs, alphas, bts), step):
            col.append(val)
        i += 1


def replay_sparse_p2gd(A, b, s, x0, *, alpha, beta, c, stat_tol, max_iters, max_backtracks,
                       tol=1e-9, nonneg=False):
    """p2gd: monotone Armijo search along the tangent-cone projection of -grad."""
    xs, fs, alphas, bts, mus, stats = [x0], [_ls_value(A, b, x0)], [math.nan], [0], [], []
    i = 0
    while True:
        x, fx = xs[i], fs[i]
        g = _ls_grad(A, b, x)
        v = -g
        d = _tangent(v, _support(x, tol), s, nonneg)
        stats.append(_regular_distance(x, v, s, tol, nonneg))
        mus.append(fx)
        if np.linalg.norm(d) <= stat_tol:
            return xs, fs, mus, alphas, bts, stats, "stationary-at-tol"
        if i >= max_iters:
            return xs, fs, mus, alphas, bts, stats, "max-iters"
        step = _backtrack(A, b, s, x, g, d, fx, alpha, beta, c, max_backtracks, nonneg)
        if step is None:
            return xs, fs, mus, alphas, bts, stats, "backtrack-failure"
        for col, val in zip((xs, fs, alphas, bts), step):
            col.append(val)
        i += 1


def read_trace_csv(path: str) -> dict[str, list]:
    """Parse a trace that `ncpgd solve` wrote back into columns of floats/ints."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                if name in ("iter", "backtracks", "stat_proximal_witness"):
                    columns[name].append(int(cell))
                else:
                    columns[name].append(float(cell))
    return columns
