"""Independent oracles used to pin expected values in the tests.

Everything here is deliberately brute force (support enumeration, dense
decompositions, grid scans) and never calls back into the code paths it is
used to check.
"""

import itertools

import numpy as np


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
