"""Correctness checks that recompute with plain numpy what ncpgd reports.

None of them calls the code path it checks: objectives, gradients, Armijo
references, feasibility and regular-normal distances are evaluated here from
the raw arrays. Each check returns a list of problems; empty means passed.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# The sets' own membership tolerance (ncpgd.sets.DEFAULT_TOL), restated so
# the checks do not read it from the package.
SET_TOL = 1e-9
# Replayed inequalities may miss by this share of max(1, |f(x0)|), the slack
# the package's own armijo-postcondition suite grants.
REPLAY_SLACK = 1e-10
# Recomputed values agree with reported ones to this relative error.
MATCH_RTOL = 1e-9
# Recomputed regular-normal distances agree with reported ones to this share
# of the gradient's norm.
DISTANCE_RTOL = 1e-10


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= MATCH_RTOL * max(1.0, abs(scale))


# -- objectives and Armijo replay -------------------------------------------


def objective_values(problem_kind: str, data: dict, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and grad f at each row of X (iterates flattened row-major)."""
    if problem_kind == "sparse":
        R = X @ data["A"].T - data["b"]
        return 0.5 * np.einsum("ij,ij->i", R, R), R @ data["A"]
    if problem_kind in ("lowrank", "psd"):
        flat_mask = data["mask"].reshape(-1)
        R = X[:, flat_mask] - data["observed"]
        G = np.zeros_like(X)
        G[:, flat_mask] = R
        return 0.5 * np.einsum("ij,ij->i", R, R), G
    if problem_kind == "least-squares":
        D = X - np.asarray(data["target"], dtype=float)
        return 0.5 * np.einsum("ij,ij->i", D, D), D
    raise ValueError(f"no objective for {problem_kind!r}")


def reference_values(F: np.ndarray, rule: tuple[str, float]) -> np.ndarray:
    """Armijo reference mu_i of each iterate under ("max", window) or ("avg", weight)."""
    kind, param = rule
    mu = np.empty_like(F)
    prev = F[0]
    for i in range(F.size):
        if kind == "max":
            mu[i] = F[max(0, i - int(param)):i + 1].max()
        else:
            mu[i] = (1.0 - param) * prev + param * F[i]
            prev = mu[i]
    return mu


def replay_steps(X, F_reported, mu_reported, alphas, F, G, c, rule, projected_gradient=True) -> list[str]:
    """Replay every accepted step from the recorded fields.

    Checks that reported f and mu match the recomputed ones, the Armijo
    inequality f(x+) <= mu + c <grad f(x), x+ - x>, and for projected-gradient
    steps the sufficient decrease f(x+) <= mu - c/(2 alpha) ||x+ - x||^2.
    """
    problems = []
    scale = max(1.0, abs(F[0]))
    slack = REPLAY_SLACK * scale
    mu = reference_values(F, rule)
    for i in range(F.size):
        if not _close(F_reported[i], F[i], scale):
            problems.append(f"row {i}: reported f={F_reported[i]!r}, recomputed {F[i]!r}")
        if not _close(mu_reported[i], mu[i], scale):
            problems.append(f"row {i}: reported mu={mu_reported[i]!r}, recomputed {mu[i]!r}")
    for i in range(1, F.size):
        step = X[i] - X[i - 1]
        if F[i] > mu[i - 1] + c * float(G[i - 1] @ step) + slack:
            problems.append(f"step {i}: Armijo inequality fails")
        if projected_gradient:
            alpha = alphas[i]
            if not alpha > 0.0 or F[i] > mu[i - 1] - c / (2.0 * alpha) * float(step @ step) + slack:
                problems.append(f"step {i}: sufficient decrease fails (alpha={alpha!r})")
    return problems


# -- feasibility and regular-normal distances --------------------------------


def _graph_height(t: float) -> float:
    return t ** 0.6 if t > 0.0 else 0.0


def feasible(kind: str, x: np.ndarray, shape, params: dict) -> list[str]:
    if kind == "sparse":
        nnz = int(np.count_nonzero(x))
        return [] if nnz <= params["s"] else [f"{nnz} nonzeros exceed s={params['s']}"]
    if kind == "lowrank":
        sv = np.linalg.svd(x.reshape(shape), compute_uv=False)
        tail = float(np.linalg.norm(sv[params["r"]:]))
        return [] if tail <= SET_TOL * max(1.0, sv[0]) else [f"rank-{params['r']} residual {tail:.3e}"]
    if kind == "psd":
        X = x.reshape(shape)
        scale = max(1.0, float(np.linalg.norm(X)))
        out = []
        if np.linalg.norm(X - X.T) > SET_TOL * scale:
            out.append("not symmetric")
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        if w[0] < -SET_TOL * scale:
            out.append(f"negative eigenvalue {w[0]:.3e}")
        if np.count_nonzero(w > SET_TOL * scale) > params["r"]:
            out.append(f"rank exceeds {params['r']}")
        return out
    if kind in ("curve", "epigraph"):
        t, y = float(x[0]), float(x[1])
        h = _graph_height(t)
        gap = y - h
        ok = abs(gap) <= SET_TOL * max(1.0, abs(h)) if kind == "curve" else gap >= -SET_TOL * max(1.0, abs(h))
        return [] if ok else [f"({t!r}, {y!r}) is off the {kind} by {gap:.3e}"]
    raise ValueError(f"no feasibility check for {kind!r}")


def regular_normal_distance(kind: str, x: np.ndarray, v: np.ndarray, shape, params: dict) -> float:
    """Closed-form distance from v to the regular normal cone at the feasible x."""
    if kind == "sparse":
        support = np.abs(x) > SET_TOL
        if np.count_nonzero(support) == params["s"]:
            return float(np.linalg.norm(v[support]))
        return float(np.linalg.norm(v))
    if kind == "lowrank":
        X, W = x.reshape(shape), v.reshape(shape)
        U, sv, Vt = np.linalg.svd(X, full_matrices=False)
        k = int(np.count_nonzero(sv > SET_TOL))
        if k < params["r"]:
            return float(np.linalg.norm(W))
        U, V = U[:, :k], Vt[:k].T
        PuW = U @ (U.T @ W)
        # P_U W + P_{U-perp} W P_V
        return float(np.linalg.norm(PuW + ((W - PuW) @ V) @ V.T))
    if kind == "psd":
        X, W = x.reshape(shape), v.reshape(shape)
        S = 0.5 * (W + W.T)
        w, Q = np.linalg.eigh(0.5 * (X + X.T))
        k = int(np.count_nonzero(w > SET_TOL))
        K = Q[:, :shape[0] - k]
        B = K.T @ S @ K
        if k < params["r"]:
            wb, Qb = np.linalg.eigh(B)
            B = (Qb * np.minimum(wb, 0.0)) @ Qb.T
        return float(np.linalg.norm(S - K @ B @ K.T))
    if kind in ("curve", "epigraph"):
        t, y = float(x[0]), float(x[1])
        if kind == "epigraph" and y - _graph_height(t) > SET_TOL:
            return float(np.linalg.norm(v))
        if abs(t) <= SET_TOL:
            return kink_distance(v)
        slope = 0.6 * t ** -0.4 if t > 0.0 else 0.0
        if kind == "curve":
            # Smooth point: the normal cone is the line orthogonal to the tangent.
            tangent = np.array([1.0, slope]) / math.hypot(1.0, slope)
            return abs(float(v @ tangent))
        # Boundary point of the epigraph: the normal cone is the outward ray.
        outward = np.array([slope, -1.0]) / math.hypot(slope, 1.0)
        s = float(v @ outward)
        return float(np.linalg.norm(v - max(s, 0.0) * outward))
    raise ValueError(f"no closed form for {kind!r}")


def kink_distance(v: np.ndarray) -> float:
    """Distance from v to the regular normal cone of the curve and of the
    epigraph at the kink: the quadrant v0 >= 0, v1 <= 0."""
    return math.hypot(min(v[0], 0.0), max(v[1], 0.0))


def _stationarity(kind, x, g, shape, params, reported, stationary, stat_tol) -> list[str]:
    d = regular_normal_distance(kind, x, -g, shape, params)
    out = []
    # Both distances come from the same gradient; rounding moves them by a
    # tiny share of its norm.
    if abs(d - reported) > DISTANCE_RTOL * max(1.0, float(np.linalg.norm(g))):
        out.append(f"final regular-normal distance {float(reported)!r} reported, {d!r} recomputed")
    if stationary and d > stat_tol * (1.0 + 1e-6) + 1e-15:
        out.append(f"stationary-at-tol reported but distance is {d!r} > {stat_tol!r}")
    return out


# -- library jobs -------------------------------------------------------------


def _rule_of(cfg, algorithm: str) -> tuple[str, float]:
    if algorithm == "p2gd":
        return ("max", 0)
    rule = cfg.rule
    if hasattr(rule, "window"):
        return ("max", rule.window)
    return ("avg", rule.weight)


def check_job(result) -> list[str]:
    """All checks of one solve-then-certify job of a library workload."""
    problem, trace = result.problem, result.trace
    kind, cfg = problem.kind, problem.cfg
    shape = problem.x0.shape
    params = {"s": getattr(problem.set_, "s", None), "r": getattr(problem.set_, "r", None)}
    X = np.stack([p.data for p in trace.iterates])
    F, G = objective_values(kind, problem.data, X)
    out = replay_steps(X, np.asarray(trace.f_values), np.asarray(trace.mu_values),
                       np.asarray(trace.alphas), F, G, cfg.c, _rule_of(cfg, result.algorithm),
                       projected_gradient=result.algorithm == "pgd")
    out += feasible(kind, X[-1], shape, params)
    out += _stationarity(kind, X[-1], G[-1], shape, params, trace.stat_measures[-1],
                         result.algorithm == "pgd" and trace.termination.value == "stationary-at-tol",
                         cfg.stat_tol)
    if result.algorithm == "pgd" and result.apocalypse is not None and result.apocalypse.flagged:
        out.append("apocalypse flagged on a pgd run")
    return out


# -- cli-certify ---------------------------------------------------------------

TRACE_HEADER = "iter,f,mu,alpha,backtracks,stat_regular,stat_proximal_witness"


def _csv_rows(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def _solve_csv(text: str, expect: dict, stdout: str) -> list[str]:
    header, table = _csv_rows(text)
    dim = len(header) - 7
    want = TRACE_HEADER + "".join(f",x{i}" for i in range(dim))
    if ",".join(header) != want:
        return [f"trace header {','.join(header)!r}, want {want!r}"]
    X = table[:, 7:]
    F, G = objective_values("least-squares", {"target": expect["target"]}, X)
    out = replay_steps(X, table[:, 1], table[:, 2], table[:, 3], F, G, expect["c"],
                       ("max", expect["window"]))
    kind = expect["set"]
    out += feasible(kind, X[-1], (dim,), {"s": 1})
    # The CLI's default stat_tol.
    out += _stationarity(kind, X[-1], G[-1], (dim,), {"s": 1}, table[-1, 5],
                         "termination=stationary-at-tol" in stdout, 1e-8)
    if "final_x" in expect and not np.array_equal(X[-1], np.asarray(expect["final_x"])):
        out.append(f"final iterate {X[-1].tolist()}, want {list(expect['final_x'])}")
    return out


def check_invocation(inv, returncode: int, stdout: str, outputs: dict[str, bytes],
                     reference: dict[str, bytes] | None) -> list[str]:
    """Exit code, output format and content of one CLI run, plus byte identity
    with the first run of the same command line."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    out = []
    if reference is not None:
        for name, data in outputs.items():
            if data != reference.get(name):
                out.append(f"{name} differs from the first run of the same command line")
    expect = inv.expect
    kind = expect["kind"]
    if kind == "solve":
        out += _solve_csv(outputs[inv.outputs[0]].decode(), expect, stdout)
    elif kind == "compare":
        header = outputs[inv.outputs[0]].decode().split("\n", 1)[0]
        want = ("iter," + ",".join(f"{a}_f,{a}_x0,{a}_x1,{a}_t0,{a}_t1" for a in ("pgd", "p2gd")))
        if header != want:
            out.append(f"compare header {header!r}, want {want!r}")
        plot_header = outputs[inv.outputs[1]].decode().split("\n", 1)[0]
        if plot_header != "algorithm,iter,x0,x1,target0,target1":
            out.append(f"plot-data header {plot_header!r}")
        for algorithm, want_flag in expect["flagged"].items():
            m = re.search(rf"^apocalypse {algorithm}: flagged=(true|false)", stdout, re.M)
            if m is None or (m.group(1) == "true") != want_flag:
                out.append(f"apocalypse flag of {algorithm} is not {want_flag}")
    elif kind == "cones":
        v = np.asarray(expect["v"])
        want = kink_distance(v)
        m = re.search(r"^dist-regular-normal: (\S+)$", stdout, re.M)
        if m is None or abs(float(m.group(1)) - want) > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            out.append(f"dist-regular-normal {m.group(1) if m else None}, want {want!r}")
        if not re.search(r"stratum: 0$", stdout, re.M):
            out.append("kink not reported as stratum 0")
    elif kind == "check":
        if not stdout.startswith("suite ") or ": PASS" not in stdout.split("\n", 1)[0]:
            out.append(f"suite did not pass: {stdout.splitlines()[:2]}")
    return out


def accepted_steps(stdout: str) -> int:
    """Accepted solver steps that a CLI run reports on stdout."""
    steps = sum(int(s) for s in re.findall(r"\bsteps=(\d+)", stdout))
    return steps + sum(int(s) for s in re.findall(r"(\d+) accepted steps replayed", stdout))
