"""Seeded inputs and jobs of the three benchmark workloads.

A job is "solve, then certify". The library workloads call ncpgd in
process; cli-certify describes command lines that run.py starts as fresh
interpreters. Every input is generated here from the seed; ncpgd receives
only the generated data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

import ncpgd
from ncpgd import analysis, solver

# sparse-iht: compressed sensing with a planted s-sparse signal.
SPARSE_N, SPARSE_S, SPARSE_ROWS, SPARSE_POOL = 200, 10, 100, 48
# Iteration budget: pgd reaches stat_tol within it on most instances; p2gd,
# whose iteration count has a heavy tail (a few percent of instances run to
# 1000), mostly stops on it. The budget bounds how much one instance can
# move the workload's figures.
SPARSE_BUDGET = 60
# Jobs cycle through this pattern; the fourth runs the p2gd baseline.
SPARSE_PATTERN = (("pgd", ncpgd.MaxRule(0)), ("pgd", ncpgd.MaxRule(5)),
                  ("pgd", ncpgd.AverageRule(0.5)), ("p2gd", ncpgd.MaxRule(0)))

# lowrank-recovery: matrix completion from ~30% of the entries. Three cheap
# psd jobs per 200x200 job put job_ms_p50 inside the psd mode and the tail
# percentile inside the lowrank mode, away from the gap between them.
LOWRANK_SHAPE, PSD_N, RANK, OBSERVED = (200, 200), 100, 5, 0.3
LOWRANK_POOL, PSD_POOL = 3, 6
LOWRANK_PATTERN = ("psd", "psd", "psd", "lowrank")
# A fixed iteration budget that the runs reach before stat_tol keeps the
# cost of a job independent of the instance, so the figures are steady
# across seeds.
LOWRANK_BUDGET = 20

# cli-certify: iteration budget of the seeded curve and epigraph solves.
CURVE_BUDGET = 50


@dataclass
class Problem:
    kind: str
    set_: object
    obj: ncpgd.Objective
    x0: ncpgd.Point
    cfg: ncpgd.SolverConfig
    # Plain-numpy data the correctness checks use instead of obj.
    data: dict = field(default_factory=dict)


@dataclass
class JobResult:
    key: str
    problem: Problem
    algorithm: str
    trace: ncpgd.Trace
    report: ncpgd.StationarityReport
    apocalypse: ncpgd.ApocalypseFlag | None

    @property
    def iters(self) -> int:
        return len(self.trace) - 1


def _least_squares_objective(A: np.ndarray, b: np.ndarray) -> ncpgd.Objective:
    def ev(x):
        r = A @ x.data - b
        return 0.5 * float(r @ r)

    def gr(x):
        return ncpgd.Point(A.T @ (A @ x.data - b), x.shape)

    return ncpgd.Objective(ev, gr, name="compressed-sensing")


def _completion_objective(mask: np.ndarray, observed: np.ndarray) -> ncpgd.Objective:
    def ev(x):
        r = x.as_array()[mask] - observed
        return 0.5 * float(r @ r)

    def gr(x):
        g = np.zeros(x.shape)
        g[mask] = x.as_array()[mask] - observed
        return ncpgd.Point(g, x.shape)

    return ncpgd.Objective(ev, gr, name="matrix-completion")


def _sparse_problem(rng: np.random.Generator) -> Problem:
    A = rng.standard_normal((SPARSE_ROWS, SPARSE_N)) / np.sqrt(SPARSE_ROWS)
    x_true = np.zeros(SPARSE_N)
    x_true[rng.choice(SPARSE_N, SPARSE_S, replace=False)] = rng.standard_normal(SPARSE_S)
    b = A @ x_true
    return Problem("sparse", ncpgd.SparseSet(SPARSE_N, SPARSE_S), _least_squares_objective(A, b),
                   ncpgd.Point.zeros((SPARSE_N,)), _sparse_config(ncpgd.MaxRule(0)), {"A": A, "b": b})


def _sparse_config(rule) -> ncpgd.SolverConfig:
    return ncpgd.SolverConfig(alpha_min=1e-4, alpha_max=1.0, rule=rule, stat_tol=1e-8,
                              max_iters=SPARSE_BUDGET)


def _completion_problem(rng: np.random.Generator, kind: str) -> Problem:
    if kind == "lowrank":
        m, n = LOWRANK_SHAPE
        M = rng.standard_normal((m, RANK)) @ rng.standard_normal((RANK, n)) / np.sqrt(RANK)
        mask = rng.random((m, n)) < OBSERVED
        set_, alpha = ncpgd.LowRankSet(m, n, RANK), 3.0
    else:
        G = rng.standard_normal((PSD_N, RANK))
        M = G @ G.T / np.sqrt(RANK)
        upper = np.triu(rng.random((PSD_N, PSD_N)) < OBSERVED)
        mask = upper | upper.T
        set_, alpha = ncpgd.PsdLowRankSet(PSD_N, RANK), 2.5
    observed = M[mask]
    cfg = ncpgd.SolverConfig(alpha_min=1e-4, alpha_max=alpha, rule=ncpgd.MaxRule(0),
                             stat_tol=1e-6, max_iters=LOWRANK_BUDGET)
    return Problem(kind, set_, _completion_objective(mask, observed),
                   ncpgd.Point.zeros(M.shape), cfg, {"mask": mask, "observed": observed})


class LibraryWorkload:
    """A pool of seeded problems and the job sequence that cycles over it."""

    def __init__(self, name: str, seed: int):
        rng = np.random.default_rng(seed)
        self.name = name
        self.cycle = len(SPARSE_PATTERN) if name == "sparse-iht" else len(LOWRANK_PATTERN)
        if name == "sparse-iht":
            base = [_sparse_problem(rng) for _ in range(SPARSE_POOL)]
            # Every rule sees the same instances.
            self.pools = {slot: [replace(p, cfg=_sparse_config(rule)) for p in base]
                          for slot, (_, rule) in enumerate(SPARSE_PATTERN)}
        elif name == "lowrank-recovery":
            self.pools = {"lowrank": [_completion_problem(rng, "lowrank") for _ in range(LOWRANK_POOL)],
                          "psd": [_completion_problem(rng, "psd") for _ in range(PSD_POOL)]}
        else:
            raise ValueError(f"unknown library workload {name!r}")

    def job(self, k: int) -> tuple[Problem, str, str]:
        """Problem, algorithm and key of job k; jobs with one key have the same inputs."""
        if self.name == "sparse-iht":
            slot, cycle = k % self.cycle, k // self.cycle
            index = cycle % SPARSE_POOL
            return self.pools[slot][index], SPARSE_PATTERN[slot][0], f"sparse-{slot}-{index}"
        cycle, slot = divmod(k, self.cycle)
        if LOWRANK_PATTERN[slot] == "lowrank":
            index = cycle % LOWRANK_POOL
            return self.pools["lowrank"][index], "pgd", f"lowrank-{index}"
        index = (cycle * LOWRANK_PATTERN.count("psd") + slot) % PSD_POOL
        return self.pools["psd"][index], "pgd", f"psd-{index}"

    def run(self, k: int) -> JobResult:
        """Solve, then certify: classify the final iterate. p2gd runs and the
        200x200 pgd runs are also screened for the apocalypse, which must not
        flag pgd."""
        problem, algorithm, key = self.job(k)
        # Look the entry points up on their modules at call time, so that a
        # traced run sees the wrapped bindings.
        if algorithm == "pgd":
            trace = solver.pgd(problem.set_, problem.obj, problem.x0, problem.cfg)
        else:
            trace = solver.p2gd(problem.set_, problem.obj, problem.x0, problem.cfg)
        tol = 10.0 * problem.cfg.stat_tol
        report = analysis.classify_stationarity(problem.set_, problem.obj, trace.final(), tol=tol)
        flag = None
        if algorithm == "p2gd" or problem.kind == "lowrank":
            flag = analysis.detect_apocalypse(problem.set_, problem.obj, trace, tol=tol)
        return JobResult(key, problem, algorithm, trace, report, flag)


# -- cli-certify ---------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One `python -m ncpgd.cli` command line and what its outputs must show."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict, hash=False)


def _num(x: float) -> str:
    return repr(float(x))


def _graph_height(t: float) -> float:
    return t ** 0.6 if t > 0.0 else 0.0


def cli_invocations(seed: int) -> list[Invocation]:
    """The command cycle of cli-certify; curve/epigraph inputs come from the seed."""
    rng = np.random.default_rng(seed)
    readme_solve = ("solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
                    "--x0", "0,1", "--alpha-min", "1", "--alpha-max", "1", "--c", "0.4",
                    "--rule", "max:l=0", "--out", "readme-solve.csv")
    readme_compare = ("compare", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
                      "--x0", "0,1", "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05",
                      "--out", "readme-compare.csv", "--emit-plot-data", "readme-arrows.csv")
    invocations = [
        Invocation("readme-solve", readme_solve, ("readme-solve.csv",),
                   {"kind": "solve", "set": "sparse", "target": (1.0, 0.0), "c": 0.4, "window": 0,
                    "final_x": (1.0, 0.0)}),
        Invocation("readme-compare", readme_compare, ("readme-compare.csv", "readme-arrows.csv"),
                   {"kind": "compare", "flagged": {"pgd": False, "p2gd": True}}),
    ]
    for kind in ("curve", "epigraph"):
        t = rng.uniform(-2.0, 2.0)
        lift = rng.exponential(0.5) if kind == "epigraph" else 0.0
        x0 = (t, _graph_height(t) + lift)
        target = tuple(rng.standard_normal(2))
        out = f"{kind}-solve.csv"
        # The CLI's default step: a unit step on a least-squares objective
        # lands on the projection of the target at once. Where the computed
        # projection leaves a residual above stat_tol (about one solve in
        # twenty), the solve repeats that step until max_iters; the run
        # record counts those solves. The budget, instead of the CLI's 1000,
        # keeps the seeds that draw such a solve from doubling iters_per_s.
        argv = ("solve", "--set", kind, "--objective",
                f"least-squares:target={_num(target[0])},{_num(target[1])}",
                f"--x0={_num(x0[0])},{_num(x0[1])}", "--max-iters", str(CURVE_BUDGET), "--out", out)
        invocations.append(Invocation(f"{kind}-solve", argv, (out,),
                                      {"kind": "solve", "set": kind, "target": target,
                                       "c": 1e-4, "window": 0}))
    v = tuple(rng.standard_normal(2))
    invocations.append(Invocation("cones-kink", ("cones", "--set", "curve", "--x", "0,0",
                                                 f"--v={_num(v[0])},{_num(v[1])}"),
                                  expect={"kind": "cones", "v": v}))
    # The suites run as the README shows them, on their default seed: their
    # step counts swing by a factor of seven between seeds.
    invocations.append(Invocation("check-prox", ("check", "--suite", "prox-equals-regular",
                                                 "--trials", "1"),
                                  expect={"kind": "check"}))
    invocations.append(Invocation("check-armijo", ("check", "--suite", "armijo-postcondition",
                                                   "--trials", "6"),
                                  expect={"kind": "check"}))
    return invocations
