"""Spans around ncpgd's public entry points, recorded from outside the package.

A `Tracer` keeps every span in memory as five flat arrays (name, parent,
job, start, end). `install` wraps the entry points of each layer and returns
the `Patches` that undo it; nothing inside ``src/`` is edited. `Spans` turns
the arrays into self times, per-layer metrics and the counter identities
that tie the spans to the solver's public `Trace`.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public query methods of every shipped set class.
SET_METHODS = ("project", "contains", "stratum_id", "dist_regular_normal",
               "dist_proximal_normal", "in_proximal_normal", "in_general_normal",
               "project_tangent", "random_point", "sample_regular_normal")

CURVE_CLASSES = ("CurveSet", "EpigraphSet")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        # (span index, algorithm, len(trace), sum(backtracks), termination)
        self.solver_calls: list[tuple] = []
        # (span index, certificate found)
        self.witness_calls: list[tuple[int, bool]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_return is not None:
                on_return(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> "Spans":
        return Spans(list(self.names), np.frombuffer(self.name, dtype=np.int32).copy(),
                     np.frombuffer(self.parent, dtype=np.int32).copy(),
                     np.frombuffer(self.job, dtype=np.int32).copy(),
                     np.frombuffer(self.start, dtype=np.float64).copy(),
                     np.frombuffer(self.end, dtype=np.float64).copy(),
                     list(self.solver_calls), list(self.witness_calls))


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def install(tracer: Tracer) -> Patches:
    """Wrap the public entry points of core, sets, solver, analysis and cli."""
    import ncpgd
    from ncpgd import analysis, cli, core, sets, solver

    patches = Patches()

    def wrap_bindings(modules, attr, name, on_return=None):
        fn = getattr(modules[0], attr)
        traced = tracer.wrap(fn, name, on_return)
        for mod in modules:
            if getattr(mod, attr) is fn:
                patches.set(mod, attr, traced)

    def record_solver(algorithm):
        def on_return(idx, trace):
            tracer.solver_calls.append((idx, algorithm, len(trace), int(sum(trace.backtrack_counts)),
                                        trace.termination.value))
        return on_return

    patches.set(core.Point, "__init__", tracer.wrap(core.Point.__init__, "core.point_new"))
    patches.set(core.Objective, "eval", tracer.wrap(core.Objective.eval, "core.eval"))
    patches.set(core.Objective, "grad", tracer.wrap(core.Objective.grad, "core.grad"))

    for cls in (sets.SparseSet, sets.NonnegSparseSet, sets.LowRankSet, sets.PsdLowRankSet,
                sets.CurveSet, sets.EpigraphSet):
        for method in SET_METHODS:
            patches.set(cls, method, tracer.wrap(getattr(cls, method), f"sets.{method}[{cls.__name__}]"))

    # Only the bindings in solver, analysis and cli: in_proximal_normal_witness
    # calls the sets.base binding, which must stay unwrapped so one
    # certificate is one span.
    for mod in (solver, analysis, cli):
        patches.set(mod, "proximal_normal_witness",
                    tracer.wrap(mod.proximal_normal_witness, "sets.witness",
                                lambda idx, alpha: tracer.witness_calls.append((idx, alpha is not None))))
    patches.set(cli, "in_proximal_normal_witness",
                tracer.wrap(cli.in_proximal_normal_witness, "sets.witness",
                            lambda idx, ok: tracer.witness_calls.append((idx, bool(ok)))))

    patches.set(solver, "pgd_map", tracer.wrap(solver.pgd_map, "solver.pgd_map"))
    wrap_bindings((solver, cli, ncpgd), "pgd", "solver.pgd", record_solver("pgd"))
    wrap_bindings((solver, cli, ncpgd), "p2gd", "solver.p2gd", record_solver("p2gd"))

    wrap_bindings((analysis, cli, ncpgd), "classify_stationarity", "analysis.classify")
    wrap_bindings((analysis, cli, ncpgd), "detect_apocalypse", "analysis.apocalypse")
    wrap_bindings((analysis, ncpgd), "stationarity_measure_series", "analysis.series")

    patches.set(sets, "from_spec", tracer.wrap(sets.from_spec, "cli.parse"))
    for attr in ("build_parser", "read_config_file", "merge_spec", "parse_point_field",
                 "parse_objective_field", "parse_rule_field", "build_solver_config"):
        patches.set(cli, attr, tracer.wrap(getattr(cli, attr), "cli.parse"))
    for attr in ("write_trace_csv", "write_compare_csv", "write_plot_data_csv"):
        patches.set(cli, attr, tracer.wrap(getattr(cli, attr), "cli.csv_write"))
    patches.set(cli, "_witness_flags", tracer.wrap(cli._witness_flags, "cli.witness_column"))
    for attr in ("main", "cmd_solve", "cmd_compare", "cmd_cones", "cmd_check"):
        patches.set(cli, attr, tracer.wrap(getattr(cli, attr), "cli.main"))
    return patches


class Spans:
    """Recorded spans as arrays, with self times and per-layer aggregates."""

    def __init__(self, names, name, parent, job, start, end, solver_calls, witness_calls):
        self.names = names
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = end
        self.solver_calls = solver_calls
        self.witness_calls = witness_calls

    def __len__(self):
        return int(self.name.size)

    # -- persistence ------------------------------------------------------

    def save(self, path: str, **extra):
        np.savez(path, name=self.name, parent=self.parent, job=self.job, start=self.start,
                 end=self.end, meta=np.array(json.dumps({
                     "names": self.names, "solver_calls": self.solver_calls,
                     "witness_calls": self.witness_calls, **extra})))

    @classmethod
    def load(cls, path: str) -> tuple["Spans", dict]:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            spans = cls(meta.pop("names"), data["name"], data["parent"], data["job"],
                        data["start"], data["end"],
                        [tuple(c) for c in meta.pop("solver_calls")],
                        [tuple(c) for c in meta.pop("witness_calls")])
        return spans, meta

    @classmethod
    def concat(cls, parts: list["Spans"], jobs: list[int]) -> "Spans":
        """Join the spans of separate processes; part i becomes job jobs[i]."""
        ids: dict[str, int] = {}
        arrays = {k: [] for k in ("name", "parent", "job", "start", "end")}
        solver_calls, witness_calls = [], []
        offset = 0
        for part, job in zip(parts, jobs):
            remap = np.array([ids.setdefault(n, len(ids)) for n in part.names] or [0], dtype=np.int32)
            arrays["name"].append(remap[part.name])
            arrays["parent"].append(np.where(part.parent >= 0, part.parent + offset, -1).astype(np.int32))
            arrays["job"].append(np.full(len(part), job, dtype=np.int32))
            arrays["start"].append(part.start)
            arrays["end"].append(part.end)
            solver_calls += [(idx + offset, *rest) for idx, *rest in part.solver_calls]
            witness_calls += [(idx + offset, hit) for idx, hit in part.witness_calls]
            offset += len(part)
        joined = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in arrays.items()}
        return cls(list(ids), joined["name"].astype(np.int32), joined["parent"].astype(np.int32),
                   joined["job"].astype(np.int32), joined["start"].astype(float),
                   joined["end"].astype(float), solver_calls, witness_calls)

    # -- derived quantities ----------------------------------------------

    def select(self, predicate) -> np.ndarray:
        """Boolean mask of the spans whose name satisfies predicate."""
        ids = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(self.name, np.array(ids, dtype=np.int32))

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by direct children (spans nest)."""
        dur = self.end - self.start
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=len(self))
        return dur - covered

    def children_count(self, child_mask: np.ndarray) -> np.ndarray:
        """Per span, how many direct children satisfy child_mask."""
        sel = child_mask & (self.parent >= 0)
        return np.bincount(self.parent[sel], minlength=len(self))

    def identity_violations(self) -> list[tuple[int, str]]:
        """Check the tracer against each solver call's public Trace.

        pgd: pgd_map spans = len(trace) - 1 (+1 after a backtrack failure), and
        for runs that did not fail, projections inside pgd_map spans =
        (len(trace) - 1) + sum(backtrack_counts). p2gd: grad calls directly
        inside its span = len(trace).
        """
        is_map = self.select(lambda n: n == "solver.pgd_map")
        proj_per_span = self.children_count(self.select(lambda n: n.startswith("sets.project[")))
        maps_per_span = self.children_count(is_map)
        sel = is_map & (self.parent >= 0)
        proj_in_maps = np.bincount(self.parent[sel], weights=proj_per_span[sel], minlength=len(self))
        grads_per_span = self.children_count(self.select(lambda n: n == "core.grad"))
        out = []
        for idx, algorithm, length, backtracks, termination in self.solver_calls:
            failed = termination == "backtrack-failure"
            if algorithm == "pgd":
                want_maps = length - 1 + (1 if failed else 0)
                if maps_per_span[idx] != want_maps:
                    out.append((idx, f"pgd span {idx}: {maps_per_span[idx]} pgd_map spans, want {want_maps}"))
                if not failed and proj_in_maps[idx] != length - 1 + backtracks:
                    out.append((idx, f"pgd span {idx}: {int(proj_in_maps[idx])} projections in "
                                     f"pgd_map, want {length - 1 + backtracks}"))
            elif grads_per_span[idx] != length:
                out.append((idx, f"p2gd span {idx}: {grads_per_span[idx]} grad calls, want {length}"))
        return out

    def layer_metrics(self, n_jobs: int, job_seconds: float, import_ms: float) -> dict[str, float]:
        """Per-layer metrics; shares are of the summed wall time of the jobs."""
        own = self.self_times()
        dur = self.end - self.start

        def mask(prefix):
            return self.select(lambda n: n == prefix or n.startswith(prefix + "["))

        def count(prefix):
            return int(np.count_nonzero(mask(prefix)))

        def self_share(*prefixes):
            m = np.zeros(len(self), dtype=bool)
            for p in prefixes:
                m |= self.select(lambda n, p=p: n == p or n.startswith(p + "[") or n.startswith(p + "."))
            return float(own[m].sum()) / job_seconds

        def per(a, b):
            return float(a) / b if b else 0.0

        iters = sum(length - 1 for _, _, length, _, _ in self.solver_calls)
        is_project = mask("sets.project")
        is_map = mask("solver.pgd_map")
        proj_children = self.children_count(is_project)
        trials = int(proj_children[is_map].sum())
        trials += int(sum(proj_children[idx] for idx, alg, *_ in self.solver_calls if alg == "p2gd"))
        is_witness = mask("sets.witness")
        n_witness = int(np.count_nonzero(is_witness))
        hits = sum(1 for _, hit in self.witness_calls if hit)
        curve_project = self.select(lambda n: n in {f"sets.project[{c}]" for c in CURVE_CLASSES})
        return {
            "core.eval.calls_per_iter": per(count("core.eval"), iters),
            "core.grad.calls_per_iter": per(count("core.grad"), iters),
            "core.point_new.per_iter": per(count("core.point_new"), iters),
            "core.self_share": self_share("core"),
            "sets.project.calls_per_iter": per(count("sets.project"), iters),
            "sets.project.us_per_call": 1e6 * per(dur[is_project].sum(), count("sets.project")),
            "sets.project.self_share": self_share("sets.project"),
            "sets.contains.self_share": self_share("sets.contains"),
            "sets.stratum_id.self_share": self_share("sets.stratum_id"),
            "sets.dist_regular_normal.us_per_call":
                1e6 * per(dur[mask("sets.dist_regular_normal")].sum(), count("sets.dist_regular_normal")),
            "sets.dist_regular_normal.self_share": self_share("sets.dist_regular_normal"),
            "sets.project_tangent.self_share": self_share("sets.project_tangent"),
            "sets.in_general_normal.self_share": self_share("sets.in_general_normal"),
            "sets.witness.calls_per_job": per(n_witness, n_jobs),
            "sets.witness.projections_per_call": per(proj_children[is_witness].sum(), n_witness),
            "sets.witness.hit_ratio": per(hits, n_witness),
            "sets.witness.self_share": self_share("sets.witness"),
            "sets.curve_project.share": float(dur[curve_project].sum()) / job_seconds,
            "solver.iters_per_job": per(iters, n_jobs),
            "solver.trials_per_iter": per(trials, iters),
            "solver.armijo.accept_ratio": per(iters, trials),
            "solver.pgd_map.self_share": self_share("solver.pgd_map"),
            "solver.loop.self_share": self_share("solver.pgd", "solver.p2gd"),
            "analysis.classify.ms_per_call":
                1e3 * per(dur[mask("analysis.classify")].sum(), count("analysis.classify")),
            "analysis.apocalypse.ms_per_call":
                1e3 * per(dur[mask("analysis.apocalypse")].sum(), count("analysis.apocalypse")),
            "analysis.self_share": self_share("analysis"),
            "cli.import_ms": import_ms,
            "cli.parse.self_share": self_share("cli.parse"),
            "cli.witness_column.share": float(dur[mask("cli.witness_column")].sum()) / job_seconds,
            "cli.csv_write.self_share": self_share("cli.csv_write"),
            "cli.main.self_share": self_share("cli.main"),
        }
