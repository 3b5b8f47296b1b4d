"""Batch experiment runner: solve, compare, cone queries, and property suites."""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import math
import os
import sys

import numpy as np

from . import sets
from .analysis import classify_stationarity, detect_apocalypse
from .core import Objective, Point, constant, least_squares, quartic
from .sets import (
    FeasibleSet,
    InfeasiblePointError,
    in_proximal_normal_witness,
    projected_translation_check,
    proximal_normal_witness,
)
from .solver import (
    AverageRule,
    MaxRule,
    SolverConfig,
    Termination,
    Trace,
    p2gd,
    pgd,
)

_log = logging.getLogger("ncpgd.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3
EXIT_SUITE = 4

_FLOAT_FMT = "%.17g"

class SpecError(ValueError):
    """An experiment spec field failed to parse."""


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _fmt_point(p: Point) -> str:
    return "(" + ", ".join(_fmt(c) for c in p.data) + ")"


# -- spec parsing -------------------------------------------------------------


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# CLI-level choices that are not SolverConfig fields. merge_spec checks them,
# so a flag and a config value get the same message whatever else is set.
_CHOICE_FIELDS = {"algorithm": ("pgd", "p2gd"), "stationarity": ("regular", "proximal")}


def merge_spec(args: argparse.Namespace) -> dict[str, str]:
    """The config file's values overridden by the flags given.

    The file may set exactly the keys the command has flags for; any other
    key is rejected, and so is a value outside _CHOICE_FIELDS, and so is a
    stationarity test given to p2gd, which stops on its tangent direction.
    """
    keys = [name for name in vars(args) if name not in ("command", "fn", "config")]
    merged = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(merged) - set(keys))
    if unknown:
        raise SpecError(f"{args.config}: unknown key(s) {', '.join(map(repr, unknown))} "
                        f"(accepted: the {args.command} flag names)")
    for name in keys:
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    for name, choices in _CHOICE_FIELDS.items():
        if name in merged and merged[name] not in choices:
            raise SpecError(f"field {name!r}: expected {' or '.join(choices)}, "
                            f"got {merged[name]!r}")
    if merged.get("algorithm") == "p2gd" and "stationarity" in merged:
        raise SpecError("field 'stationarity' applies to algorithm pgd only "
                        "(p2gd stops on the norm of its tangent direction)")
    return merged


def parse_point_field(text: str, shape: tuple[int, ...], field: str) -> Point:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise SpecError(f"field {field!r}: empty coordinate in {text!r}")
    try:
        coords = [float(tok) for tok in tokens]
    except ValueError:
        raise SpecError(f"field {field!r}: expected comma-separated numbers, got {text!r}") from None
    want = 1
    for m in shape:
        want *= m
    if len(coords) != want:
        raise SpecError(f"field {field!r}: expected {want} coordinates for shape {shape}, got {len(coords)}")
    if not all(map(math.isfinite, coords)):
        raise SpecError(f"field {field!r}: coordinates must be finite, got {text!r}")
    return Point(coords, shape)


def parse_objective_field(text: str, shape: tuple[int, ...]) -> Objective:
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind == "least-squares":
        key, sep, value = rest.partition("=")
        if key.strip() != "target" or not sep:
            raise SpecError(f"field 'objective': least-squares needs target=<coords>, got {rest!r}")
        return least_squares(parse_point_field(value, shape, "objective.target"))
    if kind == "constant":
        if not rest:
            return constant()
        key, sep, value = rest.partition("=")
        if key.strip() != "value" or not sep:
            raise SpecError(f"field 'objective': constant takes value=<number>, got {rest!r}")
        try:
            number = float(value)
        except ValueError:
            raise SpecError(f"field 'objective': bad constant value {value!r}") from None
        if not math.isfinite(number):
            raise SpecError(f"field 'objective': constant value must be finite, got {value!r}")
        return constant(number)
    if kind == "quartic":
        if rest:
            raise SpecError(f"field 'objective': quartic takes no parameters, got {rest!r}")
        return quartic()
    raise SpecError(f"field 'objective': unknown kind {kind!r} (expected least-squares, constant, quartic)")


def parse_rule_field(text: str) -> MaxRule | AverageRule:
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind == "max":
        key, sep, value = rest.partition("=")
        if not rest:
            return MaxRule(0)
        if key.strip() != "l" or not sep:
            raise SpecError(f"field 'rule': max takes l=<int>, got {rest!r}")
        try:
            return MaxRule(int(value))
        except ValueError:
            raise SpecError(f"field 'rule': bad window {value!r}") from None
    if kind in ("avg", "average"):
        key, sep, value = rest.partition("=")
        if key.strip() != "p" or not sep:
            raise SpecError(f"field 'rule': {kind} takes p=<float>, got {rest!r}")
        try:
            return AverageRule(float(value))
        except ValueError:
            raise SpecError(f"field 'rule': bad weight {value!r}") from None
    raise SpecError(f"field 'rule': expected max:l=K or avg:p=P, got {text!r}")


# Each CLI-exposed SolverConfig field: the parser of its text and what the
# text must be. Flags, config keys and build_solver_config all read this
# table; SolverConfig alone holds the defaults.
_SOLVER_FIELDS = {
    "alpha_min": (float, "a number"),
    "alpha_max": (float, "a number"),
    "beta": (float, "a number"),
    "c": (float, "a number"),
    "rule": (parse_rule_field, "max:l=K or avg:p=P"),
    "stat_tol": (float, "a number"),
    "max_iters": (int, "an integer"),
    "max_backtracks": (int, "an integer"),
}


def build_solver_config(merged: dict[str, str]) -> SolverConfig:
    """SolverConfig from the fields a flag or the config file set."""
    given = {}
    for name, (parse, expected) in _SOLVER_FIELDS.items():
        if name not in merged:
            continue
        try:
            given[name] = parse(merged[name])
        except SpecError:
            raise
        except ValueError:
            raise SpecError(f"field {name!r}: expected {expected}, got {merged[name]!r}") from None
    try:
        return SolverConfig(**given)
    except (ValueError, TypeError) as err:
        raise SpecError(f"bad solver configuration: {err}") from None


def _require(merged: dict[str, str], name: str) -> str:
    if name not in merged or not merged[name]:
        raise SpecError(f"field {name!r} is required (flag --{name.replace('_', '-')} or config file)")
    return merged[name]


# -- CSV output ---------------------------------------------------------------


def trace_header(dim: int) -> list[str]:
    return (["iter", "f", "mu", "alpha", "backtracks", "stat_regular",
             "stat_proximal_witness"] + [f"x{i}" for i in range(dim)])


def write_trace_csv(fh, trace: Trace, witness_flags: list[int]):
    dim = trace.iterates[0].data.size
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(trace_header(dim))
    for i in range(len(trace)):
        row = [str(i), _fmt(trace.f_values[i]), _fmt(trace.mu_values[i]),
               _fmt(trace.alphas[i]), str(trace.backtrack_counts[i]),
               _fmt(trace.stat_measures[i]), str(witness_flags[i])]
        row.extend(_fmt(c) for c in trace.iterates[i].data)
        writer.writerow(row)


def _witness_flags(set_: FeasibleSet, obj: Objective, trace: Trace, tol: float) -> list[int]:
    """The stat_proximal_witness column: 1 where -grad(x) is a proximal normal at tol.

    Asks the set's closed-form in_proximal_normal, as classify_stationarity
    does, so a row's flag and the label of that point agree.
    """
    return [int(set_.in_proximal_normal(x, -obj.grad(x), tol)) for x in trace.iterates]


def _linesearch_targets(obj: Objective, trace: Trace) -> list[Point | None]:
    """Gradient-step target x_i - alpha*grad(x_i) using the next accepted alpha."""
    targets: list[Point | None] = []
    for i in range(len(trace)):
        if i + 1 < len(trace):
            alpha = trace.alphas[i + 1]
            targets.append(trace.iterates[i] - alpha * obj.grad(trace.iterates[i]))
        else:
            targets.append(None)
    return targets


def _extend_coords(row: list, p: Point | None, dim: int):
    if p is None:
        row.extend([""] * dim)
    else:
        row.extend(_fmt(c) for c in p.data)


def write_compare_csv(fh, traces: dict[str, Trace], targets: dict[str, list[Point | None]]):
    dim = next(iter(traces.values())).iterates[0].data.size
    header = ["iter"]
    for name in traces:
        header += [f"{name}_f"]
        header += [f"{name}_x{i}" for i in range(dim)]
        header += [f"{name}_t{i}" for i in range(dim)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    rows = max(len(tr) for tr in traces.values())
    for i in range(rows):
        row = [str(i)]
        for name, tr in traces.items():
            if i < len(tr):
                row.append(_fmt(tr.f_values[i]))
                _extend_coords(row, tr.iterates[i], dim)
                _extend_coords(row, targets[name][i], dim)
            else:
                row.extend([""] * (1 + 2 * dim))
        writer.writerow(row)


def write_plot_data_csv(fh, traces: dict[str, Trace], targets: dict[str, list[Point | None]]):
    dim = next(iter(traces.values())).iterates[0].data.size
    header = (["algorithm", "iter"] + [f"x{i}" for i in range(dim)]
              + [f"target{i}" for i in range(dim)])
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for name, tr in traces.items():
        for i in range(len(tr)):
            row = [name, str(i)]
            _extend_coords(row, tr.iterates[i], dim)
            _extend_coords(row, targets[name][i], dim)
            writer.writerow(row)


# -- commands -----------------------------------------------------------------

def _build_problem(merged: dict[str, str]):
    set_ = sets.from_spec(_require(merged, "set"))
    obj = parse_objective_field(_require(merged, "objective"), set_.ambient_shape)
    x0 = parse_point_field(_require(merged, "x0"), set_.ambient_shape, "x0")
    cfg = build_solver_config(merged)
    # Checked before the solver runs: the classification tolerance is 10 * stat_tol.
    if not math.isfinite(10.0 * cfg.stat_tol):
        raise SpecError(f"field 'stat_tol': the classification tolerance 10 * stat_tol "
                        f"overflows, got {merged['stat_tol']!r}")
    return set_, obj, x0, cfg


def _summary_line(name: str, set_: FeasibleSet, obj: Objective, trace: Trace,
                  classify_tol: float) -> str:
    report = classify_stationarity(set_, obj, trace.final(), tol=classify_tol)
    return (f"{name}: termination={trace.termination.value} steps={len(trace) - 1} "
            f"final-f={_fmt(trace.f_values[-1])} final-x={_fmt_point(trace.final())} "
            f"classification={report.classification} d-regular={_fmt(report.d_regular)}")


def cmd_solve(args: argparse.Namespace) -> int:
    merged = merge_spec(args)
    set_, obj, x0, cfg = _build_problem(merged)
    algorithm = merged.get("algorithm", "pgd")
    if algorithm == "pgd":
        trace = pgd(set_, obj, x0, cfg, stationarity=merged.get("stationarity", "regular"))
    else:
        trace = p2gd(set_, obj, x0, cfg)
    classify_tol = 10.0 * cfg.stat_tol
    # Classified before anything is written, so an error in it leaves no partial output.
    summary = _summary_line(algorithm, set_, obj, trace, classify_tol)
    flags = _witness_flags(set_, obj, trace, classify_tol)
    out = merged.get("out")
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_trace_csv(fh, trace, flags)
        _log.info("trace written to %s", out)
    else:
        write_trace_csv(sys.stdout, trace, flags)
    print(summary, file=sys.stdout if out else sys.stderr)
    plot_path = merged.get("emit_plot_data")
    if plot_path:
        with open(plot_path, "w", newline="", encoding="utf-8") as fh:
            write_plot_data_csv(fh, {algorithm: trace},
                                {algorithm: _linesearch_targets(obj, trace)})
    return EXIT_SOLVER if trace.termination is Termination.BACKTRACK_FAILURE else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    merged = merge_spec(args)
    set_, obj, x0, cfg = _build_problem(merged)
    traces = {"pgd": pgd(set_, obj, x0, cfg, stationarity=merged.get("stationarity", "regular")),
              "p2gd": p2gd(set_, obj, x0, cfg)}
    classify_tol = 10.0 * cfg.stat_tol
    # Classified before anything is written, as in cmd_solve.
    report = []
    for name, trace in traces.items():
        report.append(_summary_line(name, set_, obj, trace, classify_tol))
        flag = detect_apocalypse(set_, obj, trace, tol=classify_tol)
        note = f" note={flag.note!r}" if flag.note else ""
        report.append(f"apocalypse {name}: flagged={str(flag.flagged).lower()} "
                      f"limit={_fmt_point(flag.limit_point)} "
                      f"measure-at-limit={_fmt(flag.measure_at_limit)}{note}")
    # One set of targets serves both CSV writers.
    targets = {name: _linesearch_targets(obj, tr) for name, tr in traces.items()}
    out = merged.get("out")
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_compare_csv(fh, traces, targets)
    else:
        write_compare_csv(sys.stdout, traces, targets)
    plot_path = merged.get("emit_plot_data")
    if plot_path:
        with open(plot_path, "w", newline="", encoding="utf-8") as fh:
            write_plot_data_csv(fh, traces, targets)
    print("\n".join(report), file=sys.stdout if out else sys.stderr)
    failed = any(tr.termination is Termination.BACKTRACK_FAILURE for tr in traces.values())
    return EXIT_SOLVER if failed else EXIT_OK


def cmd_cones(args: argparse.Namespace) -> int:
    set_ = sets.from_spec(args.set)
    x = parse_point_field(args.x, set_.ambient_shape, "x")
    v = parse_point_field(args.v, set_.ambient_shape, "v")
    if not set_.contains(x):
        raise InfeasiblePointError(f"x is not on {set_!r}")
    print(f"set: {set_!r}")
    print(f"x: {_fmt_point(x)}  stratum: {set_.stratum_id(x)}")
    print(f"v: {_fmt_point(v)}")
    # The proximal infimum distance is the regular one on every shipped set.
    d_regular = _fmt(set_.dist_regular_normal(x, v))
    print(f"dist-regular-normal: {d_regular}")
    print(f"dist-proximal-normal (infimum): {d_regular}")
    print(f"proximal-member (closed form): {str(set_.in_proximal_normal(x, v)).lower()}")
    alpha = proximal_normal_witness(set_, x, v)
    witness = f"alpha={_fmt(alpha)}" if alpha is not None else "none"
    print(f"proximal-witness: {witness}")
    print(f"in-general-normal: {str(set_.in_general_normal(x, v)).lower()}")
    try:
        print(f"tangent-projection: {_fmt_point(set_.project_tangent(x, v))}")
    except NotImplementedError:
        print("tangent-projection: unavailable")
    return EXIT_OK


# -- property suites ----------------------------------------------------------


# Built when a suite runs, so that importing the CLI loads no set module.
def _cone_equal_sets() -> tuple[FeasibleSet, ...]:
    """Sets whose proximal and regular normal cones coincide everywhere."""
    return (sets.SparseSet(6, 2), sets.NonnegSparseSet(6, 2),
            sets.LowRankSet(4, 4, 2), sets.PsdLowRankSet(4, 2))


def _suite_sets() -> tuple[FeasibleSet, ...]:
    """The cone-equal sets plus the curve and the epigraph, whose cones differ at the kink."""
    return _cone_equal_sets() + (sets.CurveSet(), sets.EpigraphSet())


def projected_translation_trials(seed: int, trials: int):
    """Per trial: (t, set, x, v, y, dist-ok, ip-ok), a random feasible x and translation v,
    and ``projected_translation_check``'s y = project(x - v) and its two verdicts on y."""
    rng = np.random.default_rng(seed)
    pool = _suite_sets()
    for t in range(trials):
        set_ = pool[t % len(pool)]
        x = set_.random_point(rng)
        scale = float(rng.choice([0.01, 0.3, 1.0, 3.0]))
        v = Point(scale * rng.standard_normal(x.data.size), x.shape)
        yield (t, set_, x, v) + projected_translation_check(set_, x, v)


def suite_projected_translation(seed: int, trials: int) -> tuple[bool, list[str]]:
    for t, set_, x, v, _, ok_dist, ok_ip in projected_translation_trials(seed, trials):
        if not (ok_dist and ok_ip):
            return False, [f"trial {t}: set={set_!r} x={_fmt_point(x)} v={_fmt_point(v)} "
                           f"dist-ok={ok_dist} ip-ok={ok_ip}"]
    return True, [f"{trials} trials across {len(_suite_sets())} sets"]


def prox_equals_regular_trials(seed: int, points: int):
    """Per sampled regular normal v at x: (set, stratum, x, v, proximal witness found)."""
    rng = np.random.default_rng(seed)
    for set_ in _cone_equal_sets():
        for stratum in set_.stratum_ids:
            for _ in range(points):
                x = set_.random_point(rng, stratum=stratum)
                for _ in range(20):
                    v = set_.sample_regular_normal(x, rng)
                    yield set_, stratum, x, v, in_proximal_normal_witness(set_, x, v)


def suite_prox_equals_regular(seed: int, trials: int) -> tuple[bool, list[str]]:
    checked = 0
    for set_, stratum, x, v, certified in prox_equals_regular_trials(seed, trials):
        if not certified:
            return False, [f"set={set_!r} stratum={stratum} x={_fmt_point(x)} v={_fmt_point(v)}"]
        checked += 1
    return True, [f"{checked} regular-normal directions certified proximal"]


def armijo_replay(set_: FeasibleSet, obj: Objective, cfg: SolverConfig, trace: Trace):
    """Per accepted step i of a pgd trace: (i, None), or (i, the first of the Armijo
    condition, the sufficient decrease and feasibility that step i violates)."""
    slack = 1e-10 * max(1.0, abs(trace.f_values[0]))
    for i in range(1, len(trace)):
        x_prev, x_next = trace.iterates[i - 1], trace.iterates[i]
        gap = x_next - x_prev
        mu, f = trace.mu_values[i - 1], trace.f_values[i]
        if f > mu + cfg.c * float(obj.grad(x_prev).data.dot(gap.data)) + slack:
            yield i, "Armijo violated"
        elif f > mu - cfg.c / (2.0 * trace.alphas[i]) * float(gap.data.dot(gap.data)) + slack:
            yield i, "sufficient decrease violated"
        elif not set_.contains(x_next):
            yield i, "infeasible iterate"
        else:
            yield i, None


def armijo_postcondition_trials(seed: int, trials: int):
    """Per trial: (t, set, obj, cfg, trace), a seeded pgd solve on a cone-equal set."""
    rng = np.random.default_rng(seed)
    pool = _cone_equal_sets()
    rules = [MaxRule(0), MaxRule(2), MaxRule(5),
             AverageRule(0.1), AverageRule(0.5), AverageRule(1.0)]
    for t in range(trials):
        set_ = pool[t % len(pool)]
        obj = least_squares(Point(rng.standard_normal(set_.random_point(rng).data.size),
                                  set_.ambient_shape))
        x0 = set_.random_point(rng)
        cfg = SolverConfig(alpha_min=1e-4, alpha_max=float(rng.choice([0.3, 0.7, 1.0, 1.3])),
                           beta=0.5, c=float(rng.choice([1e-4, 0.1, 0.4])),
                           rule=rules[t % len(rules)], stat_tol=1e-8, max_iters=500)
        yield t, set_, obj, cfg, pgd(set_, obj, x0, cfg)


def suite_armijo_postcondition(seed: int, trials: int) -> tuple[bool, list[str]]:
    steps = 0
    for t, *run in armijo_postcondition_trials(seed, trials):
        for i, violation in armijo_replay(*run):
            if violation:
                return False, [f"trial {t}: {violation} at step {i}"]
            steps += 1
    return True, [f"{trials} solves, {steps} accepted steps replayed"]


SUITES = {
    "projected-translation": (suite_projected_translation, 10000),
    "prox-equals-regular": (suite_prox_equals_regular, 100),
    "armijo-postcondition": (suite_armijo_postcondition, 100),
}


def cmd_check(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        raise SpecError(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}")
    fn, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    if trials < 1:
        raise SpecError(f"--trials must be at least 1, got {trials}")
    if args.seed < 0:
        raise SpecError(f"--seed must be non-negative, got {args.seed}")
    passed, detail = fn(args.seed, trials)
    status = "PASS" if passed else "FAIL"
    print(f"suite {args.suite}: {status} (seed={args.seed})")
    for line in detail:
        print(("  " if passed else "  counterexample: ") + line)
    return EXIT_OK if passed else EXIT_SUITE


# -- entry point --------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--set", help="feasible set spec, e.g. sparse:n=2,s=1")
    p.add_argument("--objective", help="objective spec, e.g. least-squares:target=1,0")
    p.add_argument("--x0", help="starting point, comma-separated (row-major for matrices)")
    for name, (_, expected) in _SOLVER_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, help=expected)
    p.add_argument("--stationarity", help=" or ".join(_CHOICE_FIELDS["stationarity"]))
    p.add_argument("--out", help="write the CSV trace here instead of stdout")
    p.add_argument("--emit-plot-data", dest="emit_plot_data",
                   help="also write point/arrow series for plotting to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpgd",
        description="Projected gradient descent on nonconvex closed sets, "
                    "with cone queries and stationarity certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm and emit a CSV trace")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--algorithm", help=" or ".join(_CHOICE_FIELDS["algorithm"]))
    p_solve.set_defaults(fn=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run pgd and p2gd side by side")
    _add_solver_flags(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_cones = sub.add_parser("cones", help="query the cones of a set at a point")
    p_cones.add_argument("--set", required=True)
    p_cones.add_argument("--x", required=True)
    p_cones.add_argument("--v", required=True)
    p_cones.set_defaults(fn=cmd_cones)

    p_check = sub.add_parser("check", help="run a randomized property suite")
    p_check.add_argument("--suite", required=True,
                         help=f"one of: {', '.join(sorted(SUITES))}")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int,
                         help="trial count (for prox-equals-regular: points per stratum)")
    p_check.set_defaults(fn=cmd_check)

    return parser


def _configure_logging():
    level_name = os.environ.get("NCPGD_LOG", "info").strip().lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    # basicConfig installs the stderr handler on the first call only, so every
    # call sets its level on the package logger.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("ncpgd").setLevel(levels.get(level_name, logging.INFO))
    if level_name not in levels:
        _log.warning("NCPGD_LOG=%r not in {quiet, info, debug}; using info", level_name)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InfeasiblePointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, NotImplementedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as err:
        print(f"error: decomposition failed: {err}", file=sys.stderr)
        return EXIT_SOLVER


def run(argv=None) -> int:
    """Process entry point of the ``ncpgd`` script and ``python -m ncpgd.cli``.

    Freezes the objects that exist after the imports (numpy's and ncpgd's),
    which live until exit anyway, so that the cyclic collector skips them
    during the command and at shutdown; then runs ``main``. In-process
    callers of ``main`` keep their collector state.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
