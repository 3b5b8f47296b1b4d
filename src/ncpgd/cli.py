"""Batch experiment runner: solve, compare, cone queries, and property suites."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import logging
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import sets
from .analysis import classify_stationarity, detect_apocalypse
from .core import Objective, Point, constant, least_squares, quartic
from .sets import (
    FeasibleSet,
    InfeasiblePointError,
    SpecError,
    in_proximal_normal_witness,
    parse_spec,
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

def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _fmt_point(p: Point) -> str:
    return "(" + ", ".join(_fmt(c) for c in p.data) + ")"


# -- spec parsing -------------------------------------------------------------


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file. A key, written with '-' or '_', may appear once; blank lines
    and whole-line '#' comments are skipped, and a '#' after a value is part of it."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            if key in values:
                raise SpecError(f"{path}:{lineno}: repeated key {key!r} "
                                f"(first given on line {first_line[key]})")
            values[key], first_line[key] = value.strip(), lineno
    return values


def merge_spec(command: str, texts: dict[str, str]) -> dict[str, str]:
    """The config file that texts['config'] names, if any, overridden by the other flag texts,
    all stripped; a file key that is not one of the command's fields is rejected."""
    path = texts.get("config")
    if path == "":
        raise SpecError("flag --config: expected a config file path, got ''")
    merged = {} if path is None else read_config_file(path)
    unknown = sorted(set(merged) - set(_command_fields(command)))
    if unknown:
        raise SpecError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))} "
                        f"(accepted: the {command} flag names)")
    merged.update((name, text.strip()) for name, text in texts.items() if name != "config")
    return merged


def parse_point_field(text: str, shape: tuple[int, ...], field: str) -> Point:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise SpecError(f"field {field!r}: empty coordinate in {text!r}")
    try:
        coords = [float(tok) for tok in tokens]
    except ValueError:
        raise SpecError(f"field {field!r}: expected comma-separated numbers, got {text!r}") from None
    want = math.prod(shape)
    if len(coords) != want:
        raise SpecError(f"field {field!r}: expected {want} coordinates for shape {shape}, got {len(coords)}")
    if not all(map(math.isfinite, coords)):
        raise SpecError(f"field {field!r}: coordinates must be finite, got {text!r}")
    return Point(coords, shape)


def parse_objective_field(text: str, shape: tuple[int, ...]) -> Objective:
    kind, params = parse_spec("objective", text, {"least-squares": ("target",), "constant": ("value",),
                                                  "quartic": ()}, optional=("value",))
    if kind == "least-squares":
        return least_squares(parse_point_field(params["target"], shape, "objective.target"))
    if kind == "quartic":
        return quartic()
    value = params.get("value", "0")
    number = float(value)
    if not math.isfinite(number):
        raise SpecError(f"field 'objective': constant value must be finite, got {value!r}")
    return constant(number)


def parse_rule_field(text: str) -> MaxRule | AverageRule:
    kind, params = parse_spec("rule", text, {"max": ("l",), "avg": ("p",), "average": ("p",)},
                              optional=("l",))
    if kind == "max":
        rule, number = MaxRule, int(params.get("l", "0"))
    else:
        rule, number = AverageRule, float(params["p"])
    try:
        return rule(number)
    except ValueError as err:
        raise SpecError(f"field 'rule': {err}") from None


def _one_of(*choices: str):
    """A parser that returns its text if that is one of choices (else index raises ValueError)."""
    return lambda text: choices[choices.index(text)]


def _suite(text: str) -> str:
    """The text, if it names one of SUITES."""
    if text not in SUITES:
        raise SpecError(f"unknown suite {text!r}; known: {', '.join(sorted(SUITES))}")
    return text


def _at_least(low: int, flag: str, bound: str):
    """A parser of an integer that is at least low, else '--flag must be bound'."""
    def parse(text: str) -> int:
        number = int(text)
        if number < low:
            raise SpecError(f"--{flag} must be {bound}, got {number}")
        return number
    return parse


# The commands that also read their fields from a --config file, in either key spelling.
_CONFIG_COMMANDS = ("solve", "compare")


class _Field(NamedTuple):
    """One field of the commands it belongs to: flag --name with '-' for '_'."""

    expected: str  # what the text must be; also the flag's help
    parse: Callable[..., object]
    commands: tuple[str, ...] = _CONFIG_COMMANDS
    required: bool = False
    shaped: bool = False  # parse also takes the set's ambient shape


# Every field of every command, in parse order: a command's set comes before the fields
# its shape fixes. The shaped parsers and the set parser look their function up when
# called, so that a wrapper set on the module attribute sees each call.
_FIELDS = {
    "set": _Field("a set spec, e.g. sparse:n=2,s=1", lambda text: sets.from_spec(text),
                  ("solve", "compare", "cones"), required=True),
    "objective": _Field("least-squares:target=<coords>, constant[:value=<number>] or quartic",
                        lambda text, shape: parse_objective_field(text, shape), required=True, shaped=True),
    "x0": _Field("comma-separated coordinates (row-major for matrices)",
                 lambda text, shape: parse_point_field(text, shape, "x0"), required=True, shaped=True),
    "alpha_min": _Field("a number", float),
    "alpha_max": _Field("a number", float),
    "beta": _Field("a number", float),
    "c": _Field("a number", float),
    "rule": _Field("max[:l=K] or avg:p=P", parse_rule_field),
    "stat_tol": _Field("a number", float),
    "max_iters": _Field("an integer", int),
    "max_backtracks": _Field("an integer", int),
    "algorithm": _Field("pgd or p2gd", _one_of("pgd", "p2gd"), ("solve",)),
    "stationarity": _Field("regular or proximal", _one_of("regular", "proximal")),
    "out": _Field("a file path for the CSV trace (default: stdout)", str),
    "emit_plot_data": _Field("a file path for the point/arrow series for plotting", str),
    "x": _Field("comma-separated coordinates of a point of the set",
                lambda text, shape: parse_point_field(text, shape, "x"), ("cones",),
                required=True, shaped=True),
    "v": _Field("comma-separated coordinates of a direction",
                lambda text, shape: parse_point_field(text, shape, "v"), ("cones",),
                required=True, shaped=True),
    "suite": _Field("armijo-postcondition, projected-translation or prox-equals-regular", _suite,
                    ("check",), required=True),
    "seed": _Field("a non-negative integer", _at_least(0, "seed", "non-negative"), ("check",)),
    "trials": _Field("a positive integer, the trial count (prox-equals-regular: points per stratum)",
                     _at_least(1, "trials", "at least 1"), ("check",)),
}


def _command_fields(command: str) -> list[str]:
    return [name for name, f in _FIELDS.items() if command in f.commands]


def _field_value(merged: dict[str, str], name: str, *shape):
    """The named field's value parsed by its row from its text in merged; None if absent.
    Empty text, or a ValueError other than SpecError, is the 'expected' error."""
    field = _FIELDS[name]
    text = merged.get(name)
    if text is None:
        return None
    try:
        if text:
            return field.parse(text, *shape)
    except SpecError:
        raise
    except ValueError:
        pass
    raise SpecError(f"field {name!r}: expected {field.expected}, got {text!r}")


def parse_fields(command: str, merged: dict[str, str]) -> dict[str, object]:
    """Every field of the command, in table order, parsed from its text in merged (None if absent)."""
    values: dict[str, object] = {}
    for name in _command_fields(command):
        if _FIELDS[name].required and not merged.get(name):
            source = " or config file" if command in _CONFIG_COMMANDS else ""
            raise SpecError(f"field {name!r} is required (flag --{name.replace('_', '-')}{source})")
        shape = (values["set"].ambient_shape,) if _FIELDS[name].shaped else ()
        values[name] = _field_value(merged, name, *shape)
    return values


def _solver_config(values: dict[str, object]) -> SolverConfig:
    """SolverConfig from parsed field values; a field that is None takes its default."""
    given = {f.name: values[f.name] for f in dataclasses.fields(SolverConfig)
             if values.get(f.name) is not None}
    try:
        return SolverConfig(**given)
    except (ValueError, TypeError) as err:
        raise SpecError(f"bad solver configuration: {err}") from None


def build_solver_config(merged: dict[str, str]) -> SolverConfig:
    """SolverConfig from the fields a flag or the config file set."""
    return _solver_config({f.name: _field_value(merged, f.name) for f in dataclasses.fields(SolverConfig)})


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

def _build_problem(command: str, merged: dict[str, str]):
    """Every field's value, parsed before the solver runs so that a bad one stops the command."""
    values = parse_fields(command, merged)
    cfg = _solver_config(values)
    # Checked before the solver runs: the classification tolerance is 10 * stat_tol.
    if not math.isfinite(10.0 * cfg.stat_tol):
        raise SpecError(f"field 'stat_tol': the classification tolerance 10 * stat_tol "
                        f"overflows, got {merged['stat_tol']!r}")
    if values.get("algorithm") == "p2gd" and values["stationarity"]:
        raise SpecError("field 'stationarity' applies to algorithm pgd only "
                        "(p2gd stops on the norm of its tangent direction)")
    return values["set"], values["objective"], values["x0"], cfg, values


def _csv_file(path: str | None):
    return open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _summary_line(name: str, set_: FeasibleSet, obj: Objective, trace: Trace,
                  classify_tol: float) -> str:
    report = classify_stationarity(set_, obj, trace.final(), tol=classify_tol)
    return (f"{name}: termination={trace.termination.value} steps={len(trace) - 1} "
            f"final-f={_fmt(trace.f_values[-1])} final-x={_fmt_point(trace.final())} "
            f"classification={report.classification} d-regular={_fmt(report.d_regular)}")


def cmd_solve(texts: dict[str, str]) -> int:
    set_, obj, x0, cfg, rest = _build_problem("solve", merge_spec("solve", texts))
    algorithm = rest["algorithm"] or "pgd"
    if algorithm == "pgd":
        trace = pgd(set_, obj, x0, cfg, stationarity=rest["stationarity"] or "regular")
    else:
        trace = p2gd(set_, obj, x0, cfg)
    classify_tol = 10.0 * cfg.stat_tol
    # Classified before anything is written, so an error in it leaves no partial output.
    summary = _summary_line(algorithm, set_, obj, trace, classify_tol)
    flags = _witness_flags(set_, obj, trace, classify_tol)
    out = rest["out"]
    with _csv_file(out) as fh:
        write_trace_csv(fh, trace, flags)
    if out:
        _log.info("trace written to %s", out)
    print(summary, file=sys.stdout if out else sys.stderr)
    if rest["emit_plot_data"]:
        with _csv_file(rest["emit_plot_data"]) as fh:
            write_plot_data_csv(fh, {algorithm: trace},
                                {algorithm: _linesearch_targets(obj, trace)})
    return EXIT_SOLVER if trace.termination is Termination.BACKTRACK_FAILURE else EXIT_OK


def cmd_compare(texts: dict[str, str]) -> int:
    set_, obj, x0, cfg, rest = _build_problem("compare", merge_spec("compare", texts))
    traces = {"pgd": pgd(set_, obj, x0, cfg, stationarity=rest["stationarity"] or "regular"),
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
    with _csv_file(rest["out"]) as fh:
        write_compare_csv(fh, traces, targets)
    if rest["emit_plot_data"]:
        with _csv_file(rest["emit_plot_data"]) as fh:
            write_plot_data_csv(fh, traces, targets)
    print("\n".join(report), file=sys.stdout if rest["out"] else sys.stderr)
    failed = any(tr.termination is Termination.BACKTRACK_FAILURE for tr in traces.values())
    return EXIT_SOLVER if failed else EXIT_OK


def cmd_cones(texts: dict[str, str]) -> int:
    fields = parse_fields("cones", merge_spec("cones", texts))
    set_, x, v = fields["set"], fields["x"], fields["v"]
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


def cmd_check(texts: dict[str, str]) -> int:
    fields = parse_fields("check", merge_spec("check", texts))
    suite, seed = fields["suite"], fields["seed"] or 0
    fn, default_trials = SUITES[suite]
    passed, detail = fn(seed, fields["trials"] or default_trials)
    status = "PASS" if passed else "FAIL"
    print(f"suite {suite}: {status} (seed={seed})")
    for line in detail:
        print(("  " if passed else "  counterexample: ") + line)
    return EXIT_OK if passed else EXIT_SUITE


# -- entry point --------------------------------------------------------------


def build_parser() -> dict[str, dict[str, str]]:
    """Per command of the field table, each of its flags to the field it sets, 'config' or 'help'."""
    commands = dict.fromkeys(command for row in _FIELDS.values() for command in row.commands)
    return {command: {"--" + name.replace("_", "-"): name for name in
                      ["config"] * (command in _CONFIG_COMMANDS) + _command_fields(command)}
                     | {"-h": "help", "--help": "help"} for command in commands}


def read_argv(argv: list[str]) -> tuple[str | None, dict[str, str] | None]:
    """(command, {field or 'config': text as typed}), or (command, None) for help, command None
    at the root. Each flag is read by its full name, as --name=text or as --name and the next
    token unless that is a flag of the command, and only once."""
    parser = build_parser()
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return None, None
    if command not in parser:
        raise SpecError(f"expected a command, one of {', '.join(parser)}; got {command!r}")
    flags, texts = parser[command], {}
    while tokens:
        token = tokens.pop(0)
        flag, eq, text = token.partition("=")
        name = flags.get(flag)
        if name == "help":
            return command, None
        if name is None:
            raise SpecError(f"{flag!r} is not a flag of {command}; see ncpgd {command} --help")
        field = "" if name == "config" else f"field {name!r}: "
        if not (eq or tokens and tokens[0].partition("=")[0] not in flags):
            raise SpecError(f"{field}flag {flag} given no text")
        if name in texts:
            raise SpecError(f"{field}flag {flag} given more than once")
        texts[name] = text if eq else tokens.pop(0)
    return command, texts


def _help(command: str | None) -> str:
    """At the root, the commands; else the command's flags, each with what its text must be."""
    if command is None:
        return f"usage: ncpgd {{{','.join(build_parser())}}} ...; ncpgd <command> --help lists its flags"
    return "\n".join([f"usage: ncpgd {command} [--flag text | --flag=text ...]"] + [
        f"  {flag:<16}  {_FIELDS[name].expected if name in _FIELDS else 'a key=value file that flags override'}"
        for flag, name in build_parser()[command].items() if name != "help"])


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
    try:
        command, texts = read_argv(sys.argv[1:] if argv is None else argv)
        if texts is None:
            print(_help(command))
            return EXIT_OK
        # Looked up when called, so that a wrapper set on the module attribute sees the call.
        return globals()[f"cmd_{command}"](texts)
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
