import ast
import dataclasses
import gc
import importlib
import logging
import math
import os
import subprocess
import sys

import pytest

from ncpgd import Objective, SolverConfig, cli

from helpers import read_trace_csv


def run_cli(argv, capsys):
    frozen = gc.get_freeze_count()
    code = cli.main(argv)
    # Only the process entry point cli.run freezes the collector's objects.
    assert gc.get_freeze_count() == frozen
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_ARGS = ["solve", "--set", "sparse:n=2,s=1",
              "--objective", "least-squares:target=1,0", "--x0", "0,1",
              "--alpha-min", "1", "--alpha-max", "1", "--c", "0.4",
              "--rule", "max:l=0"]


def test_solve_unit_step_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(SOLVE_ARGS + ["--out", str(out)], capsys)
    assert code == cli.EXIT_OK
    cols = read_trace_csv(str(out))
    assert cols["iter"] == [0, 1]
    assert cols["x0"] == [0.0, 1.0]
    assert cols["x1"] == [1.0, 0.0]
    assert cols["stat_proximal_witness"] == [0, 1]
    assert "classification=P-stationary" in stdout
    assert "termination=stationary-at-tol" in stdout


def test_solve_small_step_switches_at_known_index(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = ["solve", "--set", "sparse:n=2,s=1",
            "--objective", "least-squares:target=1,0", "--x0", "0,1",
            "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05",
            "--rule", "max:l=0", "--out", str(out)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    cols = read_trace_csv(str(out))
    i_star = math.floor(math.log(0.45) / math.log(0.55))
    assert i_star == 1
    assert cols["x0"][i_star] == 0.0 and cols["x1"][i_star] == pytest.approx(0.55, abs=1e-12)
    assert cols["x1"][i_star + 1] == 0.0
    assert cols["x0"][i_star + 1] == pytest.approx(0.45, abs=1e-12)


def test_solve_started_at_target_gives_single_row(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = SOLVE_ARGS.copy()
    args[args.index("--x0") + 1] = "1,0"
    code, _, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == cli.EXIT_OK
    assert read_trace_csv(str(out))["iter"] == [0]


def test_solve_writes_csv_to_stdout_without_out(capsys):
    code, stdout, stderr = run_cli(SOLVE_ARGS, capsys)
    assert code == cli.EXIT_OK
    assert stdout.splitlines()[0].startswith("iter,f,mu,alpha,backtracks")
    assert "classification=" in stderr


def test_solve_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(SOLVE_ARGS + ["--out", str(a)], capsys)
    run_cli(SOLVE_ARGS + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_trace_round_trip_full_precision(tmp_path, capsys):
    from ncpgd import MaxRule, Point, SolverConfig, SparseSet, least_squares, pgd
    out = tmp_path / "trace.csv"
    args = ["solve", "--set", "sparse:n=2,s=1",
            "--objective", "least-squares:target=1,0", "--x0", "0,1",
            "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05",
            "--rule", "max:l=0", "--out", str(out)]
    code, _, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    cfg = SolverConfig(alpha_min=0.45, alpha_max=0.45, beta=0.5, c=0.05, rule=MaxRule(0))
    trace = pgd(SparseSet(2, 1), least_squares(Point.vector([1, 0])),
                Point.vector([0, 1]), cfg)
    cols = read_trace_csv(str(out))
    assert len(cols["iter"]) == len(trace)
    for i in range(len(trace)):
        assert cols["f"][i] == trace.f_values[i]
        assert cols["mu"][i] == trace.mu_values[i]
        assert cols["stat_regular"][i] == trace.stat_measures[i]
        if i == 0:
            assert math.isnan(cols["alpha"][0])
        else:
            assert cols["alpha"][i] == trace.alphas[i]
        assert cols["x0"][i] == trace.iterates[i].data[0]
        assert cols["x1"][i] == trace.iterates[i].data[1]


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# two-axis instance\n"
        "set = sparse:n=2,s=1\n"
        "objective = least-squares:target=1,0\n"
        "x0 = 0,1\n"
        "alpha_min = 1\n"
        "alpha_max = 1\n"
        "c = 0.4\n")
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(["solve", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == cli.EXIT_OK
    assert read_trace_csv(str(out))["iter"] == [0, 1]
    # Flag overrides the file: smaller step means a longer trace.
    out2 = tmp_path / "trace2.csv"
    code, _, _ = run_cli(["solve", "--config", str(cfg), "--alpha-min", "0.45",
                          "--alpha-max", "0.45", "--c", "0.05", "--out", str(out2)], capsys)
    assert code == cli.EXIT_OK
    assert len(read_trace_csv(str(out2))["iter"]) > 2


def _merged(argv):
    return cli.merge_spec(*cli.read_argv(argv))


def test_solver_defaults_come_from_solver_config():
    assert cli.build_solver_config({}) == SolverConfig()
    assert cli.build_solver_config(_merged(["solve"])) == SolverConfig()


CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}
# A non-default text for every field; a table row or SolverConfig field
# without an entry fails the test below.
FIELD_TEXT = {"set": "sparse:n=3,s=1", "objective": "quartic", "x0": "0,1,0",
              "alpha_min": "0.25", "alpha_max": "0.5", "beta": "0.3", "c": "0.2",
              "rule": "avg:p=0.5", "stat_tol": "1e-6", "max_iters": "7",
              "max_backtracks": "9", "algorithm": "p2gd", "stationarity": "proximal",
              "out": "t.csv", "emit_plot_data": "arrows.csv", "x": "0,1,0", "v": "1,0,0",
              "suite": "prox-equals-regular", "seed": "3", "trials": "2"}


@pytest.mark.parametrize("name", sorted(set(cli._FIELDS) | CONFIG_FIELDS))
def test_every_field_is_a_flag_and_a_config_key(name, tmp_path):
    # A row is a flag of each command it belongs to; it is a config key of solve and
    # compare only, since cones and check take no --config.
    flag = name.replace("_", "-")
    cfg = tmp_path / "exp.cfg"
    for command in cli._FIELDS[name].commands:
        from_flag = _merged([command, f"--{flag}", FIELD_TEXT[name]])
        assert from_flag == {name: FIELD_TEXT[name]}
        for key in {name, flag}:
            cfg.write_text(f"{key} = {FIELD_TEXT[name]}\n")
            if command in cli._CONFIG_COMMANDS:
                assert _merged([command, "--config", str(cfg)]) == from_flag
            else:
                with pytest.raises(cli.SpecError, match=f"^'--config' is not a flag of {command};"):
                    _merged([command, "--config", str(cfg)])
    if not set(cli._CONFIG_COMMANDS) & set(cli._FIELDS[name].commands):
        cfg.write_text(f"{name} = {FIELD_TEXT[name]}\n")
        with pytest.raises(cli.SpecError, match=f"unknown key\\(s\\) {name!r}"):
            _merged(["solve", "--config", str(cfg)])
    if name in CONFIG_FIELDS:
        value = getattr(cli.build_solver_config(from_flag), name)
        assert value != getattr(SolverConfig(), name)
        assert cli.build_solver_config(from_flag) == dataclasses.replace(SolverConfig(), **{name: value})


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("max_iter = 2\nalgoritm = p2gd\n")
    code, stdout, stderr = run_cli(SOLVE_ARGS + ["--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert "'algoritm'" in stderr and "'max_iter'" in stderr
    # algorithm is a solve flag, not a compare flag.
    cfg.write_text("algorithm = pgd\n")
    code, _, stderr = run_cli(["compare", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert "'algorithm'" in stderr


@pytest.mark.parametrize("key,text", [("beta", "half"), ("max_iters", "2.5"),
                                      ("alpha_min", "small"), ("rule", "max:l=x")])
def test_bad_value_same_message_from_flag_and_file(key, text, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {text}\n")
    problem = SOLVE_ARGS[:7]
    code_file, _, err_file = run_cli(problem + ["--config", str(cfg)], capsys)
    code_flag, _, err_flag = run_cli(problem + [f"--{key.replace('_', '-')}", text], capsys)
    assert code_file == code_flag == cli.EXIT_USAGE
    assert err_file == err_flag
    assert err_flag.startswith(f"error: field {key!r}")


@pytest.mark.parametrize("argv,message", [
    (["check", "--suite", "projected-translation", "--trials", "2", "--trials", "3"],
     "field 'trials': flag --trials given more than once"),
    (SOLVE_ARGS + ["--max-iters", "1", "--max-iters=3"],
     "field 'max_iters': flag --max-iters given more than once"),
    (SOLVE_ARGS + ["--config", "a.cfg", "--config", "b.cfg"], "flag --config given more than once"),
])
def test_a_flag_given_twice_is_an_error(argv, message, capsys):
    # Checked while the command line is read: no file is opened and no suite runs.
    assert run_cli(argv, capsys) == (cli.EXIT_USAGE, "", f"error: {message}\n")


NEGATIVE_START = ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0"]


def test_a_value_that_starts_with_a_dash_reads_alike_in_every_spelling(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("x0 = -1,0\n")
    spellings = {"separate": ["--x0", "-1,0"], "joined": ["--x0=-1,0"],
                 "config": ["--config", str(cfg)]}
    traces = {}
    for name, flags in spellings.items():
        out = tmp_path / f"{name}.csv"
        assert run_cli(NEGATIVE_START + flags + ["--out", str(out)], capsys)[0] == cli.EXIT_OK
        traces[name] = out.read_bytes()
    assert traces["separate"] == traces["joined"] == traces["config"]
    assert traces["separate"].splitlines()[1].endswith(b",-1,0")


def test_a_cone_direction_that_starts_with_a_dash(capsys):
    code, stdout, _ = run_cli(["cones", "--set", "sparse:n=2,s=1", "--x", "0,1", "--v", "-1,0"],
                              capsys)
    assert code == cli.EXIT_OK
    assert "v: (-1, 0)" in stdout


@pytest.mark.parametrize("flags,unrecognized", [
    (["--x0", "0,1", "--max-it", "3"], "--max-it 3"),
    (["--x", "0,1"], "--x 0,1"),
    (["--x0", "0,1", "--max-iters", "3", "--he"], "--he"),
])
def test_a_prefix_names_no_flag(flags, unrecognized, capsys):
    # As no prefix names a config key (max_it = 3 is an unknown key). Reading stops at the flag.
    flag = unrecognized.split()[0]
    assert run_cli(NEGATIVE_START + flags, capsys) == (
        cli.EXIT_USAGE, "", f"error: {flag!r} is not a flag of solve; see ncpgd solve --help\n")


@pytest.mark.parametrize("flags,flag", [
    (["--x0", "--alpha-max", "1"], "--x0"),
    (["--x0", "--alpha-max=1"], "--x0"),
    (["--x0", "0,1", "--beta", "-h"], "--beta"),
    (["--x0", "0,1", "--config"], "--config"),
])
def test_a_flag_is_never_a_value(flags, flag, capsys):
    field = "" if flag == "--config" else f"field {flag[2:]!r}: "
    assert run_cli(NEGATIVE_START + flags, capsys) == (
        cli.EXIT_USAGE, "", f"error: {field}flag {flag} given no text\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [
    [command, *flags] for command in ("solve", "compare", "cones", "check")
    for flags in (["--help"], ["-h"], ["-h", "--max-it", "3"])])
def test_help_lists_the_flags_of_the_command(argv, capsys):
    # Help stops the reading: a later token is not read.
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stderr) == (cli.EXIT_OK, "")
    command = argv[0]
    if command.startswith("-"):
        assert stdout.startswith("usage: ncpgd {solve,compare,cones,check} ")
        return
    listed = [line.split()[0] for line in stdout.splitlines() if line.startswith("  ")]
    rows = [name for name, row in cli._FIELDS.items() if command in row.commands]
    assert listed == ["--config"] * (command in cli._CONFIG_COMMANDS) + [
        "--" + name.replace("_", "-") for name in rows]


def test_a_text_that_is_no_flag_of_the_command_is_a_value(capsys):
    # --suite is a flag of check, not of solve; -- ends no option list here.
    for text in ("--suite", "--"):
        code, _, stderr = run_cli(NEGATIVE_START + ["--x0", "0,1", "--beta", text], capsys)
        assert (code, stderr) == (cli.EXIT_USAGE, f"error: field 'beta': expected a number, got {text!r}\n")


def test_initial_step_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # Every line search starts at alpha_max; there is no separate initial step.
    code, stdout, stderr = run_cli(SOLVE_ARGS + ["--initial-step", "0.5"], capsys)
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert "--initial-step" in stderr
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("initial_step = 0.5\n")
    code, stdout, stderr = run_cli(SOLVE_ARGS + ["--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert "unknown key(s) 'initial_step'" in stderr


STATIONARITY_ERROR = "field 'stationarity': expected regular or proximal, got 'prox'"
P2GD_STATIONARITY_ERROR = ("field 'stationarity' applies to algorithm pgd only "
                           "(p2gd stops on the norm of its tangent direction)")


@pytest.mark.parametrize("command,values,message", [
    ("solve", {"stationarity": "prox"}, STATIONARITY_ERROR),
    ("solve", {"algorithm": "p2gd", "stationarity": "prox"}, STATIONARITY_ERROR),
    ("solve", {"algorithm": "pg"}, "field 'algorithm': expected pgd or p2gd, got 'pg'"),
    ("compare", {"stationarity": "prox"}, STATIONARITY_ERROR),
    ("solve", {"algorithm": "p2gd", "stationarity": "regular"}, P2GD_STATIONARITY_ERROR),
    ("solve", {"algorithm": "p2gd", "stationarity": "proximal"}, P2GD_STATIONARITY_ERROR),
])
def test_bad_choice_same_message_from_flag_and_file(command, values, message, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
    flags = [arg for key, text in values.items() for arg in (f"--{key}", text)]
    # x0 is off the set: the choice is checked before the solver runs.
    problem = [command, "--set", "sparse:n=2,s=1", "--objective",
               "least-squares:target=1,0", "--x0", "5,5"]
    code_file, out_file, err_file = run_cli(problem + ["--config", str(cfg)], capsys)
    code_flag, out_flag, err_flag = run_cli(problem + flags, capsys)
    assert code_file == code_flag == cli.EXIT_USAGE
    assert out_file == out_flag == ""
    assert err_file == err_flag == f"error: {message}\n"


# A stationary point off the target's best support: (0, 1, 0) is P-stationary.
SLOW_SPARSE = ["--set", "sparse:n=3,s=1", "--objective", "least-squares:target=2,1,0.5",
               "--x0", "0,0.5,0", "--alpha-min", "0.1", "--alpha-max", "0.1"]


def test_proximal_stop_ends_where_the_label_is_p_stationary(capsys):
    # The stop and the summary's label ask the same closed form; on the sparse
    # set it is the regular stop.
    code, out, err = run_cli(["solve"] + SLOW_SPARSE + ["--stationarity", "proximal"], capsys)
    assert code == cli.EXIT_OK
    summary = err.splitlines()[-1]
    assert "termination=stationary-at-tol steps=169 " in summary
    assert "classification=P-stationary" in summary
    assert float(summary.rsplit("d-regular=", 1)[1]) <= 1e-7
    assert run_cli(["solve"] + SLOW_SPARSE + ["--stationarity", "regular"], capsys) == (code, out, err)
    # compare applies the stationarity test to its pgd side.
    code, _, err = run_cli(["compare"] + SLOW_SPARSE + ["--stationarity", "proximal"], capsys)
    assert code == cli.EXIT_OK
    assert err.splitlines()[0] == summary


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_seed_is_not_a_solve_or_compare_flag(command, capsys):
    code, _, stderr = run_cli([command] + SOLVE_ARGS[1:] + ["--seed", "1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "--seed" in stderr


@pytest.mark.parametrize("flag", ["--config", "--out", "--emit-plot-data"])
def test_bad_path_is_a_usage_error(flag, tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "file")
    code, _, stderr = run_cli(SOLVE_ARGS + [flag, missing], capsys)
    assert code == cli.EXIT_USAGE
    assert stderr.splitlines()[-1].startswith("error: ")
    assert missing in stderr


def test_compare_reports_apocalypse(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    plot = tmp_path / "plot.csv"
    args = ["compare", "--set", "sparse:n=2,s=1",
            "--objective", "least-squares:target=1,0", "--x0", "0,1",
            "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05",
            "--rule", "max:l=0", "--out", str(out),
            "--emit-plot-data", str(plot)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert "apocalypse p2gd: flagged=true" in stdout
    assert "apocalypse pgd: flagged=false" in stdout
    assert "classification=P-stationary" in stdout
    header = out.read_text().splitlines()[0]
    assert header == ("iter,pgd_f,pgd_x0,pgd_x1,pgd_t0,pgd_t1,"
                      "p2gd_f,p2gd_x0,p2gd_x1,p2gd_t0,p2gd_t1")
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "algorithm,iter,x0,x1,target0,target1"
    assert any(line.startswith("p2gd,0,") for line in plot_lines)
    # Arrow target of the first row is x0 - alpha * grad(x0) = (0.45, 0.55).
    first = plot_lines[1].split(",")
    assert first[0] == "pgd" and float(first[4]) == pytest.approx(0.45, abs=1e-12)
    assert float(first[5]) == pytest.approx(0.55, abs=1e-12)


def test_compare_unit_step_both_reach_minimizer(capsys):
    args = ["compare", "--set", "sparse:n=2,s=1",
            "--objective", "least-squares:target=1,0", "--x0", "0,1",
            "--alpha-min", "1", "--alpha-max", "1", "--c", "0.4"]
    code, stdout, stderr = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert stderr.count("classification=P-stationary") == 2


def test_compare_constant_objective_until_no_motion(capsys):
    args = ["compare", "--set", "sparse:n=2,s=1", "--objective", "constant:value=2",
            "--x0", "0,1", "--alpha-min", "1", "--alpha-max", "1", "--c", "0.4"]
    code, stdout, stderr = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert "flagged=true" not in stderr
    csv_lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith(("pgd:", "p2gd:", "apocalypse"))]
    assert len(csv_lines) == 2  # header plus the single shared row


def test_cones_curve_kink(capsys):
    code, stdout, _ = run_cli(["cones", "--set", "curve", "--x", "0,0", "--v", "1,0"], capsys)
    assert code == cli.EXIT_OK
    assert "dist-regular-normal: 0" in stdout
    assert "proximal-member (closed form): false" in stdout
    assert "in-general-normal: true" in stdout


def test_cones_sparse_origin(capsys):
    code, stdout, _ = run_cli(["cones", "--set", "sparse:n=2,s=1", "--x", "0,0",
                               "--v", "1,1"], capsys)
    assert code == cli.EXIT_OK
    assert f"dist-regular-normal: {math.sqrt(2):.17g}"[:30] in stdout
    assert "tangent-projection: (1, 0)" in stdout


def test_cones_zero_vector(capsys):
    code, stdout, _ = run_cli(["cones", "--set", "psd:n=3,r=1", "--x", "0,0,0,0,0,0,0,0,0",
                               "--v", "0,0,0,0,0,0,0,0,0"], capsys)
    assert code == cli.EXIT_OK
    assert "dist-regular-normal: 0" in stdout
    assert "in-general-normal: true" in stdout
    assert "tangent-projection: unavailable" in stdout


def test_check_suites_pass(capsys):
    for suite, trials in (("projected-translation", 300),
                          ("prox-equals-regular", 4),
                          ("armijo-postcondition", 8)):
        code, stdout, _ = run_cli(["check", "--suite", suite, "--seed", "7",
                                   "--trials", str(trials)], capsys)
        assert code == cli.EXIT_OK, suite
        assert f"suite {suite}: PASS (seed=7)" in stdout


def test_solve_matrix_target(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = ["solve", "--set", "lowrank:m=2,n=2,r=1",
            "--objective", "least-squares:target=2,0,0,1",
            "--x0", "1,0,0,0", "--alpha-min", "1", "--alpha-max", "1",
            "--c", "0.1", "--out", str(out)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    cols = read_trace_csv(str(out))
    assert len(cols["iter"]) == 2
    assert cols["x0"][-1] == pytest.approx(2.0, abs=1e-9)
    assert cols["x3"][-1] == pytest.approx(0.0, abs=1e-9)
    assert "classification=P-stationary" in stdout


def test_solve_tall_lowrank(tmp_path, capsys):
    # More rows than columns: the cone queries once indexed past the row space.
    out = tmp_path / "trace.csv"
    target = ",".join(str(v) for v in range(1, 19))
    args = ["solve", "--set", "lowrank:m=6,n=3,r=1",
            "--objective", f"least-squares:target={target}",
            "--x0", ",".join(["0"] * 18), "--out", str(out)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert "classification=P-stationary" in stdout
    assert len(read_trace_csv(str(out))["iter"]) == 2


def test_solve_p2gd_on_unsupported_set_is_usage_error(capsys):
    args = ["solve", "--set", "psd:n=3,r=1", "--algorithm", "p2gd",
            "--objective", "least-squares:target=1,0,0,0,1,0,0,0,0",
            "--x0", "1,0,0,0,0,0,0,0,0"]
    code, _, stderr = run_cli(args, capsys)
    assert code == cli.EXIT_USAGE
    assert "tangent projection" in stderr


def test_solve_emit_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    code, _, _ = run_cli(SOLVE_ARGS + ["--out", str(tmp_path / "t.csv"),
                                       "--emit-plot-data", str(plot)], capsys)
    assert code == cli.EXIT_OK
    lines = plot.read_text().splitlines()
    assert lines[0] == "algorithm,iter,x0,x1,target0,target1"
    assert lines[1].startswith("pgd,0,")


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_the_trace_and_the_plot_data_cannot_share_a_file(command, tmp_path, capsys, monkeypatch):
    # Two spellings of one path; the command stops before its solvers run.
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "pgd", None)
    monkeypatch.setattr(cli, "p2gd", None)
    argv = [command] + SOLVE_ARGS[1:] + ["--out", "sub/../same.csv",
                                         "--emit-plot-data", str(tmp_path / "same.csv")]
    assert run_cli(argv, capsys) == (
        cli.EXIT_USAGE, "", f"error: field 'emit_plot_data': names the file that field 'out' "
                            f"writes, got {str(tmp_path / 'same.csv')!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["sub"]


def test_compare_plot_data_costs_no_gradient(tmp_path, capsys, monkeypatch):
    # The README compare run: both CSV writers share one set of line-search targets.
    args = ["compare", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
            "--x0", "0,1", "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05",
            "--out", str(tmp_path / "compare.csv")]
    calls = []
    grad = Objective.grad
    monkeypatch.setattr(Objective, "grad", lambda self, x: calls.append(x) or grad(self, x))
    assert run_cli(args, capsys)[0] == cli.EXIT_OK
    without = len(calls)
    del calls[:]
    assert run_cli(args + ["--emit-plot-data", str(tmp_path / "arrows.csv")], capsys)[0] == cli.EXIT_OK
    assert len(calls) == without
    rows = (tmp_path / "arrows.csv").read_text().splitlines()[1:]
    # One solver gradient per iterate, one per line-search target (every row
    # of a trace but its last), and one each for the summary and the
    # apocalypse report of each trace.
    assert without == 2 * len(rows) - 2 + 2 * 2


def test_exit_code_usage_error(capsys):
    code, _, stderr = run_cli(["solve", "--set", "ball:r=1", "--objective",
                               "least-squares:target=1,0", "--x0", "0,1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown set kind" in stderr
    code, _, _ = run_cli(["check", "--suite", "nonexistent"], capsys)
    assert code == cli.EXIT_USAGE


def test_exit_code_missing_required_field(capsys):
    code, _, stderr = run_cli(["solve", "--objective", "least-squares:target=1,0",
                               "--x0", "0,1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "field 'set' is required" in stderr


def test_exit_code_infeasible_start(capsys):
    code, _, stderr = run_cli(["solve", "--set", "sparse:n=2,s=1",
                               "--objective", "least-squares:target=1,0",
                               "--x0", "1,1"], capsys)
    assert code == cli.EXIT_INFEASIBLE
    assert "x0 is not on" in stderr


def test_exit_code_backtrack_failure(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = ["solve", "--set", "sparse:n=2,s=1", "--objective", "quartic",
            "--x0", "0,10", "--alpha-min", "1", "--alpha-max", "1",
            "--c", "0.9", "--max-backtracks", "1", "--out", str(out)]
    code, stdout, _ = run_cli(args, capsys)
    assert code == cli.EXIT_SOLVER
    assert "termination=backtrack-failure" in stdout


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_overflowed_classification_tol_is_an_error_not_a_label(command, capsys):
    # 10 * stat_tol overflows to inf; the spec check names the field before the solver runs.
    code, stdout, stderr = run_cli([command, "--set", "sparse:n=2,s=1",
                                    "--objective", "least-squares:target=1,0",
                                    "--x0", "0,1", "--stat-tol", "1e308"], capsys)
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert stderr == ("error: field 'stat_tol': the classification tolerance 10 * stat_tol "
                      "overflows, got '1e308'\n")


def test_exit_code_suite_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "always-fails",
                        (lambda seed, trials: (False, ["made-up counterexample"]), 1))
    code, stdout, _ = run_cli(["check", "--suite", "always-fails"], capsys)
    assert code == cli.EXIT_SUITE
    assert "FAIL" in stdout
    assert "counterexample" in stdout


def test_bad_field_diagnostics(capsys):
    cases = [
        (["solve", "--set", "sparse:n=2,s=1", "--objective", "cubic",
          "--x0", "0,1"], "objective"),
        (["solve", "--set", "sparse:n=2,s=1",
          "--objective", "least-squares:target=1,0,3", "--x0", "0,1"], "target"),
        (["solve", "--set", "sparse:n=2,s=1",
          "--objective", "least-squares:target=1,0", "--x0", "0,1",
          "--rule", "median:k=2"], "rule"),
    ]
    for argv, needle in cases:
        code, _, stderr = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert needle in stderr


def test_epigraph_unit_step_stops_on_exact_projection(capsys):
    # The unit step lands on the projection of a target below the left ray;
    # an inexact projection there leaves a residual above stat_tol and the
    # same step repeats until max_iters.
    args = ["solve", "--set", "epigraph",
            "--objective", "least-squares:target=-0.2155971630897659,-2.019986129147251",
            "--x0=0.32864814425747113,0.6846540092344633", "--max-iters", "50"]
    code, _, stderr = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert "termination=stationary-at-tol steps=1 " in stderr


def _modules_after(code):
    """The scipy and ncpgd.sets.* modules a fresh interpreter holds after code."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code += ("; import sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('ncpgd.sets.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_pulls_in_no_scipy():
    for code in ("import ncpgd", "import ncpgd.cli"):
        assert _modules_after(code) == "['ncpgd.sets.base']"


@pytest.mark.parametrize("spec, module", [
    ("sparse:n=2,s=1", "sparse"), ("nonneg-sparse:n=2,s=1", "sparse"),
    ("lowrank:m=3,n=2,r=1", "lowrank"), ("psd:n=2,r=1", "lowrank"),
    ("curve", "curves"), ("epigraph", "curves")])
def test_a_set_spec_loads_only_its_set_module(spec, module):
    code = f"import ncpgd.cli; ncpgd.sets.from_spec({spec!r})"
    assert _modules_after(code) == str(["ncpgd.sets.base", f"ncpgd.sets.{module}"])


def _main_block_callees(module) -> list:
    """The functions of module that its `if __name__ == "__main__":` block calls."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    return [getattr(module, node.func.id) for node in ast.walk(block)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]


def test_installed_entry_point_smoke(tmp_path):
    env = dict(os.environ, NCPGD_LOG="quiet")
    out = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ncpgd.cli"] + SOLVE_ARGS + ["--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.exists()
    proc = subprocess.run([sys.executable, "-m", "ncpgd.cli", "cones", "--set", "curve",
                           "--x", "0,0", "--v", "0,-1"],
                          capture_output=True, text=True,
                          env=dict(os.environ, NCPGD_LOG="debug"))
    assert proc.returncode == 0
    assert "proximal-member (closed form): true" in proc.stdout

    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["ncpgd"].partition(":")
    script = getattr(importlib.import_module(module), name)
    assert _main_block_callees(cli) == [script]


# The sitecustomize of every entry-point child: it notes each run of an atexit callback
# registered before the command, and the os._exit call with whether gc has frozen objects,
# in report.txt beside it.
_CHILD_SITE = """\
import atexit, gc, os

def _note(line):
    with open(os.path.join(os.path.dirname(__file__), "report.txt"), "a") as fh:
        fh.write(line + "\\n")

atexit.register(_note, "atexit")
_os_exit = os._exit

def _exit(code):
    _note(f"os._exit({code}) frozen={gc.get_freeze_count() > 0}")
    _os_exit(code)

os._exit = _exit
"""

# A process entry point, as the command that runs it on the arguments that follow.
ENTRY_POINTS = {
    # What the installed `ncpgd` script does.
    "run": [sys.executable, "-c", "import sys; from ncpgd.cli import run; sys.exit(run())"],
    "python-m": [sys.executable, "-m", "ncpgd.cli"],
}
# The interpreter's own exit after main returns: the end of a process without cli.run.
MAIN_EXIT = [sys.executable, "-c", "import sys; from ncpgd.cli import main; sys.exit(main())"]

README_COMPARE = ["compare", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
                  "--x0", "0,1", "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05"]
BACKTRACK_FAILURE = ["solve", "--set", "sparse:n=2,s=1", "--objective", "quartic",
                     "--x0", "0,10", "--alpha-min", "1", "--alpha-max", "1",
                     "--c", "0.9", "--max-backtracks", "1"]
# About 1000 rows of about 120 bytes on stdout, more than a pipe holds.
LARGE_CSV = ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
             "--x0", "0,1", "--alpha-min", "1e-4", "--alpha-max", "1e-4", "--max-iters", "1000"]


def _workdir(tmp_path, name):
    workdir = tmp_path / name
    (workdir / "site").mkdir(parents=True)
    (workdir / "site" / "sitecustomize.py").write_text(_CHILD_SITE)
    return workdir


def _outputs(workdir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in workdir.iterdir() if path.is_file()}


def _child(command, argv, workdir, stdout=subprocess.PIPE):
    """command run on argv in a fresh interpreter in workdir, with _CHILD_SITE, block-buffered
    stdout and the default log level: (exit code, stdout, stderr, output files, report lines)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(workdir / "site"), src]))
    for name in ("PYTHONUNBUFFERED", "NCPGD_LOG"):
        env.pop(name, None)
    proc = subprocess.run(command + argv, cwd=workdir, env=env, stdout=stdout,
                          stderr=subprocess.PIPE)
    report = workdir / "site" / "report.txt"
    lines = report.read_text().splitlines() if report.exists() else []
    return proc.returncode, proc.stdout, proc.stderr, _outputs(workdir), lines


def _main_in_process(argv, workdir, capsys, monkeypatch):
    """(exit code, stdout, stderr, output files) of cli.main in this process, run in workdir.
    The root logger has no handler during the call, so that main's own logging
    configuration writes its lines to the captured stderr, as in a process."""
    def no_exit(code):
        raise AssertionError(f"cli.main ended the process with os._exit({code})")

    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("NCPGD_LOG", raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(os, "_exit", no_exit)
        patch.setattr(logging.root, "handlers", [])
        code, out, err = run_cli(argv, capsys)
    return code, out.encode(), err.encode(), _outputs(workdir)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, code", [
    (SOLVE_ARGS, cli.EXIT_OK),
    (SOLVE_ARGS + ["--out", "t.csv", "--emit-plot-data", "p.csv"], cli.EXIT_OK),
    (README_COMPARE, cli.EXIT_OK),
    (README_COMPARE + ["--out", "c.csv", "--emit-plot-data", "p.csv"], cli.EXIT_OK),
    (["cones", "--set", "curve", "--x", "0,0", "--v", "1,0"], cli.EXIT_OK),
    (["check", "--suite", "projected-translation", "--trials", "12"], cli.EXIT_OK),
    (SOLVE_ARGS + ["--max-it", "3"], cli.EXIT_USAGE),
    (["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
      "--x0", "1,1", "--out", "t.csv"], cli.EXIT_INFEASIBLE),
    (BACKTRACK_FAILURE, cli.EXIT_SOLVER),
    (BACKTRACK_FAILURE + ["--out", "t.csv"], cli.EXIT_SOLVER),
    (LARGE_CSV, cli.EXIT_OK),
], ids=["solve", "solve-files", "compare", "compare-files", "cones", "check",
        "usage", "infeasible", "backtrack", "backtrack-file", "large-csv"])
def test_an_entry_point_ends_as_main_returns(entry, argv, code, tmp_path, capsys, monkeypatch):
    # The exit code, stdout, stderr and output files of main, after the atexit
    # callback the child registered (once), a flush, and os._exit with gc frozen.
    expected = _main_in_process(argv, tmp_path / "main", capsys, monkeypatch)
    assert expected[0] == code
    assert argv != LARGE_CSV or len(expected[1]) > 64 * 1024
    *seen, report = _child(ENTRY_POINTS[entry], argv, _workdir(tmp_path, entry))
    assert tuple(seen) == expected
    assert report == ["atexit", f"os._exit({code}) frozen=True"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv", [["cones", "--set", "curve", "--x", "0,0", "--v", "1,0"],
                                  LARGE_CSV], ids=["short", "large"])
def test_a_closed_stdout_reader_sees_the_interpreters_exit(entry, argv, tmp_path):
    # The reader of stdout is gone before the child starts. A short output
    # fails at the flush in run, which returns, so that the interpreter reports
    # the broken pipe as it does after main returns; a large one fails in main.
    # Either way the atexit callback runs once.
    def closed_reader_child(command, workdir):
        read, write = os.pipe()
        os.close(read)
        try:
            return _child(command, argv, workdir, stdout=write)
        finally:
            os.close(write)

    *expected, report = closed_reader_child(MAIN_EXIT, _workdir(tmp_path, "main"))
    assert expected[0] == (120 if argv[0] == "cones" else cli.EXIT_USAGE)
    assert expected[2].endswith(b" Broken pipe\n")
    assert report == ["atexit"]
    *seen, report = closed_reader_child(ENTRY_POINTS[entry], _workdir(tmp_path, entry))
    assert seen == expected
    assert report.count("atexit") == 1


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_process_started_without_stdout_ends_as_main_returns(entry, tmp_path):
    # With file descriptor 1 closed, sys.stdout is None and print drops its text.
    no_stdout = ["sh", "-c", 'exec "$@" >&-', "sh"]
    argv = ["cones", "--set", "curve", "--x", "0,0", "--v", "1,0"]
    *expected, report = _child(no_stdout + MAIN_EXIT, argv, _workdir(tmp_path, "main"))
    assert expected[:3] == [cli.EXIT_OK, b"", b""]
    assert report == ["atexit"]
    *seen, report = _child(no_stdout + ENTRY_POINTS[entry], argv, _workdir(tmp_path, entry))
    assert seen == expected
    assert report == ["atexit", "os._exit(0) frozen=True"]


def test_python_m_logs_under_the_package_logger_name(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("NCPGD_LOG", None)
    proc = subprocess.run([sys.executable, "-m", "ncpgd.cli"] + SOLVE_ARGS + ["--out", "t.csv"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "INFO ncpgd.cli: trace written to t.csv\n"


def test_every_main_call_applies_its_own_log_level(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    argv = SOLVE_ARGS + ["--out", str(tmp_path / "trace.csv")]
    code = ("import os, sys\n"
            "from ncpgd import cli\n"
            "for level in ('quiet', 'debug', 'quiet'):\n"
            "    os.environ['NCPGD_LOG'] = level\n"
            "    print('--', level, file=sys.stderr)\n"
            f"    assert cli.main({argv!r}) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    _, quiet, debug, quiet_again = proc.stderr.split("-- ")
    assert quiet == quiet_again == "quiet\n"
    assert debug.startswith("debug\nDEBUG ncpgd.solver: iter 1: ")
    assert debug.endswith(f"INFO ncpgd.cli: trace written to {argv[-1]}\n")
