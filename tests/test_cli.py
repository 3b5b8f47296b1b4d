import ast
import dataclasses
import gc
import importlib
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


def _config_from(argv):
    return cli.build_solver_config(cli.merge_spec(cli.build_parser().parse_args(argv)))


def test_solver_defaults_come_from_solver_config():
    assert cli.build_solver_config({}) == SolverConfig()
    assert _config_from(["solve"]) == SolverConfig()


# A non-default text for every SolverConfig field; a field without a CLI
# entry fails the test below.
FIELD_TEXT = {"alpha_min": "0.25", "alpha_max": "0.5", "beta": "0.3", "c": "0.2",
              "rule": "avg:p=0.5", "stat_tol": "1e-6", "max_iters": "7",
              "max_backtracks": "9"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)])
def test_every_solver_field_is_a_flag_and_a_config_key(name, tmp_path):
    flag = name.replace("_", "-")
    from_flag = _config_from(["compare", f"--{flag}", FIELD_TEXT[name]])
    value = getattr(from_flag, name)
    assert value != getattr(SolverConfig(), name)
    assert from_flag == dataclasses.replace(SolverConfig(), **{name: value})
    for key in {name, flag}:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {FIELD_TEXT[name]}\n")
        assert _config_from(["compare", "--config", str(cfg)]) == from_flag


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
    # x0 is off the set: the choice is checked before the problem is built.
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


def test_installed_entry_point_smoke(tmp_path, capsys):
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

    for argv in (SOLVE_ARGS + ["--out", str(out)],
                 ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
                  "--x0", "1,1"]):
        code = ("import gc\n"
                "from ncpgd import cli\n"
                f"print(cli.run({argv!r}), gc.get_freeze_count())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        returned, frozen = proc.stdout.split()[-2:]
        assert int(returned) == run_cli(argv, capsys)[0]
        assert int(frozen) > 0

    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["ncpgd"].partition(":")
    script = getattr(importlib.import_module(module), name)
    assert _main_block_callees(cli) == [script]


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
