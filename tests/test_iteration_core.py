"""The shared iteration core: evaluation counts, the unchecked Point path, golden outputs.

pgd and p2gd evaluate the gradient once per iterate and f once per trial
point, and log the same warning and per-step debug line; arithmetic on points
skips the constructor's parsing but keeps its finiteness check; and the
refactor reproduces the committed README outputs and a plain-numpy replay of
both solvers on both sparse sets bit for bit. A digest pins their traces on
the matrix and curve sets.
"""

import hashlib
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpgd import (
    AverageRule,
    MaxRule,
    NonnegSparseSet,
    Objective,
    Point,
    ShapeError,
    SolverConfig,
    SparseSet,
    Termination,
    least_squares,
    norm,
    p2gd,
    pgd,
    pgd_map,
)
from ncpgd import cli, core
from ncpgd.sets import from_spec

from helpers import memo, replay_sparse_p2gd, replay_sparse_pgd

GOLDEN = Path(__file__).parent / "golden"


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


# -- evaluation counts ----------------------------------------------------------


class Counted:
    """An objective whose value and gradient callables count their calls."""

    def __init__(self, obj):
        self.f_calls = 0
        self.grad_calls = 0

        def ev(x):
            self.f_calls += 1
            return obj.eval(x)

        def gr(x):
            self.grad_calls += 1
            return obj.grad(x)

        self.obj = Objective(ev, gr, name="counted")


def _sparse_instance(seed, n=12, s=3):
    rng = np.random.default_rng(seed)
    return SparseSet(n, s), least_squares(Point(rng.standard_normal(n))), Point.zeros((n,))


RULES = [MaxRule(0), MaxRule(3), AverageRule(0.5)]


@pytest.mark.parametrize("solve", [pgd, p2gd], ids=["pgd", "p2gd"])
@pytest.mark.parametrize("rule", RULES, ids=repr)
@pytest.mark.parametrize("alpha_max", [0.7, 2.5])
def test_one_gradient_per_iterate_and_one_f_per_trial(solve, rule, alpha_max):
    backtracked = False
    for seed in range(3):
        set_, obj, x0 = _sparse_instance(seed)
        counted = Counted(obj)
        trace = solve(set_, counted.obj, x0, SolverConfig(alpha_max=alpha_max, rule=rule))
        assert trace.termination is not Termination.BACKTRACK_FAILURE
        assert counted.grad_calls == len(trace)
        assert counted.f_calls == len(trace) + sum(trace.backtrack_counts)
        backtracked |= sum(trace.backtrack_counts) > 0
    # A step above 2 overshoots on least squares, so the searches backtrack.
    assert backtracked or alpha_max < 1.0


@pytest.mark.parametrize("solve", [pgd, p2gd], ids=["pgd", "p2gd"])
def test_counts_of_a_failed_line_search(solve):
    # A gradient of the wrong sign: no trial step ever passes Armijo.
    wrong = Objective(lambda x: 0.5 * float(x.data @ x.data), lambda x: -x, name="wrong-grad")
    counted = Counted(wrong)
    cfg = SolverConfig(max_backtracks=5)
    trace = solve(SparseSet(3, 2), counted.obj, Point([1.0, 2.0, 0.0]), cfg)
    assert trace.termination is Termination.BACKTRACK_FAILURE
    assert counted.grad_calls == len(trace)
    failed_trials = cfg.max_backtracks + 1
    assert counted.f_calls == len(trace) + sum(trace.backtrack_counts) + failed_trials


@pytest.mark.parametrize("solve", [pgd, p2gd], ids=["pgd", "p2gd"])
def test_a_failed_line_search_logs_one_warning(solve, caplog):
    wrong = Objective(lambda x: 0.5 * float(x.data @ x.data), lambda x: -x, name="wrong-grad")
    caplog.set_level(logging.DEBUG, logger="ncpgd.solver")
    trace = solve(SparseSet(3, 2), wrong, Point([1.0, 2.0, 0.0]), SolverConfig(max_backtracks=5))
    assert trace.termination is Termination.BACKTRACK_FAILURE
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("ncpgd.solver", logging.WARNING,
         "backtracking stalled at iteration 0: no Armijo step after 5 backtracks (alpha=3.125e-02)")]


@pytest.mark.parametrize("solve", [pgd, p2gd], ids=["pgd", "p2gd"])
def test_each_accepted_step_logs_one_debug_line(solve, caplog):
    set_, obj, x0 = _sparse_instance(0)
    caplog.set_level(logging.DEBUG, logger="ncpgd.solver")
    trace = solve(set_, obj, x0, SolverConfig(alpha_max=2.5))
    assert len(trace) > 2 and sum(trace.backtrack_counts) > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"iter {k}: f={trace.f_values[k]:.6e} alpha={trace.alphas[k]:.3e} "
        f"backtracks={trace.backtrack_counts[k]} stat={trace.stat_measures[k - 1]:.3e}"
        for k in range(1, len(trace))]
    assert {r.levelno for r in caplog.records} == {logging.DEBUG}


def test_standalone_pgd_map_evaluates_what_it_is_not_given():
    set_, obj, x = _sparse_instance(4)
    x = set_.project(Point(np.random.default_rng(4).standard_normal(12)))
    cfg = SolverConfig(alpha_max=1.9)
    counted = Counted(obj)
    step = pgd_map(set_, counted.obj, x, obj.eval(x), cfg)
    assert step.backtracks > 0
    assert counted.grad_calls == 1
    assert counted.f_calls == 1 + step.backtracks + 1

    counted = Counted(obj)
    given_step = pgd_map(set_, counted.obj, x, obj.eval(x), cfg, fx=obj.eval(x), g=obj.grad(x))
    assert counted.grad_calls == 0
    assert counted.f_calls == step.backtracks + 1
    assert _bits(given_step.y.data).tolist() == _bits(step.y.data).tolist()
    assert (given_step.alpha_accepted, given_step.backtracks, given_step.armijo_lhs,
            given_step.armijo_rhs) == (step.alpha_accepted, step.backtracks, step.armijo_lhs,
                                       step.armijo_rhs)


def test_pgd_map_checks_mu_against_the_given_f():
    set_, obj, x = _sparse_instance(5)
    with pytest.raises(ValueError, match="below f"):
        pgd_map(set_, obj, x, 0.0, SolverConfig(), fx=1.0)


# -- the unchecked Point path keeps the safety checks ----------------------------


def test_overflowing_arithmetic_still_raises():
    big = Point([1e308])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        big + big
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        -big - big
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        big * 10.0
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        10.0 * big


class _MirrorProjection(SparseSet):
    """A stub whose "projection" mirrors the first coordinate, so x - project(x) can overflow."""

    def project(self, x):
        return Point([-x.data[0], 0.0])


def test_overflowing_differences_in_f_and_contains_still_raise():
    big, zero = Point([1e308, 0.0]), Point([0.0, 0.0])
    obj = least_squares(Point([-1e308, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        obj.eval(big)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        _MirrorProjection(2, 1).contains(big)
    # A finite difference whose square overflows is an infinite f or distance.
    with np.errstate(over="ignore"):
        assert least_squares(zero).eval(Point([1e200, 0.0])) == math.inf
        assert not _MirrorProjection(2, 1).contains(Point([1e200, 0.0]))
    with pytest.raises(ShapeError):
        obj.eval(Point([1.0]))


@pytest.fixture
def finite_tests(monkeypatch):
    """A list that grows by one entry per call of core._finite."""
    calls = []
    real = core._finite

    def counted(flat):
        calls.append(flat.size)
        return real(flat)

    monkeypatch.setattr(core, "_finite", counted)
    return calls


def _compressed_sensing(seed, n=200, s=10, rows=80):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, n)) / math.sqrt(rows)
    x_true = np.zeros(n)
    x_true[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    b = A @ x_true
    # f works on the coordinates; the gradient is one Point(...) per call.
    obj = Objective(lambda x: 0.5 * float(np.sum((A @ x.data - b) ** 2)),
                    lambda x: Point(A.T @ (A @ x.data - b), x.shape), name="compressed-sensing")
    return SparseSet(n, s), obj


@pytest.mark.parametrize("solve", [pgd, p2gd], ids=["pgd", "p2gd"])
def test_one_finiteness_test_per_trial_point_and_gradient(solve, finite_tests):
    set_, obj = _compressed_sensing(3)
    x0 = Point.zeros((set_.n,))
    finite_tests.clear()
    trace = solve(set_, obj, x0, SolverConfig(alpha_max=1.5, max_iters=40, rule=MaxRule(2)))
    assert trace.termination is not Termination.BACKTRACK_FAILURE
    trials = len(trace) - 1 + sum(trace.backtrack_counts)
    assert sum(trace.backtrack_counts) > 0
    # One test per trial point x + alpha*d and one per gradient Point(...).
    # The start check, contains(x0), forms no Point of x0 - project(x0), and
    # projections, tangent projections and -grad are not tested again.
    assert len(finite_tests) == trials + len(trace)


def test_least_squares_values_and_the_start_check_test_no_finiteness(finite_tests):
    set_ = from_spec("sparse:n=200,s=10")
    obj = least_squares(Point(np.random.default_rng(8).standard_normal(200)))
    x0 = Point.zeros((200,))
    finite_tests.clear()
    trace = pgd(set_, obj, x0, SolverConfig(alpha_max=1.9, max_iters=25))
    trials = len(trace) - 1 + sum(trace.backtrack_counts)
    assert trials > 1
    # f works on the arrays and contains(x0) forms no Point, so only the trial
    # points and the gradients x - target are tested.
    assert len(finite_tests) == trials + len(trace)


def test_negation_and_sparse_projections_skip_the_finiteness_test(finite_tests):
    x = Point([0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    v = Point([1.0, -2.0, 0.5, 4.0, -7.0, 0.0])
    finite_tests.clear()
    outs = [-v]
    for set_ in (SparseSet(6, 2), NonnegSparseSet(6, 2)):
        outs += [set_.project(v), set_.project_tangent(x, v)]
    for out in outs:
        assert not out.data.flags.writeable
    assert finite_tests == []
    x + v
    assert finite_tests == [6]


def test_pgd_map_given_the_negative_gradient_steps_the_same():
    set_, obj, _ = _sparse_instance(6)
    x = set_.project(Point(np.random.default_rng(6).standard_normal(12)))
    cfg = SolverConfig(alpha_max=1.9)
    g = obj.grad(x)
    plain = pgd_map(set_, obj, x, obj.eval(x), cfg)
    given_v = pgd_map(set_, obj, x, obj.eval(x), cfg, g=g, v=-g)
    assert _bits(given_v.y.data).tolist() == _bits(plain.y.data).tolist()
    assert given_v[1:] == plain[1:]


def test_arithmetic_results_are_read_only_and_carry_no_factors():
    x, y = Point([[1.0, 2.0], [3.0, 4.0]]), Point([[0.5, -1.0], [2.0, 0.0]])
    for z in (x + y, x - y, -x, 2.0 * x, x * 0.5):
        assert z.shape == (2, 2)
        assert not z.data.flags.writeable
        assert memo(z) is None
        with pytest.raises(ValueError):
            z.data[0] = 7.0
        with pytest.raises(AttributeError):
            z.shape = (4,)


def test_constructor_copies_and_flattens_row_major():
    src = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    p = Point(src)
    src[0, 0] = 99.0
    assert p.data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert p.data.flags.c_contiguous and not p.data.flags.writeable
    assert Point(p.data, (3, 2)).as_array().tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


shapes = st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 4), st.integers(1, 4)))
coords = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


@st.composite
def point_pairs(draw):
    shape = draw(shapes)
    size = math.prod(shape)
    a = np.array(draw(st.lists(coords, min_size=size, max_size=size)))
    b = np.array(draw(st.lists(coords, min_size=size, max_size=size)))
    scalar = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    return shape, a, b, scalar


@given(point_pairs())
def test_operators_equal_the_validating_constructor_bitwise(case):
    shape, a, b, scalar = case
    x, y = Point(a, shape), Point(b, shape)
    for got, want in ((x + y, Point(a + b, shape)), (x - y, Point(a - b, shape)),
                      (-x, Point(-a, shape)), (x * scalar, Point(a * scalar, shape)),
                      (scalar * x, Point(a * scalar, shape))):
        assert got.shape == want.shape
        assert np.array_equal(_bits(got.data), _bits(want.data))


@given(st.lists(coords, min_size=1, max_size=40))
def test_norm_is_numpy_norm_bitwise(values):
    a = np.array(values)
    assert _bits([norm(Point(a))]) == _bits([np.linalg.norm(a)])


# -- golden outputs ----------------------------------------------------------------


SOLVE = ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
         "--x0", "0,1", "--alpha-min", "1", "--alpha-max", "1", "--c", "0.4",
         "--rule", "max:l=0"]
COMPARE = ["compare", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0",
           "--x0", "0,1", "--alpha-min", "0.45", "--alpha-max", "0.45", "--c", "0.05"]


def test_readme_solve_matches_golden_bytes(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert cli.main(SOLVE + ["--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "solve.txt").read_text()
    assert out.read_bytes() == (GOLDEN / "trace.csv").read_bytes()


def test_readme_compare_matches_golden_bytes(tmp_path, capsys):
    out, arrows = tmp_path / "compare.csv", tmp_path / "arrows.csv"
    assert cli.main(COMPARE + ["--out", str(out), "--emit-plot-data", str(arrows)]) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "compare.txt").read_text()
    assert out.read_bytes() == (GOLDEN / "compare.csv").read_bytes()
    assert arrows.read_bytes() == (GOLDEN / "arrows.csv").read_bytes()


def _sensing_instance(seed, n=16, s=3, rows=10, cls=SparseSet):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, n)) / math.sqrt(rows)
    truth = np.zeros(n)
    truth[rng.choice(n, size=s, replace=False)] = rng.standard_normal(s)
    b = A @ truth + 0.01 * rng.standard_normal(rows)

    def ev(x):
        r = A @ x.data - b
        return 0.5 * float(r @ r)

    def gr(x):
        return Point(A.T @ (A @ x.data - b), x.shape)

    return A, b, cls(n, s), Objective(ev, gr, name="sensing")


def _assert_trace_equals(trace, replay):
    xs, fs, mus, alphas, bts, stats, termination = replay
    assert trace.termination.value == termination
    assert len(trace) == len(xs)
    for got, want in zip(trace.iterates, xs):
        assert np.array_equal(_bits(got.data), _bits(want))
    assert trace.f_values == fs
    assert trace.mu_values == mus
    assert _bits(trace.alphas).tolist() == _bits(alphas).tolist()
    assert trace.backtrack_counts == bts
    assert trace.stat_measures == stats


def _check_pgd_replay(seed, rule, cls):
    A, b, set_, obj = _sensing_instance(seed, cls=cls)
    cfg = SolverConfig(alpha_max=3.0, rule=rule, max_iters=60)
    trace = pgd(set_, obj, Point.zeros((set_.n,)), cfg)
    window = rule.window if isinstance(rule, MaxRule) else None
    weight = rule.weight if isinstance(rule, AverageRule) else None
    replay = replay_sparse_pgd(A, b, set_.s, np.zeros(set_.n), alpha=cfg.alpha_max, beta=cfg.beta,
                               c=cfg.c, window=window, weight=weight, stat_tol=cfg.stat_tol,
                               max_iters=cfg.max_iters, max_backtracks=cfg.max_backtracks,
                               nonneg=cls is NonnegSparseSet)
    assert len(trace) > 3 and sum(trace.backtrack_counts) > 0
    _assert_trace_equals(trace, replay)


def _check_p2gd_replay(seed, cls):
    A, b, set_, obj = _sensing_instance(seed, cls=cls)
    cfg = SolverConfig(alpha_max=3.0, max_iters=60)
    trace = p2gd(set_, obj, Point.zeros((set_.n,)), cfg)
    replay = replay_sparse_p2gd(A, b, set_.s, np.zeros(set_.n), alpha=cfg.alpha_max, beta=cfg.beta,
                                c=cfg.c, stat_tol=cfg.stat_tol, max_iters=cfg.max_iters,
                                max_backtracks=cfg.max_backtracks, nonneg=cls is NonnegSparseSet)
    assert len(trace) > 3 and sum(trace.backtrack_counts) > 0
    _assert_trace_equals(trace, replay)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rule", RULES, ids=repr)
def test_pgd_replays_bit_for_bit(seed, rule):
    _check_pgd_replay(seed, rule, SparseSet)


@pytest.mark.parametrize("seed", range(4))
def test_p2gd_replays_bit_for_bit(seed):
    _check_p2gd_replay(seed, SparseSet)


# On the nonnegative set the selection runs on clamped vectors, whose k-th
# largest entry is a repeated 0 when fewer than s entries are positive (the
# tied branch of _top_indices): at x0 = 0, and in some of p2gd's tangent
# projections.


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rule", RULES, ids=repr)
def test_nonneg_pgd_replays_bit_for_bit(seed, rule):
    _check_pgd_replay(seed, rule, NonnegSparseSet)


@pytest.mark.parametrize("seed", range(4))
def test_nonneg_p2gd_replays_bit_for_bit(seed):
    _check_p2gd_replay(seed, NonnegSparseSet)


# -- traces on the matrix and curve sets ------------------------------------------

# Seeded least-squares runs on the sets without a replay oracle. alpha_max 2.5
# overshoots, so the searches backtrack; p2gd has no tangent projection on psd.
DIGEST_RUNS = [(spec, algorithm) for spec in ("lowrank:m=6,n=5,r=2", "curve", "epigraph")
               for algorithm in ("regular", "proximal", "p2gd")]
DIGEST_RUNS += [("psd:n=5,r=2", "regular"), ("psd:n=5,r=2", "proximal")]
TRACE_DIGEST = "717fff7baa5638ee13c6c2c329c6664cae5e59406c720b851b7676736d87e6a9"


def _trace_digest_runs():
    for spec, algorithm in DIGEST_RUNS:
        for rule in RULES:
            for seed in range(2):
                set_ = from_spec(spec)
                shape = set_.ambient_shape
                rng = np.random.default_rng(seed)
                obj = least_squares(Point(rng.standard_normal(shape), shape))
                x0 = set_.project(Point(rng.standard_normal(shape), shape))
                cfg = SolverConfig(alpha_max=2.5, rule=rule, max_iters=40)
                if algorithm == "p2gd":
                    trace = p2gd(set_, obj, x0, cfg)
                else:
                    trace = pgd(set_, obj, x0, cfg, stationarity=algorithm)
                yield f"{spec} {algorithm} {rule!r} {seed}", trace


def test_traces_match_pinned_digest():
    # One SHA-256 over every Trace field of every run: iterate shapes and
    # bytes, f, mu, alpha, backtracks, stationarity measures and termination.
    digest = hashlib.sha256()
    terminations = set()
    backtracks = 0
    for label, trace in _trace_digest_runs():
        digest.update(f"{label} {trace.termination.value} {len(trace)}\n".encode())
        for x in trace.iterates:
            digest.update(repr(x.shape).encode())
            digest.update(np.ascontiguousarray(x.data, dtype=float).tobytes())
        for values in (trace.f_values, trace.mu_values, trace.alphas, trace.stat_measures):
            digest.update(np.array(values, dtype=float).tobytes())
        digest.update(np.array(trace.backtrack_counts, dtype=np.int64).tobytes())
        terminations.add(trace.termination)
        backtracks += sum(trace.backtrack_counts)
    assert terminations == {Termination.STATIONARY_AT_TOL, Termination.MAX_ITERS}
    assert backtracks > 0
    assert digest.hexdigest() == TRACE_DIGEST
