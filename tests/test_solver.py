import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncpgd import (
    AverageRule,
    BacktrackError,
    InfeasiblePointError,
    LowRankSet,
    MaxRule,
    Objective,
    Point,
    SolverConfig,
    SparseSet,
    Termination,
    constant,
    inner,
    least_squares,
    norm,
    p2gd,
    pgd,
    pgd_map,
)

TWO_AXIS = SparseSet(2, 1)
TARGET = Point.vector([1.0, 0.0])
OBJ = least_squares(TARGET)
START = Point.vector([0.0, 1.0])


def fixed_step_config(alpha, c, rule=MaxRule(0), **kw):
    return SolverConfig(alpha_min=alpha, alpha_max=alpha, beta=0.5, c=c, rule=rule, **kw)


# -- Armijo reference updates -------------------------------------------------


def test_max_rule_reference_examples():
    assert MaxRule(1).reference([3, 1, 2], math.nan) == 2
    assert MaxRule(5).reference([3, 1, 2], math.nan) == 3
    assert MaxRule(0).reference([3, 1, 2], math.nan) == 2
    assert MaxRule(0).reference([3], math.nan) == 3


def test_average_rule_reference_examples():
    assert AverageRule(0.5).reference([0.0], 2.0) == 1.0
    assert AverageRule(1.0).reference([5.0, 0.7], 2.0) == 0.7
    assert AverageRule(0.25).reference([1.0, 3.0], 3.0) == 3.0


@given(st.floats(min_value=-100, max_value=100), st.floats(min_value=-100, max_value=100),
       st.floats(min_value=1e-6, max_value=1.0))
def test_average_rule_reference_is_convex_combination(mu_prev, f_xi, p):
    mu = AverageRule(p).reference([f_xi], mu_prev)
    lo, hi = min(mu_prev, f_xi), max(mu_prev, f_xi)
    assert lo - 1e-9 <= mu <= hi + 1e-9
    if f_xi <= mu_prev:
        assert mu <= mu_prev + 1e-9


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=20))
def test_max_rule_reference_clips_window(history, window):
    i = len(history) - 1
    assert MaxRule(window).reference(history, math.nan) == max(history[max(0, i - window):])


def test_rule_reference_validation():
    with pytest.raises(ValueError):
        MaxRule(0).reference([], 1.0)
    with pytest.raises(ValueError):
        MaxRule(-1)
    with pytest.raises(ValueError):
        AverageRule(0.0)


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha_min=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha_min=2.0, alpha_max=1.0)
    with pytest.raises(ValueError):
        SolverConfig(beta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(c=0.0)
    with pytest.raises(ValueError):
        SolverConfig(stat_tol=0.0)
    with pytest.raises(ValueError):
        MaxRule(-1)
    with pytest.raises(ValueError):
        AverageRule(0.0)
    with pytest.raises(ValueError, match="stat_tol must be positive, got nan"):
        SolverConfig(stat_tol=math.nan)
    with pytest.raises(ValueError, match="stat_tol must be finite, got inf"):
        SolverConfig(stat_tol=math.inf)
    for bad in (1.5, 2.0):
        with pytest.raises(TypeError, match="window must be an integer"):
            MaxRule(bad)
    with pytest.raises(TypeError, match="max_iters must be an integer"):
        SolverConfig(max_iters=2.5)
    with pytest.raises(TypeError, match="max_backtracks must be an integer"):
        SolverConfig(max_backtracks=1.5)
    assert MaxRule(np.int64(2)).reference([3, 1, 2, 0], math.nan) == 2
    assert SolverConfig(max_iters=np.int64(3), max_backtracks=np.int32(4)).max_iters == 3


# -- one line-search step -----------------------------------------------------


def test_pgd_map_unit_step_jumps_between_axes():
    cfg = fixed_step_config(1.0, 0.4)
    step = pgd_map(TWO_AXIS, OBJ, START, mu=1.0, cfg=cfg)
    assert np.allclose(step.y.data, [1.0, 0.0], atol=1e-15)
    assert step.backtracks == 0
    assert step.alpha_accepted == 1.0
    assert step.armijo_lhs <= step.armijo_rhs


def test_pgd_map_small_step_stays_on_axis():
    cfg = fixed_step_config(0.45, 0.1)
    step = pgd_map(TWO_AXIS, OBJ, START, mu=OBJ.eval(START), cfg=cfg)
    assert np.allclose(step.y.data, [0.0, 0.55], atol=1e-15)
    assert step.backtracks == 0


def test_pgd_map_constant_objective_fixes_point():
    cfg = fixed_step_config(1.0, 0.5)
    x = Point.vector([0.0, 0.7])
    step = pgd_map(TWO_AXIS, constant(2.0), x, mu=2.0, cfg=cfg)
    assert np.array_equal(step.y.data, x.data)
    assert step.backtracks == 0


def test_pgd_map_rejects_low_reference():
    cfg = fixed_step_config(1.0, 0.4)
    with pytest.raises(ValueError):
        pgd_map(TWO_AXIS, OBJ, START, mu=0.5, cfg=cfg)


def test_pgd_map_backtrack_budget():
    steep = Objective(lambda p: 500.0 * float(np.dot(p.data - TARGET.data, p.data - TARGET.data)),
                      lambda p: Point(1000.0 * (p.data - TARGET.data), p.shape),
                      name="steep")
    cfg = fixed_step_config(1.0, 0.9, max_backtracks=3)
    with pytest.raises(BacktrackError):
        pgd_map(TWO_AXIS, steep, START, mu=steep.eval(START), cfg=cfg)


def test_pgd_map_alpha_is_exact_power_of_beta():
    steep = Objective(lambda p: 50.0 * float(np.dot(p.data - TARGET.data, p.data - TARGET.data)),
                      lambda p: Point(100.0 * (p.data - TARGET.data), p.shape),
                      name="steep")
    cfg = fixed_step_config(1.0, 0.5)
    step = pgd_map(TWO_AXIS, steep, START, mu=steep.eval(START), cfg=cfg)
    assert step.backtracks > 0
    assert step.alpha_accepted == 1.0 * cfg.beta ** step.backtracks


# -- full runs on the two-axis instance ---------------------------------------


def test_pgd_unit_step_finite_sequence():
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(1.0, 0.4))
    assert len(trace) == 2
    assert np.allclose(trace.iterates[0].data, [0.0, 1.0], atol=1e-15)
    assert np.allclose(trace.iterates[1].data, [1.0, 0.0], atol=1e-15)
    assert trace.termination is Termination.STATIONARY_AT_TOL


def test_pgd_small_step_switches_axes_at_known_index():
    alpha = 0.45
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(alpha, 0.05, max_iters=40))
    i_star = math.floor(math.log(alpha) / math.log(1.0 - alpha))
    assert i_star == 1
    for i in range(i_star + 1):
        assert np.allclose(trace.iterates[i].data, [0.0, (1 - alpha) ** i], atol=1e-12)
    for j, x in enumerate(trace.iterates[i_star + 1:]):
        assert np.allclose(x.data, [1.0 - (1 - alpha) ** (j + 1), 0.0], atol=1e-12)
    assert trace.termination is Termination.STATIONARY_AT_TOL
    assert abs(trace.iterates[-1].data[0] - 1.0) <= 1e-8


def test_pgd_stationary_start_gives_single_row():
    trace = pgd(TWO_AXIS, OBJ, TARGET, fixed_step_config(1.0, 0.4))
    assert len(trace) == 1
    assert trace.termination is Termination.STATIONARY_AT_TOL
    assert trace.stat_measures == [0.0]
    assert math.isnan(trace.alphas[0])


def test_pgd_constant_objective_single_row():
    trace = pgd(TWO_AXIS, constant(), START, fixed_step_config(1.0, 0.4))
    assert len(trace) == 1


def test_pgd_infeasible_start_raises():
    with pytest.raises(InfeasiblePointError):
        pgd(TWO_AXIS, OBJ, Point.vector([1.0, 1.0]), fixed_step_config(1.0, 0.4))


def test_pgd_backtrack_failure_termination():
    steep = Objective(lambda p: 500.0 * float(np.dot(p.data - TARGET.data, p.data - TARGET.data)),
                      lambda p: Point(1000.0 * (p.data - TARGET.data), p.shape),
                      name="steep")
    trace = pgd(TWO_AXIS, steep, START, fixed_step_config(1.0, 0.9, max_backtracks=3))
    assert trace.termination is Termination.BACKTRACK_FAILURE


def test_pgd_proximal_stationarity_mode():
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, max_iters=60),
                stationarity="proximal")
    assert trace.termination is Termination.STATIONARY_AT_TOL
    assert abs(trace.iterates[-1].data[0] - 1.0) <= 1e-7
    with pytest.raises(ValueError):
        pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05), stationarity="bogus")


def test_pgd_tie_case_accepts_either_resolution():
    # alpha chosen so the axis-switch projection is exactly two-valued.
    alpha = (3.0 - math.sqrt(5.0)) / 2.0
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(alpha, 0.05, max_iters=60))
    axis_len = 0
    while axis_len < len(trace) and abs(trace.iterates[axis_len].data[0]) <= 1e-12:
        axis_len += 1
    m = 2  # log(alpha)/log(1-alpha) for this alpha
    assert axis_len - 1 in (m - 1, m)
    for i in range(axis_len):
        assert np.allclose(trace.iterates[i].data, [0.0, (1 - alpha) ** i], atol=1e-12)
    for j in range(axis_len, len(trace)):
        expected = 1.0 - (1 - alpha) ** (j - axis_len + 1)
        assert np.allclose(trace.iterates[j].data, [expected, 0.0], atol=1e-12)


# -- tangent-space variant ----------------------------------------------------


def test_p2gd_unit_step_visits_the_kink():
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(1.0, 0.4))
    assert len(trace) == 3
    assert np.allclose(trace.iterates[1].data, [0.0, 0.0], atol=1e-15)
    assert np.allclose(trace.iterates[2].data, [1.0, 0.0], atol=1e-15)
    assert trace.termination is Termination.STATIONARY_AT_TOL


def test_p2gd_small_step_decays_to_the_kink():
    alpha = 0.45
    trace = p2gd(TWO_AXIS, OBJ, START, fixed_step_config(alpha, 0.05, max_iters=25,
                                                         stat_tol=1e-300))
    assert trace.termination is Termination.MAX_ITERS
    for i, x in enumerate(trace.iterates):
        assert np.allclose(x.data, [0.0, (1 - alpha) ** i], atol=1e-12)


@pytest.mark.parametrize("rule", [MaxRule(3), AverageRule(0.5)], ids=repr)
def test_p2gd_keeps_the_monotone_reference_whatever_the_rule(rule, rng):
    low_rank = LowRankSet(4, 3, 2)
    target = Point(rng.standard_normal(12), (4, 3))
    runs = [(TWO_AXIS, OBJ, START, fixed_step_config(0.45, 0.05, rule=rule, max_iters=25)),
            (low_rank, least_squares(target), low_rank.random_point(rng),
             SolverConfig(rule=rule, max_iters=50))]
    for set_, obj, x0, cfg in runs:
        trace = p2gd(set_, obj, x0, cfg)
        assert len(trace) > 2
        assert trace.mu_values == trace.f_values


def test_p2gd_zero_gradient_start():
    trace = p2gd(TWO_AXIS, OBJ, TARGET, fixed_step_config(0.45, 0.05))
    assert len(trace) == 1
    assert trace.termination is Termination.STATIONARY_AT_TOL


# -- trace invariants ---------------------------------------------------------


def random_instance(rng, t):
    sets_pool = [SparseSet(5, 2), LowRankSet(3, 3, 1)]
    set_ = sets_pool[t % len(sets_pool)]
    target = Point(rng.standard_normal(int(np.prod(set_.ambient_shape))), set_.ambient_shape)
    rules = [MaxRule(0), MaxRule(2), AverageRule(0.5), AverageRule(1.0)]
    alpha = float(rng.choice([0.3, 0.7, 1.0, 1.3]))
    cfg = SolverConfig(alpha_min=1e-4, alpha_max=alpha, beta=0.5,
                       c=float(rng.choice([1e-4, 0.1])), rule=rules[t % len(rules)],
                       stat_tol=1e-8, max_iters=400)
    return set_, least_squares(target), set_.random_point(rng), cfg


def test_trace_invariants_on_random_runs(rng):
    for t in range(24):
        set_, obj, x0, cfg = random_instance(rng, t)
        trace = pgd(set_, obj, x0, cfg)
        n = len(trace)
        assert (len(trace.f_values) == len(trace.mu_values) == len(trace.alphas)
                == len(trace.backtrack_counts) == len(trace.stat_measures) == n)
        f0 = trace.f_values[0]
        slack = 1e-10 * max(1.0, abs(f0))
        for i in range(n):
            assert set_.contains(trace.iterates[i])
            assert trace.mu_values[i] >= trace.f_values[i] - slack
            assert trace.f_values[i] <= f0 + slack  # initial sublevel set
        for i in range(1, n):
            assert 0.0 < trace.alphas[i] <= cfg.alpha_max
            assert trace.alphas[i] == cfg.alpha_max * cfg.beta ** trace.backtrack_counts[i]
            gap = trace.iterates[i] - trace.iterates[i - 1]
            rhs = trace.mu_values[i - 1] + cfg.c * inner(obj.grad(trace.iterates[i - 1]), gap)
            assert trace.f_values[i] <= rhs + slack
            decay = trace.mu_values[i - 1] - cfg.c / (2.0 * trace.alphas[i]) * norm(gap) ** 2
            assert trace.f_values[i] <= decay + slack
        if isinstance(cfg.rule, MaxRule):
            w, f = cfg.rule.window, trace.f_values
            window = [max(f[max(0, i - w):i + 1]) for i in range(n)]
            for i in range(1, n):
                assert window[i] <= window[i - 1] + slack
        else:
            for i in range(1, n):
                assert trace.mu_values[i] <= trace.mu_values[i - 1] + slack


def test_successive_iterate_gaps_shrink_along_converging_run():
    trace = pgd(TWO_AXIS, OBJ, START, fixed_step_config(0.3, 0.05, max_iters=200))
    gaps = [norm(trace.iterates[i] - trace.iterates[i - 1]) for i in range(1, len(trace))]
    q = len(gaps) // 4
    assert q >= 2
    assert max(gaps[-q:]) < max(gaps[:q])
