import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    InnerCapError,
    LambdaBoundError,
    LambdaSchedule,
    LevelSetError,
    Point,
    ProxConfig,
    clarke_subdiff,
    dist,
    estimate_sup_lipschitz,
    eval_f,
    eval_f_many,
    log_positive,
    make_problem,
    prox_step,
    solve,
    with_prox_term,
)
from proxmax.oracle import GridSpec, grid_minimize
from proxmax.problems import region_samples
from proxmax.prox import inner_solve

LP1 = log_positive(1)


def _pt(x):
    return Point(LP1, [x])


# schedules


def test_schedule_constant_in_range():
    s = LambdaSchedule(lower=0.3, upper=2.0, constant=1.0)
    assert s.at(0) == 1.0
    assert s.at(10) == 1.0


def test_schedule_rejects_weight_at_or_below_lower():
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=0.3)
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=0.1)
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=2.5)


def test_schedule_value_list_repeats_last():
    s = LambdaSchedule(lower=0.0, upper=10.0, values=[1.0, 2.0, 3.0])
    assert [s.at(k) for k in range(5)] == [1.0, 2.0, 3.0, 3.0, 3.0]
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.0, upper=10.0, values=[1.0, 0.0])


def test_schedule_default_scales_lipschitz():
    s = LambdaSchedule.default(0.34, 1e6)
    assert s.at(0) == pytest.approx(0.51, rel=1e-12)
    # degenerate curvature falls back to a unit weight
    assert LambdaSchedule.default(0.0, 1e6).at(0) == 1.0
    # the cap wins when the scaled weight would exceed it
    assert LambdaSchedule.default(10.0, 12.0).at(0) == 12.0


def test_prox_config_validation():
    with pytest.raises(ValueError):
        ProxConfig(outer_tol=-1.0)
    with pytest.raises(ValueError):
        ProxConfig(max_outer=0)


# single proximal steps against closed forms


def test_prox_step_abs_shrinks_by_one():
    prob = make_problem("abs")
    m = prob.objective.manifold
    cfg = ProxConfig()
    p_next, iters = prox_step(prob.objective, Point(m, [5.0]), 1.0, cfg)
    assert_allclose(p_next.coords, [4.0], atol=1e-9)
    assert iters >= 1


def test_prox_step_abs_clamps_at_zero():
    prob = make_problem("abs")
    m = prob.objective.manifold
    p_next, _ = prox_step(prob.objective, Point(m, [0.5]), 1.0, ProxConfig())
    assert_allclose(p_next.coords, [0.0], atol=1e-9)


def test_prox_step_quadratic_closed_form():
    prob = make_problem("quadratic")
    m = prob.objective.manifold
    for lam, x0 in [(1.0, 1.0), (3.0, 1.0), (0.5, -2.0)]:
        p_next, _ = prox_step(prob.objective, Point(m, [x0]), lam, ProxConfig())
        assert_allclose(p_next.coords, [lam * x0 / (1.0 + lam)], atol=1e-10)


def test_prox_step_requires_weight_above_curvature(log_example):
    with pytest.raises(LambdaBoundError):
        prox_step(log_example.objective, _pt(0.5), 0.2, ProxConfig(), lipschitz=0.34)


def test_prox_step_rejects_unknown_curvature():
    prob = make_problem("quadratic")
    m = prob.objective.manifold
    obj = prob.objective
    # strip the declared bound
    from dataclasses import replace

    bare = replace(obj, lipschitz_bound=None)
    with pytest.raises(LambdaBoundError):
        prox_step(bare, Point(m, [1.0]), 1.0, ProxConfig())


def test_prox_step_out_of_domain_start(log_example):
    with pytest.raises(DomainError):
        prox_step(log_example.objective, _pt(0.05), 0.6, ProxConfig(), lipschitz=0.34)


def test_prox_step_fixed_at_minimizer(log_example):
    p_next, _ = prox_step(log_example.objective, _pt(1.0), 0.6, ProxConfig(), lipschitz=0.34)
    assert dist(p_next, _pt(1.0)) <= 1e-9


def test_prox_step_captures_kink_from_start(log_example):
    p_next, _ = prox_step(log_example.objective, _pt(0.3125), 0.51, ProxConfig(), lipschitz=0.34)
    assert dist(p_next, _pt(1.0)) <= 1e-6


def test_certified_step_lands_on_the_kink(log_example):
    # a loose tolerance certifies an iterate about 1e-6 from the kink; the
    # solver returns that iterate's own model step, which lands on it
    cfg = ProxConfig(inner_tol=1e-4)
    p_next, _ = prox_step(log_example.objective, _pt(0.3125), 0.51, cfg, lipschitz=0.34)
    assert dist(p_next, _pt(1.0)) <= 1e-12


def test_prox_step_matches_grid_search(log_example):
    # dual route: the inner solver against a dense grid plus golden refinement
    obj = log_example.objective
    lam = 0.6
    for x0 in (0.5, 2.0, 3.5):
        p_k = _pt(x0)
        p_next, _ = prox_step(obj, p_k, lam, ProxConfig(), lipschitz=0.34)
        shifted = with_prox_term(obj, p_k, lam)
        grid = GridSpec(lower=np.array([0.1251]), upper=np.array([4.0]), points_per_dim=5001)
        g_pt, g_val = grid_minimize(lambda X: eval_f_many(shifted, X), grid, LP1)
        assert dist(p_next, g_pt) <= 1e-6
        assert eval_f(shifted, p_next)[0] <= g_val + 1e-10


def test_smooth_prox_steps_take_few_inner_steps(log_example):
    # far from the kink both branches are nearly affine in the chart, so h
    # curves like lam alone; the first model's lam + 0.34 would converge linearly
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(log_example.objective, _pt(1e3), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert max(r.inner_iters for r in trace.records) <= 5
    # quadratic declares the bound 0, below its curvature 1
    quad = make_problem("quadratic")
    for lam in (0.5, 3.0):
        _, iters = prox_step(quad.objective, quad.start, lam, ProxConfig())
        assert iters <= 3


# full runs


def test_solve_log_example_reaches_kink(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(log_example.objective, _pt(0.3125), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert dist(trace.final_point(), _pt(1.0)) <= 1e-8
    assert trace.iterations <= 10


def test_solve_abs_walks_unit_steps():
    prob = make_problem("abs")
    m = prob.objective.manifold
    sched = LambdaSchedule(lower=0.0, upper=10.0, constant=1.0)
    trace = solve(prob.objective, Point(m, [5.0]), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    xs = [r.point.coords[0] for r in trace.records]
    assert_allclose(xs, [4.0, 3.0, 2.0, 1.0, 0.0, 0.0], atol=1e-8)


def test_solve_quadratic_halves_each_step():
    prob = make_problem("quadratic")
    m = prob.objective.manifold
    sched = LambdaSchedule(lower=0.0, upper=10.0, constant=1.0)
    trace = solve(prob.objective, Point(m, [1.0]), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    xs = [r.point.coords[0] for r in trace.records]
    assert_allclose(xs[:3], [0.5, 0.25, 0.125], atol=1e-10)
    # residual lam*|x_k - x_{k+1}| = 2^-(k+1) crosses 1e-8 at k=27
    assert trace.iterations == 27


def test_solve_stationary_start_stops_immediately(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(log_example.objective, _pt(1.0), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert trace.iterations == 1
    assert trace.records[0].residual <= 1e-8


def test_solve_max_iters():
    prob = make_problem("quadratic")
    m = prob.objective.manifold
    sched = LambdaSchedule(lower=0.0, upper=10.0, constant=1.0)
    trace = solve(prob.objective, Point(m, [1.0]), sched, ProxConfig(max_outer=3))
    assert trace.termination.kind == "max_iters"
    assert trace.iterations == 3


def test_solve_invalid_start_raises(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    with pytest.raises(DomainError):
        solve(log_example.objective, _pt(0.05), sched, ProxConfig())


def test_trace_invariants(log_example, hull_distance):
    obj = log_example.objective
    lam = 0.6
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=lam)
    cfg = ProxConfig()
    start = _pt(2.5)
    trace = solve(obj, start, sched, cfg)
    assert trace.termination.kind == "stationary"

    f_prev, _ = eval_f(obj, start)
    p_prev = start
    sum_sq = 0.0
    for rec in trace.records:
        # residual is the weighted step length
        assert rec.residual == pytest.approx(lam * rec.step_dist, rel=1e-12, abs=1e-300)
        assert rec.step_dist == pytest.approx(dist(p_prev, rec.point), rel=1e-12, abs=1e-300)
        # monotone descent with the proximal quadratic as margin
        assert rec.f_value <= f_prev - 0.5 * lam * rec.step_dist**2 + 1e-7
        # optimality certificate: the weighted return tangent lam * log_x(p_prev),
        # x ln(p_prev / x) on the half-line, lies in the hull
        x = rec.point.coords
        cert = lam * (x * np.log(p_prev.coords / x))
        hull = clarke_subdiff(obj, rec.point)
        assert hull_distance(hull, cert) <= cfg.inner_tol + 1e-9
        sum_sq += rec.step_dist**2
        f_prev, p_prev = rec.f_value, rec.point

    f0, _ = eval_f(obj, start)
    assert sum_sq <= 2.0 / lam * (f0 - trace.final_f()) + 1e-6
    assert trace.iterations == len(trace.records)
    assert trace.final_f() == trace.records[-1].f_value


# level guard


def test_level_guard_error_mode(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    # reference with smaller objective value than the start
    with pytest.raises(LevelSetError):
        solve(log_example.objective, _pt(0.3125), sched, ProxConfig(), level_ref=_pt(1.0))


def test_level_guard_accepts_higher_reference(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(
        log_example.objective, _pt(0.75), sched, ProxConfig(), level_ref=_pt(0.3125)
    )
    assert trace.termination.kind == "stationary"


# the inner iteration cap, reached on purpose through a tiny max_inner: the
# first step moves, the second is not yet certified


def test_inner_cap_carries_best_iterate():
    prob = make_problem({"name": "paper_example_product", "n": 2})
    obj = prob.objective
    start = prob.start
    cfg = ProxConfig(max_inner=2)
    with pytest.raises(InnerCapError) as info:
        prox_step(obj, start, 0.51, cfg, lipschitz=0.34)
    err = info.value
    assert err.iterations == cfg.max_inner
    assert err.certificate > cfg.inner_tol
    shifted = with_prox_term(obj, start, 0.51)
    h_best, _ = eval_f(shifted, err.best)
    h_start, _ = eval_f(shifted, start)
    assert h_best < h_start


def test_solve_reports_inner_cap_as_error():
    prob = make_problem({"name": "paper_example_product", "n": 2})
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(prob.objective, prob.start, sched, ProxConfig(max_inner=2))
    assert trace.termination.kind == "error"
    assert "inner" in trace.termination.message
    assert trace.iterations == 0
    assert dist(trace.final_point(), prob.start) == 0.0
    # the failed step's last inner iterate and its certificate survive
    assert dist(trace.best, prob.start) > 0.0
    assert trace.best_residual > ProxConfig().inner_tol


def test_inner_solve_stops_at_a_step_below_float_resolution():
    # at 1e300 the unit step of abs rounds away: z - 1 == z, so the state never changes
    prob = make_problem("abs")
    start = Point(prob.objective.manifold, [1e300])
    with pytest.raises(InnerCapError, match="below the floating-point resolution") as info:
        inner_solve(prob.objective, start, 1.0, 0.0, ProxConfig())
    err = info.value
    assert err.iterations == 1
    assert err.best.coords.tolist() == [1e300]
    assert err.certificate == 1.0


def test_solve_names_a_non_finite_branch_gradient(log_example):
    # x**2 overflows in the gradient of either branch at x = 1e200
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    with np.errstate(over="ignore"):
        trace = solve(log_example.objective, _pt(1e200), sched, ProxConfig())
    assert trace.termination.kind == "error"
    assert trace.termination.message == "DomainError: branch gradient is non-finite at [1e+200]"
    assert trace.iterations == 0


def test_successful_solve_carries_no_best_iterate(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(log_example.objective, log_example.start, sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert trace.best is None and trace.best_residual is None


# finite termination at sharp minima (Ferris 1991)


@pytest.mark.parametrize("x0", [5.0, 5.3, 50.7])
def test_abs_terminates_after_ceil_steps(x0):
    prob = make_problem("abs")
    lam = 1.0
    sched = LambdaSchedule(lower=0.0, upper=10.0, constant=lam)
    trace = solve(prob.objective, Point(prob.objective.manifold, [x0]), sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert trace.iterations == int(np.ceil(lam * abs(x0))) + 1
    assert abs(trace.final_point().coords[0]) <= 1e-12


def test_paper_example_lands_on_the_kink_in_one_step(log_example):
    lip = estimate_sup_lipschitz(log_example.objective, region_samples(log_example, 64))
    sched = LambdaSchedule.default(lip, 1e6)
    trace = solve(log_example.objective, log_example.start, sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert trace.iterations == 2
    assert abs(trace.records[0].point.coords[0] - 1.0) <= 1e-10
    # the second step stays put, up to rounding
    assert trace.records[1].step_dist <= 1e-15


def test_half_line_prox_steps_take_few_inner_steps():
    # the start range and epsilon range of the half_line benchmark workload
    for eps in (0.1001, 0.11, 0.125):
        prob = make_problem({"name": "paper_example", "epsilon": eps})
        lip = estimate_sup_lipschitz(prob.objective, region_samples(prob, 64))
        sched = LambdaSchedule.default(lip, 1e6)
        for x0 in np.exp(np.linspace(np.log(0.13), np.log(4.0), 41)):
            trace = solve(prob.objective, _pt(x0), sched, ProxConfig())
            assert trace.termination.kind == "stationary"
            assert abs(trace.final_point().coords[0] - 1.0) <= 1e-10
            assert max(r.inner_iters for r in trace.records) <= 10
