import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    Evaluation,
    InnerCapError,
    LambdaBoundError,
    LambdaSchedule,
    LevelSetError,
    MaxObjective,
    ParamSet,
    Point,
    ProxConfig,
    clarke_subdiff,
    dist,
    estimate_sup_lipschitz,
    eval_f,
    eval_f_many,
    euclidean,
    evaluate,
    log_positive,
    make_problem,
    min_norm_subgradient,
    prox_step,
    solve,
    to_chart,
    with_prox_term,
)
from proxmax.objective import branch_grads, eval_branches
from proxmax.oracle import grid_minimize
from proxmax.problems import region_samples
from proxmax.prox import inner_solve

LP1 = log_positive(1)


def _pt(x):
    return Point(LP1, [x])


def _at(problem, x):
    return evaluate(problem.objective, _pt(x))


# schedules


def test_schedule_constant_in_range():
    s = LambdaSchedule(lower=0.3, upper=2.0, constant=1)
    assert s.constant == 1.0 and isinstance(s.constant, float)


def test_schedule_rejects_weight_at_or_below_lower():
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=0.3)
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=0.1)
    with pytest.raises(LambdaBoundError):
        LambdaSchedule(lower=0.3, upper=2.0, constant=2.5)


def test_schedule_default_scales_lipschitz():
    s = LambdaSchedule.default(0.34, 1e6)
    assert s.constant == pytest.approx(0.51, rel=1e-12)
    # degenerate curvature falls back to a unit weight
    assert LambdaSchedule.default(0.0, 1e6).constant == 1.0
    # the cap wins when the scaled weight would exceed it
    assert LambdaSchedule.default(10.0, 12.0).constant == 12.0
    # default is the schedule at auto_weight
    assert LambdaSchedule.auto_weight(0.34, 1e6) == s.constant
    assert LambdaSchedule.auto_weight(0.0, 1e6) == 1.0
    assert LambdaSchedule.auto_weight(10.0, 12.0) == 12.0


def test_prox_config_validation():
    with pytest.raises(ValueError):
        ProxConfig(outer_tol=-1.0)
    with pytest.raises(ValueError):
        ProxConfig(max_outer=0)
    # a NaN tolerance never stops a run, an infinite one stops every inner
    # solve after one step, and a float or bool cap is not a count
    for field, value in [
        ("outer_tol", float("nan")),
        ("inner_tol", float("inf")),
        ("max_outer", 2.5),
        ("max_inner", True),
    ]:
        with pytest.raises(ValueError, match=field):
            ProxConfig(**{field: value})


# single proximal steps against closed forms


def test_prox_step_abs_shrinks_by_one():
    prob = make_problem("abs")
    m = prob.objective.manifold
    cfg = ProxConfig()
    at = evaluate(prob.objective, Point(m, [5.0]))
    p_next, iters = prox_step(prob.objective, at, 1.0, cfg, lipschitz=0.0)
    assert_allclose(p_next.point.coords, [4.0], atol=1e-9)
    assert iters >= 1


def test_prox_step_abs_clamps_at_zero():
    prob = make_problem("abs")
    m = prob.objective.manifold
    at = evaluate(prob.objective, Point(m, [0.5]))
    p_next, _ = prox_step(prob.objective, at, 1.0, ProxConfig(), lipschitz=0.0)
    assert_allclose(p_next.point.coords, [0.0], atol=1e-9)


def test_prox_step_quadratic_closed_form():
    prob = make_problem("quadratic")
    m = prob.objective.manifold
    for lam, x0 in [(1.0, 1.0), (3.0, 1.0), (0.5, -2.0)]:
        at = evaluate(prob.objective, Point(m, [x0]))
        p_next, _ = prox_step(prob.objective, at, lam, ProxConfig(), lipschitz=0.0)
        assert_allclose(p_next.point.coords, [lam * x0 / (1.0 + lam)], atol=1e-10)


def test_prox_step_requires_weight_above_curvature(log_example):
    with pytest.raises(LambdaBoundError):
        prox_step(log_example.objective, _at(log_example, 0.5), 0.2, ProxConfig(), lipschitz=0.34)


def test_prox_step_out_of_domain_start(log_example):
    # evaluate checks the domain, so no step starts from an inadmissible centre
    with pytest.raises(DomainError):
        prox_step(log_example.objective, _at(log_example, 0.05), 0.6, ProxConfig(), lipschitz=0.34)


def test_prox_step_fixed_at_minimizer(log_example):
    at = _at(log_example, 1.0)
    p_next, _ = prox_step(log_example.objective, at, 0.6, ProxConfig(), lipschitz=0.34)
    assert dist(p_next.point, _pt(1.0)) <= 1e-9


def test_prox_step_captures_kink_from_start(log_example):
    at = _at(log_example, 0.3125)
    p_next, _ = prox_step(log_example.objective, at, 0.51, ProxConfig(), lipschitz=0.34)
    assert dist(p_next.point, _pt(1.0)) <= 1e-6


def test_certified_step_lands_on_the_kink(log_example):
    # a loose tolerance certifies an iterate about 1e-6 from the kink; the
    # solver returns that iterate's own model step, which lands on it
    cfg = ProxConfig(inner_tol=1e-4)
    at = _at(log_example, 0.3125)
    p_next, _ = prox_step(log_example.objective, at, 0.51, cfg, lipschitz=0.34)
    assert dist(p_next.point, _pt(1.0)) <= 1e-12


def test_prox_step_matches_grid_search(log_example):
    # dual route: the inner solver against a dense grid plus finer grids
    obj = log_example.objective
    lam = 0.6
    for x0 in (0.5, 2.0, 3.5):
        p_k = _pt(x0)
        p_next = prox_step(obj, evaluate(obj, p_k), lam, ProxConfig(), lipschitz=0.34)[0].point
        shifted = with_prox_term(obj, to_chart(p_k), lam)
        g_z, g_val = grid_minimize(
            lambda Z: eval_f_many(shifted, Z), LP1, np.log(0.1251), np.log(4.0), 5001
        )
        assert np.abs(to_chart(p_next) - g_z).max() <= 1e-6
        assert eval_f(shifted, p_next) <= g_val + 1e-10


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
        at = evaluate(quad.objective, quad.start)
        _, iters = prox_step(quad.objective, at, lam, ProxConfig(), lipschitz=0.0)
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

    # the records against the same steps replayed on chart rows
    f_prev = eval_f(obj, start)
    at = evaluate(obj, start)
    sum_sq = 0.0
    for rec in trace.records:
        nxt = prox_step(obj, at, lam, cfg, lipschitz=0.34)[0]
        assert rec.point.coords.tolist() == nxt.point.coords.tolist()
        # residual is the weighted step length, the chart distance of the step
        assert rec.residual == pytest.approx(lam * rec.step_dist, rel=1e-12, abs=1e-300)
        step = float(np.linalg.norm(nxt.z - at.z))
        assert rec.step_dist == pytest.approx(step, rel=1e-12, abs=1e-300)
        # monotone descent with the proximal quadratic as margin
        assert rec.f_value <= f_prev - 0.5 * lam * rec.step_dist**2 + 1e-7
        # optimality certificate: the weighted return tangent lam * log_x(p_prev),
        # the chart difference z_prev - z, lies in the hull
        cert = lam * (at.z - nxt.z)
        hull = clarke_subdiff(obj, rec.point)
        assert hull_distance(hull, cert) <= cfg.inner_tol + 1e-9
        sum_sq += rec.step_dist**2
        f_prev, at = rec.f_value, nxt

    f0 = eval_f(obj, start)
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
        prox_step(obj, evaluate(obj, start), 0.51, cfg, lipschitz=0.34)
    err = info.value
    assert err.iterations == cfg.max_inner
    assert err.certificate > cfg.inner_tol
    shifted = with_prox_term(obj, to_chart(start), 0.51)
    h_best = eval_f(shifted, err.best)
    h_start = eval_f(shifted, start)
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
        inner_solve(prob.objective, evaluate(prob.objective, start), 1.0, 0.0, ProxConfig())
    err = info.value
    assert err.iterations == 1
    assert err.best.coords.tolist() == [1e300]
    assert err.certificate == 1.0


def test_solve_names_a_non_finite_branch_gradient():
    # a branch whose gradient overflows beyond x = 10
    m = euclidean(1)
    obj = MaxObjective(
        manifold=m,
        params=ParamSet([0.0]),
        phi=lambda Z: 0.5 * Z**2,
        grad_phi=lambda Z: np.where(Z > 10.0, np.inf, Z)[:, None, :],
    )
    trace = solve(obj, Point(m, [20.0]), _UNIT, ProxConfig())
    assert trace.termination.kind == "error"
    assert trace.termination.message == (
        "DomainError: branch gradient is non-finite at chart point [20.0]"
    )
    assert trace.iterations == 0


@pytest.mark.parametrize("x0", [1e155, 1e200, 1e300])
def test_solve_from_a_large_start_reaches_the_kink(log_example, x0):
    # in the chart the gradient of the second branch is -1 - 2 e^z e^(-2 e^z),
    # which stays finite at any start; x**2 overflowed above ~1.34e154
    trace = solve(log_example.objective, _pt(x0), _HALF_LINE, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert abs(trace.final_point().coords[0] - 1.0) <= 1e-10


def test_successful_solve_carries_no_best_iterate(log_example):
    sched = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)
    trace = solve(log_example.objective, log_example.start, sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert trace.best is None and trace.best_residual is None


# each iterate is evaluated once: solve carries its branch values and
# gradients from one prox step to the next

_UNIT = LambdaSchedule(lower=0.0, upper=10.0, constant=1.0)
_HALF_LINE = LambdaSchedule(lower=0.34, upper=1e6, constant=0.51)


def _counting(obj):
    """obj with phi and grad_phi wrapped to count their row calls."""
    calls = {"phi": 0, "grad_phi": 0}

    def phi(X):
        calls["phi"] += 1
        return obj.phi(X)

    def grad_phi(X):
        calls["grad_phi"] += 1
        return obj.grad_phi(X)

    return dataclasses.replace(obj, phi=phi, grad_phi=grad_phi), calls


@pytest.mark.parametrize(
    "problem, start, sched, phi_calls, grad_calls",
    [
        # 51 outer steps: one trial and one gradient row per step, plus the
        # start's value for the level guard and its gradient for the first step
        ("abs", [50.0], _UNIT, 52, 51),
        # at the kink f cancels to rounding: a certified step whose model
        # decrease is below it ends its search at the first trial that rises
        ("paper_example", None, _HALF_LINE, 7, 6),
        ({"name": "paper_example_product", "n": 4}, None, _HALF_LINE, 7, 6),
    ],
)
def test_solve_evaluates_each_iterate_once(problem, start, sched, phi_calls, grad_calls):
    prob = make_problem(problem)
    obj, calls = _counting(prob.objective)
    p0 = prob.start if start is None else Point(obj.manifold, start)
    trace = solve(obj, p0, sched, ProxConfig())
    assert trace.termination.kind == "stationary"
    assert calls == {"phi": phi_calls, "grad_phi": grad_calls}


@pytest.mark.parametrize(
    "problem, sched",
    [
        ("abs", _UNIT),
        ("quadratic", _UNIT),
        ("paper_example", _HALF_LINE),
        ({"name": "paper_example_product", "n": 2}, _HALF_LINE),
        ({"name": "paper_example_product", "n": 4}, _HALF_LINE),
        ({"name": "paper_example_product", "n": 8}, _HALF_LINE),
    ],
)
def test_records_carry_the_public_functions_numbers(problem, sched):
    # the carried values and gradients are the ones eval_branches and
    # branch_grads read afresh at each step's chart row, bit for bit, and
    # the ones eval_f and clarke_subdiff read at the record's Point.  Where
    # the chart is the identity that holds bit for bit too.  On the orthant
    # the Point's chart row ln(e^z) differs from z by at most one ulp of
    # max(1, |z_i|) per coordinate; each coordinate's term of f has chart
    # slope below 1 + 1/e < 2, and each of the two sums of n terms rounds by
    # at most n ulps, so f may move by 4n ulps of max(1, |f|, max |z_i|).
    # The minimum-norm subgradient matches bit for bit on both geometries.
    prob = make_problem(problem)
    obj = prob.objective
    cfg = ProxConfig()
    trace = solve(obj, prob.start, sched, cfg)
    assert trace.termination.kind == "stationary"
    at = evaluate(obj, prob.start)
    for rec in trace.records:
        at = prox_step(obj, at, sched.constant, cfg, lipschitz=sched.lower)[0]
        fresh = Evaluation(at.point, at.z, eval_branches(obj, at.z[None])[0],
                           branch_grads(obj, at.z[None])[0])
        assert rec.point.coords.tolist() == at.point.coords.tolist()
        assert rec.f_value == fresh.f
        assert rec.subgrad_norm == min_norm_subgradient(fresh.subdiff())[1]
        assert rec.subgrad_norm == min_norm_subgradient(clarke_subdiff(obj, rec.point))[1]
        if obj.manifold.geometry.value == "euclidean":
            assert rec.f_value == eval_f(obj, rec.point)
        else:
            scale = max(1.0, abs(rec.f_value), float(np.abs(at.z).max()))
            bound = 4 * obj.manifold.dim * np.spacing(scale)
            assert abs(rec.f_value - eval_f(obj, rec.point)) <= bound


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


# a certified step whose model decrease is below the rounding of h: no trial
# can show that decrease, so the search must not run out its 40 halvings


def _phi_rows(obj):
    """obj with phi wrapped to count the rows it reads."""
    rows = [0]

    def phi(Z):
        rows[0] += len(Z)
        return obj.phi(Z)

    return dataclasses.replace(obj, phi=phi), rows


def test_paper_example_default_solve_reads_at_most_8_phi_rows(log_example):
    lip = estimate_sup_lipschitz(log_example.objective, region_samples(log_example, 64))
    obj, rows = _phi_rows(log_example.objective)
    trace = solve(obj, log_example.start, LambdaSchedule.default(lip, 1e6), ProxConfig())
    assert trace.termination.kind == "stationary"
    assert rows[0] <= 8


@pytest.mark.parametrize("n", [1, 2, 4])
def test_certified_step_at_an_exact_zero_of_f_takes_at_most_two_trials(n):
    # at x = (1, ..., 1) every branch of the product is 0 exactly, and so is h
    prob = make_problem({"name": "paper_example_product", "n": n})
    at = evaluate(prob.objective, Point(prob.objective.manifold, np.ones(n)))
    assert at.f == 0.0 and not at.values.any()
    obj, rows = _phi_rows(prob.objective)
    cfg = ProxConfig()
    nxt, steps = inner_solve(obj, at, 0.51, 0.34, cfg)
    assert steps == 1 and rows[0] <= 2
    assert dist(nxt.point, at.point) <= cfg.inner_tol
    # the returned point is certified: a fresh step from it is certified at once
    assert inner_solve(prob.objective, nxt, 0.51, 0.34, cfg)[1] == 1
