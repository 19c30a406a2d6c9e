"""Acceptance gate: ten standalone criteria, one printed pass/fail line each."""

import json
import time

import numpy as np
import pytest

from proxmax import (
    LambdaSchedule,
    Point,
    ProxConfig,
    estimate_sup_lipschitz,
    euclidean,
    eval_f,
    eval_f_many,
    evaluate,
    gen_dir_derivative,
    log_positive,
    make_problem,
    solve,
    to_chart,
    with_prox_term,
)
from proxmax.checks import (
    geometry_deviation,
    gradient_error,
    prox_grid_gaps,
    shifted_convexity,
    sum_rule_mismatch,
)
from proxmax.cli import parse_config, run
from proxmax.manifold import from_chart_rows, row_norms
from proxmax.oracle import grid_minimize, usc_sampler
from proxmax.problems import region_samples
from proxmax.prox import prox_step


@pytest.fixture
def report(capsys):
    def _report(num, label, ok, detail=""):
        line = f"criterion {num:02d} [{label}] {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" - {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def reference_run():
    """Shared solve of the builtin one-dimensional example with the auto weight."""
    prob = make_problem("paper_example")
    samples = region_samples(prob, 64, np.random.default_rng(42))
    lip = estimate_sup_lipschitz(prob.objective, samples)
    sched = LambdaSchedule.default(lip, 1e6)
    t0 = time.perf_counter()
    trace = solve(prob.objective, prob.start, sched, ProxConfig())
    elapsed = time.perf_counter() - t0
    return prob, lip, sched, trace, elapsed


def test_criterion_01_example_reproduction(report, reference_run):
    prob, lip, sched, trace, elapsed = reference_run
    m = prob.objective.manifold
    final = trace.final_point()
    ok = (
        trace.termination.kind == "stationary"
        and abs(final.coords[0] - 1.0) <= 1e-4
        and trace.final_f() <= 1e-8
        and trace.iterations <= 10_000
        and elapsed < 1.0
    )
    # independent confirmation: exhaustive search over the admissible interval's chart
    g_z, g_val = grid_minimize(
        lambda Z: eval_f_many(prob.objective, Z), m, np.log(0.1251), np.log(4.0), 4001
    )
    g_x = float(from_chart_rows(m, g_z)[0])
    ok = ok and abs(g_x - 1.0) <= 1e-6 and g_val <= 1e-8
    report(
        1,
        "example-reproduction",
        ok,
        f"final {final.coords[0]:.10f}, f {trace.final_f():.3e}, "
        f"{trace.iterations} iters in {elapsed * 1e3:.1f} ms, grid min {g_x:.8f}",
    )


def test_criterion_02_certificate_and_step_vanishing(report, reference_run):
    prob, lip, sched, trace, _ = reference_run
    lam_min = min(rec.lam for rec in trace.records)
    f0 = eval_f(prob.objective, prob.start)
    sum_sq = sum(rec.step_dist**2 for rec in trace.records)
    bound = 2.0 * f0 / lam_min + 1e-6
    ok = trace.records[-1].residual <= 1e-8 and sum_sq <= bound
    report(
        2,
        "certificate-step-vanishing",
        ok,
        f"last residual {trace.records[-1].residual:.3e}, "
        f"sum d^2 {sum_sq:.6f} <= {bound:.6f}",
    )


def test_criterion_03_closed_form_euclidean(report):
    abs_prob = make_problem("abs")
    sched = LambdaSchedule(lower=0.0, upper=10.0, constant=1.0)
    trace = solve(abs_prob.objective, abs_prob.start, sched, ProxConfig())
    xs = [abs_prob.start.coords[0]] + [r.point.coords[0] for r in trace.records[:5]]
    abs_ok = np.allclose(xs, [5.0, 4.0, 3.0, 2.0, 1.0, 0.0], atol=1e-8)

    quad = make_problem("quadratic")
    at = evaluate(quad.objective, quad.start)
    quad_err = 0.0
    for k in range(1, 41):
        at, _ = prox_step(quad.objective, at, 1.0, ProxConfig(), lipschitz=0.0)
        quad_err = max(quad_err, abs(at.point.coords[0] - 2.0**-k))
    quad_ok = quad_err <= 1e-8
    report(
        3,
        "closed-form-euclidean",
        abs_ok and quad_ok,
        f"abs iterates {np.round(xs, 10).tolist()}, halving error {quad_err:.3e}",
    )


def test_criterion_04_geometry_suite(report):
    # the chart round trip, dist against the chart norm, and the triangle
    # inequality: three checks per row
    rng = np.random.default_rng(42)
    deviations = []
    for m in (log_positive(2), euclidean(2)):
        # per row: the charts of p, q and r
        draws = rng.uniform(-3.0, 3.0, (2500, 6))
        deviations.append(geometry_deviation(m, *(draws[:, k : k + 2] for k in (0, 2, 4))))
    # np.max keeps a NaN, which fails the bound
    worst = float(np.max(deviations))
    geometry_ok = worst <= 1e-10

    m = log_positive(2)
    # per row: z, then the center; the gradient of |z - c|^2 / 2 at z is z - c
    Z, center = np.split(rng.uniform(-2, 2, (100, 4)), 2, axis=1)
    errors = gradient_error(
        lambda Y: 0.5 * np.float_power(row_norms(Y - center), 2.0), m, Z, Z - center
    )
    worst_grad = float(np.max(errors))
    grad_ok = worst_grad <= 1e-6
    report(
        4,
        "geometry-suite",
        geometry_ok and grad_ok,
        f"15000 checks, worst {worst:.3e} (1e-10); gradient fd worst {worst_grad:.3e} (1e-6)",
    )


def test_criterion_05_shifted_strong_convexity(report, reference_run):
    prob, lip, _, _, _ = reference_run
    lam_pos = lip + 1.0

    def chord_test(lam):
        return shifted_convexity(
            prob, to_chart(prob.start), lam, lam_pos - lip, samples=1000, seed=42
        )

    good = chord_test(lam_pos)
    # negative control: the same modulus with the weight forced to half the
    # curvature bound must produce violations
    bad = chord_test(lip / 2.0)
    ok = good.passed and good.n_violations == 0 and bad.n_violations > 0
    report(
        5,
        "shifted-strong-convexity",
        ok,
        f"lam {lam_pos:.4f}: {good.n_violations} violations in {good.n_checks}; "
        f"forced lam {lip / 2.0:.4f}: {bad.n_violations} violations",
    )


def test_criterion_06_sum_rule(report, reference_run):
    prob, _, _, _, _ = reference_run
    obj = prob.objective
    rng = np.random.default_rng(42)
    center = np.log([0.7])
    lam = 1.3
    shifted = with_prox_term(obj, center, lam)
    X, V = np.empty((100, 1)), np.empty((100, 1))
    for i in range(100):
        X[i] = rng.uniform(-2.0, 1.35)
        V[i] = rng.uniform(-2.0, 2.0, 1)
    worst = float(np.max(sum_rule_mismatch(obj, shifted, center, lam, X, V)))
    report(6, "sum-rule", worst <= 1e-8, f"worst mismatch {worst:.3e} at 100 points")


def test_criterion_07_convex_directional_consistency(report):
    quad = make_problem("quadratic")
    obj = quad.objective
    rng = np.random.default_rng(42)
    t = 1e-6
    X, V = np.empty((100, 1)), np.empty((100, 1))
    for i in range(100):
        X[i] = rng.uniform(-2.0, 2.0, 1)
        V[i] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    exact = gen_dir_derivative(obj, X, V)
    one_sided = (eval_f_many(obj, X + t * V) - eval_f_many(obj, X)) / t
    worst = float(np.max(np.abs(exact - one_sided)))
    report(
        7,
        "convex-directional-consistency",
        worst <= 1e-6,
        f"worst gap {worst:.3e} at 100 points",
    )


def test_criterion_08_prox_grid_equivalence(report, reference_run):
    prob, lip, _, _, _ = reference_run
    obj = prob.objective
    rng = np.random.default_rng(42)
    box = (np.log(0.1251), np.log(4.0))
    worst_pt, worst_val = 0.0, 0.0
    for _ in range(50):
        z_k = np.array([rng.uniform(np.log(0.16), np.log(3.5))])
        lam = float(rng.uniform(0.45, 3.0))
        gap_pt, gap_val = prox_grid_gaps(obj, z_k, lam, lip, ProxConfig(), *box, 2001)
        worst_pt, worst_val = max(worst_pt, gap_pt), max(worst_val, gap_val)
    ok = worst_pt <= 1e-4 and worst_val <= 1e-8
    report(
        8,
        "prox-grid-equivalence",
        ok,
        f"50 subproblems, worst point gap {worst_pt:.3e} (1e-4), "
        f"value gap {worst_val:.3e} (1e-8)",
    )


def test_criterion_09_usc_tail_bound(report, reference_run):
    prob, _, _, _, _ = reference_run
    obj = prob.objective
    p = Point(obj.manifold, [1.0])
    worst = -np.inf
    ok = True
    for sign in (1.0, -1.0):
        rep = usc_sampler(obj, p, [sign], n=1000, seed=42, tolerance=1e-3)
        ok = ok and rep.passed
        worst = max(worst, rep.gap)
    report(9, "usc-tail-bound", ok, f"worst tail gap {worst:.3e} (bound 1e-3), n=1000")


def test_criterion_10_determinism(report, tmp_path):
    cfg = parse_config({"problem": "paper_example", "seed": 123})
    s1 = run(cfg, out_dir=tmp_path / "a")
    s2 = run(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    with open(tmp_path / "a" / "summary.json") as fh:
        final_f = json.load(fh)["final_f"]
    ok = (
        a == b
        and s1.termination.kind == s2.termination.kind == "stationary"
        and final_f == s1.final_f
    )
    report(10, "determinism", ok, f"{len(a)} byte traces identical across two runs")
