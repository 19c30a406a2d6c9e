"""Negative controls: each shared check measures a failure on a deliberately wrong input.

Criterion 05 is the control for shifted_convexity; the other checks get one here.
"""

import numpy as np

from proxmax import Point, log_positive, with_prox_term
from proxmax import checks
from proxmax.oracle import GridSpec
from proxmax.prox import ProxConfig


def test_geometry_deviation_flags_a_wrong_transport(monkeypatch, rng):
    m = log_positive(2)
    p, q, r = (np.exp(rng.uniform(-2.0, 2.0, (200, 2))) for _ in range(3))
    v = rng.uniform(-3.0, 3.0, (200, 2))
    assert checks.geometry_deviation(m, p, q, r, v) <= 1e-10
    # the flat-space transport keeps the coordinates, not the norm
    monkeypatch.setattr(checks, "transport_rows", lambda manifold, p, q, v: v.copy())
    assert checks.geometry_deviation(m, p, q, r, v) > 1e-3


def test_gradient_error_flags_a_wrong_gradient(log_example):
    obj = log_example.objective
    X = np.array([[0.5]])
    exact = obj.grad_phi(X)
    assert checks.gradient_error(obj.phi, obj.manifold, X, exact).max() <= 1e-6
    assert checks.gradient_error(obj.phi, obj.manifold, X, 2.0 * exact).max() > 0.1


def test_sum_rule_mismatch_flags_a_wrong_weight(log_example):
    obj = log_example.objective
    center = Point(obj.manifold, [0.7])
    X, V = np.array([[2.0]]), np.array([[1.0]])
    right = with_prox_term(obj, center, 1.3)
    wrong = with_prox_term(obj, center, 1.5)
    assert checks.sum_rule_mismatch(obj, right, center, 1.3, X, V)[0] <= 1e-8
    assert checks.sum_rule_mismatch(obj, wrong, center, 1.3, X, V)[0] > 0.1


def test_prox_grid_gaps_flag_a_moved_prox_point(monkeypatch, log_example):
    obj = log_example.objective
    p_k = Point(obj.manifold, [0.5])
    grid = GridSpec(lower=np.array([0.1251]), upper=np.array([4.0]), points_per_dim=2001)
    args = (obj, p_k, 1.0, 0.34, ProxConfig(), grid)
    gap_pt, gap_val = checks.prox_grid_gaps(*args)
    assert gap_pt <= 1e-4 and gap_val <= 1e-8

    step = checks.prox_step

    def moved_step(*a, **kw):
        p_next, iters = step(*a, **kw)
        # exp_x(0.01 x) = x e^0.01 on the half-line
        return Point(p_next.manifold, p_next.coords * np.exp(1e-2)), iters

    monkeypatch.setattr(checks, "prox_step", moved_step)
    gap_pt, gap_val = checks.prox_grid_gaps(*args)
    assert gap_pt > 1e-4 and gap_val > 1e-8
