"""The sampled checks that `proxmax verify` and the acceptance gate share.

Each function measures one fact the method rests on at samples the caller
draws and returns the measurement; the caller takes the worst over its
samples and applies its own bound.
"""

from __future__ import annotations

import numpy as np

from .manifold import (
    ManifoldKind,
    Point,
    dist,
    dist_rows,
    exp_rows,
    inner_rows,
    log_rows,
    norm_rows,
    point_coords,
    transport_rows,
)
from .objective import (
    MaxObjective,
    eval_f,
    eval_f_many,
    evaluate,
    gen_dir_derivative,
    with_prox_term,
)
from .oracle import (
    ArrayField,
    ConvexityReport,
    fd_gradient,
    geodesic_convexity_test,
    grid_minimize,
)
from .problems import BuiltinProblem
from .prox import ProxConfig, prox_step

__all__ = [
    "geometry_deviation",
    "gradient_error",
    "shifted_convexity",
    "sum_rule_mismatch",
    "prox_grid_gaps",
]


def geometry_deviation(m: ManifoldKind, p, q, r, v: np.ndarray) -> float:
    """Worst deviation from the Hadamard identities over point rows p, q, r and tangents v at p.

    Per row: the exp/log round trip of v and the norm change of v carried to
    q, relative to max(1, |v|); |log_map(p, q)| against d(p, q), relative to
    max(1, d); and the excess of d(p, q) over the path through r.  Each is 0
    up to rounding, and a NaN anywhere propagates to the result.
    """
    p, q, r = (point_coords(m, x, rows=True) for x in (p, q, r))
    back = log_rows(m, p, point_coords(m, exp_rows(m, p, v), rows=True))
    speed = norm_rows(m, p, v)
    scale = np.maximum(1.0, speed)
    d_pq = dist_rows(m, p, q)
    deviations = [
        norm_rows(m, p, back - v) / scale,
        np.abs(norm_rows(m, p, log_rows(m, p, q)) - d_pq) / np.maximum(1.0, d_pq),
        np.abs(norm_rows(m, q, transport_rows(m, p, q, v)) - speed) / scale,
        d_pq - (dist_rows(m, p, r) + dist_rows(m, r, q)),
    ]
    return float(np.max(deviations))


def gradient_error(field: ArrayField, m: ManifoldKind, X, exact: np.ndarray) -> np.ndarray:
    """Relative errors (N, ...) of exact, field's gradients at the rows X, against fd_gradient.

    field maps rows (N, n) to values (N, ...), and exact holds their
    gradients as tangent coordinates (N, ..., n).  Each error is relative to
    max(1, |exact|), and a NaN propagates.
    """
    X = point_coords(m, X, rows=True)
    # one base row per gradient, broadcast over the value axes
    base = X.reshape((len(X),) + (1,) * (exact.ndim - 2) + (m.dim,))
    error = norm_rows(m, base, exact - fd_gradient(field, m, X))
    return error / np.maximum(1.0, norm_rows(m, base, exact))


def shifted_convexity(
    problem: BuiltinProblem, center: Point, lam: float, modulus: float, samples: int, seed: int
) -> ConvexityReport:
    """Chord test of f + (lam/2) d(., center)^2 for the given modulus over the problem's box.

    With lam above the Lipschitz estimate L, the proximal step relies on
    the modulus lam - L.
    """
    h_obj = with_prox_term(problem.objective, center, lam)
    return geodesic_convexity_test(
        lambda X: eval_f_many(h_obj, X),
        h_obj.manifold,
        samples=samples,
        modulus=modulus,
        lower=problem.region_lower,
        upper=problem.region_upper,
        seed=seed,
        domain=h_obj.domain_guard,
    )


def sum_rule_mismatch(
    obj: MaxObjective, shifted: MaxObjective, center: Point, lam: float, X, V
) -> np.ndarray:
    """How far shifted, meant as with_prox_term(obj, center, lam), breaks the sum rule.

    One mismatch (N,) per point row of X and tangent row of V, both (N, n);
    a NaN propagates.  The gradient of d(., center)^2 / 2 is -log_map(., center).
    """
    lhs = gen_dir_derivative(shifted, X, V)
    m, X, V = obj.manifold, np.asarray(X, dtype=float), np.asarray(V, dtype=float)
    pull = inner_rows(m, X, -log_rows(m, X, center.coords), V)
    return np.abs(lhs - (gen_dir_derivative(obj, X, V) + lam * pull))


def prox_grid_gaps(
    obj: MaxObjective,
    p_k: Point,
    lam: float,
    lipschitz: float,
    cfg: ProxConfig,
    lower: float,
    upper: float,
    points: int,
) -> tuple[float, float]:
    """Point and value gaps between the prox step from p_k and its subproblem's grid minimum.

    The one-dimensional grid has points nodes on [lower, upper].
    """
    p_next = prox_step(obj, evaluate(obj, p_k), lam, cfg, lipschitz=lipschitz)[0].point
    h_obj = with_prox_term(obj, p_k, lam)
    g_pt, g_val = grid_minimize(
        lambda X: eval_f_many(h_obj, X), obj.manifold, lower, upper, points
    )
    return dist(p_next, g_pt), abs(eval_f(h_obj, p_next) - g_val)
