"""The sampled checks that `proxmax verify` and the acceptance gate share.

Each function measures one fact the method rests on at samples the caller
draws and returns the measurement; the caller takes the worst over its
samples and applies its own bound.  Samples are chart rows (manifold.py).
"""

from __future__ import annotations

import numpy as np

from .manifold import (
    ManifoldKind,
    Point,
    from_chart_rows,
    point_coords,
    row_dots,
    row_norms,
    to_chart_rows,
)
from .objective import (
    MaxObjective,
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


def geometry_deviation(m: ManifoldKind, zp, zq, zr) -> float:
    """Worst deviation of the chart from an isometry over chart rows zp, zq and zr (N, n).

    Per row: the round trip of zp through its point and back, relative to
    max(1, |zp|); the distance of the points p and q, taken from their
    coordinates as dist takes it, against the chart norm |zp - zq|, relative
    to max(1, |zp - zq|); and the excess of d(p, q) over the path through r.
    Each is 0 up to rounding, and a NaN anywhere propagates to the result.
    """
    p, q, r = (point_coords(m, from_chart_rows(m, z), rows=True) for z in (zp, zq, zr))

    def d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return row_norms(to_chart_rows(m, a) - to_chart_rows(m, b))

    chart = row_norms(zp - zq)
    d_pq = d(p, q)
    deviations = [
        row_norms(to_chart_rows(m, p) - zp) / np.maximum(1.0, row_norms(zp)),
        np.abs(d_pq - chart) / np.maximum(1.0, chart),
        d_pq - (d(p, r) + d(r, q)),
    ]
    return float(np.max(deviations))


def gradient_error(field: ArrayField, m: ManifoldKind, Z, exact: np.ndarray) -> np.ndarray:
    """Relative errors (N, ...) of exact, field's chart gradients at Z, against fd_gradient.

    field maps rows (N, n) to values (N, ...), and exact holds their
    gradients in the chart (N, ..., n).  Each error is relative to
    max(1, |exact|), and a NaN propagates.
    """
    return row_norms(exact - fd_gradient(field, m, Z)) / np.maximum(1.0, row_norms(exact))


def shifted_convexity(
    problem: BuiltinProblem, center, lam: float, modulus: float, samples: int, seed: int
) -> ConvexityReport:
    """Chord test of f + (lam/2)|z - center|^2 for the given modulus over the problem's box.

    center holds chart coordinates (n,).  With lam above the Lipschitz
    estimate L, the proximal step relies on the modulus lam - L.
    """
    h_obj = with_prox_term(problem.objective, center, lam)
    lower, upper = problem.chart_box()
    return geodesic_convexity_test(
        lambda Z: eval_f_many(h_obj, Z),
        h_obj.manifold,
        samples=samples,
        modulus=modulus,
        lower=lower,
        upper=upper,
        seed=seed,
        domain=h_obj.domain_guard,
    )


def sum_rule_mismatch(
    obj: MaxObjective, shifted: MaxObjective, center, lam: float, Z, V
) -> np.ndarray:
    """How far shifted, meant as with_prox_term(obj, center, lam), breaks the sum rule.

    One mismatch (N,) per chart row of Z and tangent row of V, both (N, n);
    a NaN propagates.  The gradient of |z - center|^2 / 2 is z - center.
    """
    lhs = gen_dir_derivative(shifted, Z, V)
    Z, V = np.asarray(Z, dtype=float), np.asarray(V, dtype=float)
    pull = row_dots(Z - np.asarray(center, dtype=float), V)
    return np.abs(lhs - (gen_dir_derivative(obj, Z, V) + lam * pull))


def prox_grid_gaps(
    obj: MaxObjective,
    z_k,
    lam: float,
    lipschitz: float,
    cfg: ProxConfig,
    lower: float,
    upper: float,
    points: int,
) -> tuple[float, float]:
    """Chart distance and value gap between the prox step from z_k and its grid minimum.

    z_k holds the centre's chart coordinates (1,), and the one-dimensional
    grid has points nodes on the chart interval [lower, upper].
    """
    at = evaluate(obj, Point(obj.manifold, from_chart_rows(obj.manifold, z_k)))
    z_next = prox_step(obj, at, lam, cfg, lipschitz=lipschitz)[0].z
    h_obj = with_prox_term(obj, at.z, lam)
    g_z, g_val = grid_minimize(
        lambda Z: eval_f_many(h_obj, Z), obj.manifold, lower, upper, points
    )
    h_next = float(eval_f_many(h_obj, z_next[None])[0])
    return float(row_norms(z_next - g_z)), abs(h_next - g_val)
