"""Pointwise-maximum objectives and their generalized derivative machinery.

An objective is f(z) = max over a finite parameter grid of smooth branches
phi(z, tau), given on chart rows z (manifold.py): one call takes every
branch value, or every branch gradient, at many points.  In the chart the
metric is Euclidean, so a gradient is the plain gradient in z and a tangent
is its chart coordinates.  The generalized directional derivative at z
along v is the largest dot product <g, v> over gradients of branches active
at z, taken at many rows at once; the generalized subdifferential is the
convex hull of those gradients, held as one array.  eval_f, evaluate and
clarke_subdiff take a Point, the API edge, and read its chart coordinates.

simplex_qp minimizes |w @ G|^2 / (2c) - w @ h over the unit simplex exactly,
in finitely many steps.  With h = 0 it gives min_norm_subgradient, which is
exact for every hull; with branch values as h it is the dual of the
prox-linear inner step in prox.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .manifold import (
    ManifoldKind,
    MismatchError,
    Point,
    chart_coords,
    row_dots,
    row_norms,
    to_chart,
)

__all__ = [
    "DomainError",
    "ParamSet",
    "MaxObjective",
    "SubdiffHull",
    "Evaluation",
    "evaluate",
    "eval_f",
    "eval_f_many",
    "eval_branches",
    "branch_grads",
    "clarke_subdiff",
    "gen_dir_derivative",
    "min_norm_subgradient",
    "simplex_qp",
    "estimate_sup_lipschitz",
    "with_prox_term",
]

LIPSCHITZ_SAFETY_FACTOR = 1.1
_EPS = np.finfo(float).eps


class DomainError(ValueError):
    """A point lies outside the objective's admissible region."""


@dataclass(frozen=True)
class ParamSet:
    """Finite, strictly increasing grid of branch parameters."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        if arr.size == 0:
            raise ValueError("parameter grid must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter grid has non-finite entries")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("parameter grid must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


# chart coordinates (..., n) -> admissibility (...,); or chart rows (N, n) ->
# branch values (N, m) or branch gradients (N, m, n)
ChartMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MaxObjective:
    """f(z) = max over tau in params of phi(z, tau), with every branch taken at once.

    phi maps chart rows Z of shape (N, n) to every branch value at every
    row, shape (N, m), columns in params order.  grad_phi maps the same rows
    to every branch's gradient in z, shape (N, m, n), branches in params
    order: the pullback's Euclidean gradient, which is the Riemannian
    gradient in chart coordinates.  lipschitz_bound, when given, bounds
    every branch-gradient Lipschitz constant.

    domain_guard marks the open admissible region; None means the whole
    manifold.  It maps chart coordinates of shape (..., n) to a bool array
    of shape (...,), so one call checks a single point or many rows.
    """

    manifold: ManifoldKind
    params: ParamSet
    phi: ChartMap
    grad_phi: ChartMap
    lipschitz_bound: Optional[float] = None
    domain_guard: Optional[ChartMap] = None

    def check_domain(self, p: Point) -> None:
        if p.manifold != self.manifold:
            raise MismatchError("point does not live on the objective's manifold")
        if self.domain_guard is not None and not self.domain_guard(to_chart(p)):
            raise DomainError(f"point {p.coords.tolist()} is outside the admissible region")


@dataclass(frozen=True)
class SubdiffHull:
    """Convex hull of branch gradients at a base point.

    generators holds them as chart coordinates, rows (k >= 1, n), kept as a
    read-only view of the array given.
    """

    base: Point
    generators: np.ndarray

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=float).view()
        if gens.ndim != 2 or len(gens) == 0 or gens.shape[1] != self.base.manifold.dim:
            raise ValueError(f"hull needs generator rows (k >= 1, base dim), got {gens.shape}")
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)


def eval_f(obj: MaxObjective, p: Point) -> float:
    """Objective value at p."""
    return float(_branch_values(obj, _point_row(obj, p))[0].max())


def eval_f_many(obj: MaxObjective, Z) -> np.ndarray:
    """Objective values (N,) at the chart rows Z (N, n).

    Runs eval_branches, with its checks, and takes the max of each row.
    """
    return np.max(eval_branches(obj, Z), axis=1)


def eval_branches(obj: MaxObjective, Z) -> np.ndarray:
    """Every branch value (N, m) at the chart rows Z (N, n).

    Columns follow params.  Runs eval_f's checks on every row: each must be
    the chart row of a valid point (InvalidPointError), lie in the domain and
    give finite branch values (DomainError).  Evaluates all rows in one phi
    call.
    """
    return _branch_values(obj, _admissible_rows(obj, Z))


def branch_grads(obj: MaxObjective, Z) -> np.ndarray:
    """Every branch gradient (N, m, n) at the chart rows Z (N, n).

    Entry [k, i] holds the gradient in z of branch params[i] at Z[k].
    Checks the rows as eval_branches does, then takes one grad_phi call and
    checks its shape (ValueError).  Raises DomainError naming the first row
    with a non-finite gradient entry.
    """
    return _branch_gradients(obj, _admissible_rows(obj, Z))


def _admissible_rows(obj: MaxObjective, Z) -> np.ndarray:
    """Z as validated chart rows (N, n) of the objective's manifold, each in its domain."""
    Z = chart_coords(obj.manifold, Z, rows=True)
    if obj.domain_guard is not None:
        inside = np.asarray(obj.domain_guard(Z), dtype=bool)
        if not inside.all():
            bad = Z[int(np.argmin(inside))]
            raise DomainError(f"chart point {bad.tolist()} is outside the admissible region")
    return Z


def _require_finite(arr: np.ndarray, Z: np.ndarray, what: str) -> np.ndarray:
    """arr, whose leading axis follows the rows Z.

    Raises DomainError naming the first chart row with a non-finite entry.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        bad = Z[int(np.argmin(finite.reshape(len(Z), -1).all(axis=1)))]
        raise DomainError(f"{what} is non-finite at chart point {bad.tolist()}")
    return arr


def _branch_values(obj: MaxObjective, Z: np.ndarray) -> np.ndarray:
    """eval_branches on rows that _admissible_rows has checked."""
    return _require_finite(np.asarray(obj.phi(Z), dtype=float), Z, "branch value")


def _branch_gradients(obj: MaxObjective, Z: np.ndarray) -> np.ndarray:
    """branch_grads on rows that _admissible_rows has checked."""
    grads = np.asarray(obj.grad_phi(Z), dtype=float)
    shape = (len(Z), len(obj.params), obj.manifold.dim)
    if grads.shape != shape:
        raise ValueError(f"grad_phi returned shape {grads.shape}, expected {shape}")
    return _require_finite(grads, Z, "branch gradient")


def _point_row(obj: MaxObjective, p: Point) -> np.ndarray:
    """p's chart coordinates, which Point has validated, as one row (1, n) after check_domain."""
    obj.check_domain(p)
    return to_chart(p)[None]


def _active_mask(vals: np.ndarray) -> np.ndarray:
    """Which branch values (..., m) lie within 1e-12 * max(1, |f|) of their row's max f."""
    fmax = vals.max(axis=-1, keepdims=True)
    return vals >= fmax - 1e-12 * np.maximum(1.0, np.abs(fmax))


@dataclass(frozen=True)
class Evaluation:
    """A point, its chart coordinates z (n,), and every branch value (m,) and gradient (m, n) at z.

    evaluate builds it with the checks of eval_branches and branch_grads;
    prox.inner_solve builds one at its result from the rows it has checked.
    """

    point: Point
    z: np.ndarray
    values: np.ndarray
    grads: np.ndarray

    @property
    def f(self) -> float:
        """Objective value at point."""
        return float(self.values.max())

    def subdiff(self) -> SubdiffHull:
        """Hull of gradients of the active branches at point, as _active_mask picks them."""
        return SubdiffHull(self.point, self.grads[_active_mask(self.values)])


def evaluate(obj: MaxObjective, p: Point) -> Evaluation:
    """Every branch value and gradient at p: one row each, with their checks."""
    Z = _point_row(obj, p)
    return Evaluation(p, Z[0], _branch_values(obj, Z)[0], _branch_gradients(obj, Z)[0])


def clarke_subdiff(obj: MaxObjective, p: Point) -> SubdiffHull:
    """Hull of gradients of the active branches at p: evaluate(obj, p).subdiff()."""
    return evaluate(obj, p).subdiff()


def gen_dir_derivative(obj: MaxObjective, Z, V) -> np.ndarray:
    """Generalized directional derivatives (N,) at chart rows Z (N, n) along tangent rows V (N, n).

    Entry k pairs V[k] with each active branch gradient at Z[k] and takes the largest.
    One phi and one grad_phi call, with the checks of eval_branches and branch_grads.
    """
    Z = _admissible_rows(obj, Z)
    V = np.asarray(V, dtype=float)
    if V.shape != Z.shape or not np.isfinite(V).all():
        raise ValueError(f"tangent rows must be finite, shape {Z.shape}; got shape {V.shape}")
    active = _active_mask(_branch_values(obj, Z))
    pairs = row_dots(_branch_gradients(obj, Z), V[:, None])
    return np.where(active, pairs, -np.inf).max(axis=1)


def _affine_minimizer(G: np.ndarray, h: np.ndarray, c: float):
    """Minimizer of simplex_qp's objective over the affine hull {sum y = 1} of the rows of G.

    Returns (y, None), or (None, v) when the rows are affinely dependent:
    then sum v = 0, v @ G = 0, and the objective does not rise along v.
    Gram-Schmidt on the differences D = G[1:] - G[0], run twice per row,
    keeps T with T @ D orthonormal, so (D D^T)^-1 = T^T T.
    """
    k = len(h) - 1
    if k == 0:
        return np.ones(1), None
    D = G[1:] - G[0]
    b = h[1:] - h[0]
    Q = np.zeros_like(D)
    T = np.zeros((k, k))
    tol = 1e-12 * abs(D).max()
    for i in range(k):
        v, t = D[i], np.eye(k)[i]
        for _ in range(2):
            coef = Q[:i] @ v
            v = v - coef @ Q[:i]
            t = t - coef @ T[:i]
        r = float(np.sqrt(v @ v))
        if not r > tol:  # t @ D = v vanishes
            a = t if t @ b >= 0.0 else -t
            return None, np.concatenate(([-a.sum()], a))
        Q[i], T[i] = v / r, t / r
    a = T.T @ (T @ (c * b - D @ G[0]))
    return np.concatenate(([1.0 - a.sum()], a)), None


def simplex_qp(G: np.ndarray, h: Optional[np.ndarray] = None, c: float = 1.0) -> np.ndarray:
    """Weights w on the unit simplex minimizing |w @ G|^2 / (2c) - w @ h.

    G holds one vector per row, (m, n), in Euclidean coordinates, and h
    (m,) defaults to zeros, which makes w @ G the minimum-norm point of the
    hull of the rows.  Wolfe's corral method (1976) with the linear term
    carried along: a major cycle adds the row with the smallest entry of the
    gradient q = G (w @ G) / c - h; minor cycles move towards the minimizer
    over the affine hull of the corral and drop the rows whose weight would
    turn negative.  Where the corral is affinely dependent the objective is
    linear along the dependence, and the minor cycle follows it downhill to
    the boundary instead.  Every major cycle lowers the objective, so no
    corral repeats and the method ends after finitely many cycles, with an
    affinely independent corral: at most n + 1 weights are nonzero.
    """
    m = G.shape[0]
    h = np.zeros(m) if h is None else h
    w = np.zeros(m)
    w[((G * G).sum(axis=1) / (2.0 * c) - h).argmin()] = 1.0
    best_w, best = w, np.inf
    while True:
        u = w @ G
        value = u @ u / (2.0 * c) - w @ h
        if not value < best:  # rounding has stopped the descent
            return best_w
        best_w, best = w, value
        q = G @ u / c - h
        j = q.argmin()
        if w[j] > 0.0 or q[j] >= w @ q - 64.0 * _EPS * abs(q).max():
            return w
        corral = np.append(w.nonzero()[0], j)
        ws = np.append(w[corral[:-1]], 0.0)
        while True:
            y, v = _affine_minimizer(G[corral], h[corral], c)
            if y is not None:
                if (y > 0.0).all():
                    ws = y
                    break
                v, shrink = y - ws, y <= 0.0
            else:
                shrink = v < 0.0
            # the longest step along v that keeps every weight >= 0 (at most 1 towards y)
            ratios = np.full(len(ws), np.inf)
            ratios[shrink] = ws[shrink] / np.maximum(-v[shrink], np.finfo(float).tiny)
            drop = ratios.argmin()
            ws = ws + ratios[drop] * v
            ws[drop] = 0.0
            keep = ws > 0.0
            corral, ws = corral[keep], ws[keep]
        w = np.zeros(m)
        w[corral] = ws


def min_norm_subgradient(hull: SubdiffHull) -> tuple[np.ndarray, float]:
    """Minimum-norm element of the hull, as chart coordinates (n,), and its norm.

    Exact for every hull: runs simplex_qp on the generators.  When n + 1
    generators keep weight, their affine hull is the whole tangent space and
    the element is the origin itself.
    """
    dim = hull.base.manifold.dim
    G = hull.generators
    if len(G) == 1:
        g = G[0]
    else:
        w = simplex_qp(G)
        if np.count_nonzero(w) > dim:
            return np.zeros(dim), 0.0
        g = w @ G
    return g, float(row_norms(g))


def estimate_sup_lipschitz(obj: MaxObjective, samples) -> float:
    """Upper estimate of the largest branch-gradient Lipschitz constant.

    samples holds the sample points as chart rows (S, n), as region_samples
    returns them.  Returns the declared bound when the objective carries
    one.  Otherwise takes the largest difference quotient
    |g_j - g_i| / |z_j - z_i| of each branch gradient over all sample pairs
    (transport is the identity in the chart) and inflates it by
    LIPSCHITZ_SAFETY_FACTOR; the quotients of one branch are one array pass,
    and pairs closer than 1e-14 are skipped.  All gradients come from one
    branch_grads call, (S, m, n), and the pair pass holds O(S^2 n) for S
    samples in dimension n (64 samples give 2016 pairs).
    """
    if obj.lipschitz_bound is not None:
        return float(obj.lipschitz_bound)
    Z = chart_coords(obj.manifold, samples, rows=True)
    if len(Z) < 2:
        raise ValueError("need at least two region samples to estimate a Lipschitz bound")
    grads = branch_grads(obj, Z)
    i, j = np.triu_indices(len(Z), k=1)
    d = row_norms(Z[i] - Z[j])
    keep = d > 1e-14
    best = 0.0
    for b in range(grads.shape[1]):
        vecs = grads[:, b]
        gap = row_norms(vecs[j] - vecs[i])
        best = float(np.max(gap[keep] / d[keep], initial=best))
    return LIPSCHITZ_SAFETY_FACTOR * best


def with_prox_term(obj: MaxObjective, center, lam: float) -> MaxObjective:
    """The objective with (lam/2) |z - center|^2 added to every branch.

    center holds the prox centre's chart coordinates (n,).  Branch order and
    active sets are preserved because the added term does not depend on the
    branch parameter; grad_phi adds its gradient lam (z - center).
    """
    center = chart_coords(obj.manifold, center)
    lam = float(lam)

    def phi(Z: np.ndarray) -> np.ndarray:
        # float_power is the C pow of a float's ** 2; np.power squares instead,
        # and the two can differ in the last bit
        sq = np.float_power(row_norms(Z - center), 2.0)
        return obj.phi(Z) + (0.5 * lam * sq)[:, None]

    def grad_phi(Z: np.ndarray) -> np.ndarray:
        return obj.grad_phi(Z) + (lam * (Z - center))[:, None, :]

    return MaxObjective(
        manifold=obj.manifold,
        params=obj.params,
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=None,
        domain_guard=obj.domain_guard,
    )
