"""Pointwise-maximum objectives and their generalized derivative machinery.

An objective is f(p) = max over a finite parameter grid of smooth branches
phi(p, tau), given as row forms: one call takes every branch value, or
every branch gradient, at many points.  The generalized directional
derivative at p along v is the largest metric pairing <g, v> over gradients
of branches active at p, taken at many rows at once; the generalized
subdifferential is the convex hull of those gradients, held as one array.

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
    chart_scale_rows,
    dist_rows,
    inner_rows,
    log_rows,
    norm_rows,
    point_coords,
    transport_rows,
)

__all__ = [
    "DomainError",
    "ParamSet",
    "MaxObjective",
    "SubdiffHull",
    "eval_f",
    "eval_f_many",
    "eval_branches",
    "branch_grads",
    "active_set",
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

    def __iter__(self):
        return iter(self.values)


# coordinates (..., n) -> admissibility (...,); or rows (N, n) -> branch values
# (N, m) or branch gradients (N, m, n)
CoordsMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MaxObjective:
    """f(p) = max over tau in params of phi(p, tau), with every branch taken at once.

    phi maps point coordinates X of shape (N, n) to every branch value at
    every row, shape (N, m), columns in params order.  grad_phi maps the
    same rows to every branch's Riemannian gradient as tangent coordinates,
    shape (N, m, n), branches in params order; converting flat derivatives
    through the metric is the problem definition's job, not this module's.
    lipschitz_bound, when given, bounds every branch-gradient Lipschitz
    constant.

    domain_guard marks the open admissible region; None means the whole
    manifold.  It maps point coordinates of shape (..., n) to a bool array
    of shape (...,), so one call checks a single point or many rows.
    """

    manifold: ManifoldKind
    params: ParamSet
    phi: CoordsMap
    grad_phi: CoordsMap
    lipschitz_bound: Optional[float] = None
    domain_guard: Optional[CoordsMap] = None

    def check_domain(self, p: Point) -> None:
        if p.manifold != self.manifold:
            raise MismatchError("point does not live on the objective's manifold")
        if self.domain_guard is not None and not self.domain_guard(p.coords):
            raise DomainError(f"point {p.coords.tolist()} is outside the admissible region")

    def declared_sup_lipschitz(self) -> Optional[float]:
        return None if self.lipschitz_bound is None else float(self.lipschitz_bound)


@dataclass(frozen=True)
class SubdiffHull:
    """Convex hull of branch gradients at a base point.

    generators holds their tangent coordinates at base as rows (k >= 1, n),
    kept as a read-only view of the array given.
    """

    base: Point
    generators: np.ndarray

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=float).view()
        if gens.ndim != 2 or len(gens) == 0 or gens.shape[1] != self.base.manifold.dim:
            raise ValueError(f"hull needs generator rows (k >= 1, base dim), got {gens.shape}")
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)


def eval_f(obj: MaxObjective, p: Point) -> tuple[float, np.ndarray]:
    """Objective value at p together with every parameter attaining it exactly."""
    vals = _branch_values(obj, _point_row(obj, p))[0]
    fmax = float(vals.max())
    return fmax, obj.params.values[vals == fmax].copy()


def eval_f_many(obj: MaxObjective, X) -> np.ndarray:
    """Objective values (N,) at the points stored as rows of X (N, n).

    Runs eval_branches, with its checks, and takes the max of each row.
    """
    return np.max(eval_branches(obj, X), axis=1)


def eval_branches(obj: MaxObjective, X) -> np.ndarray:
    """Every branch value (N, m) at the points stored as rows of X (N, n).

    Columns follow params.  Runs eval_f's checks on every row: each must be
    a valid point of the manifold (InvalidPointError), lie in the domain and
    give finite branch values (DomainError).  Evaluates all rows in one phi
    call.
    """
    return _branch_values(obj, _admissible_rows(obj, X))


def branch_grads(obj: MaxObjective, X) -> np.ndarray:
    """Every branch gradient (N, m, n) at the points stored as rows of X (N, n).

    Entry [k, i] holds the tangent coordinates of the gradient of branch
    params[i] at X[k].  Checks the rows as eval_branches does, then takes one
    grad_phi call and checks its shape (ValueError).  Raises DomainError
    naming the first row with a non-finite gradient entry.
    """
    return _branch_gradients(obj, _admissible_rows(obj, X))


def _admissible_rows(obj: MaxObjective, X) -> np.ndarray:
    """X as validated point rows (N, n) of the objective's manifold, each in its domain."""
    X = point_coords(obj.manifold, X, rows=True)
    if obj.domain_guard is not None:
        inside = np.asarray(obj.domain_guard(X), dtype=bool)
        if not inside.all():
            bad = X[int(np.argmin(inside))]
            raise DomainError(f"point {bad.tolist()} is outside the admissible region")
    return X


def _require_finite(arr: np.ndarray, X: np.ndarray, what: str) -> np.ndarray:
    """arr, whose leading axis follows the rows X.

    Raises DomainError naming the first row with a non-finite entry.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        bad = X[int(np.argmin(finite.reshape(len(X), -1).all(axis=1)))]
        raise DomainError(f"{what} is non-finite at {bad.tolist()}")
    return arr


def _branch_values(obj: MaxObjective, X: np.ndarray) -> np.ndarray:
    """eval_branches on rows that _admissible_rows has checked."""
    return _require_finite(np.asarray(obj.phi(X), dtype=float), X, "branch value")


def _branch_gradients(obj: MaxObjective, X: np.ndarray) -> np.ndarray:
    """branch_grads on rows that _admissible_rows has checked."""
    grads = np.asarray(obj.grad_phi(X), dtype=float)
    shape = (len(X), len(obj.params), obj.manifold.dim)
    if grads.shape != shape:
        raise ValueError(f"grad_phi returned shape {grads.shape}, expected {shape}")
    return _require_finite(grads, X, "branch gradient")


def _point_row(obj: MaxObjective, p: Point) -> np.ndarray:
    """p's coordinates, which Point has validated, as one row (1, n) after check_domain."""
    obj.check_domain(p)
    return p.coords[None]


def _active_mask(vals: np.ndarray, eta: Optional[float]) -> np.ndarray:
    fmax = vals.max(axis=-1, keepdims=True)
    if eta is None:
        eta = 1e-12 * np.maximum(1.0, np.abs(fmax))
    elif eta < 0:
        raise ValueError(f"activation tolerance must be >= 0, got {eta}")
    return vals >= fmax - eta


def active_set(obj: MaxObjective, p: Point, eta: Optional[float] = None) -> np.ndarray:
    """Parameters whose branch value comes within eta of the max at p."""
    vals = _branch_values(obj, _point_row(obj, p))[0]
    return obj.params.values[_active_mask(vals, eta)].copy()


def clarke_subdiff(obj: MaxObjective, p: Point, eta: Optional[float] = None) -> SubdiffHull:
    """Hull of gradients of the eta-active branches at p.

    Reads one row of branch values and one row of branch gradients.
    """
    X = _point_row(obj, p)
    active = _active_mask(_branch_values(obj, X)[0], eta)
    return SubdiffHull(p, _branch_gradients(obj, X)[0][active])


def gen_dir_derivative(obj: MaxObjective, X, V, eta: Optional[float] = None) -> np.ndarray:
    """Generalized directional derivatives (N,) at point rows X (N, n) along tangent rows V (N, n).

    Entry k pairs V[k] with each eta-active branch gradient at X[k] and takes the largest.
    One phi and one grad_phi call, with the checks of eval_branches and branch_grads.
    """
    X = _admissible_rows(obj, X)
    V = np.asarray(V, dtype=float)
    if V.shape != X.shape or not np.isfinite(V).all():
        raise ValueError(f"tangent rows must be finite, shape {X.shape}; got shape {V.shape}")
    active = _active_mask(_branch_values(obj, X), eta)
    pairs = inner_rows(obj.manifold, X[:, None], _branch_gradients(obj, X), V[:, None])
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
    """Minimum-norm element of the hull, as tangent coordinates (n,) at its base, and its norm.

    Exact for every hull: runs simplex_qp on the generators' flat-chart
    components, where the metric is Euclidean.  When n + 1 generators keep
    weight, their affine hull is the whole tangent space and the element is
    the origin itself.
    """
    base, m = hull.base, hull.base.manifold
    if len(hull.generators) == 1:
        g = hull.generators[0]
    else:
        scale = chart_scale_rows(m, base.coords)
        G = hull.generators / scale
        w = simplex_qp(G)
        if np.count_nonzero(w) > m.dim:
            return np.zeros(m.dim), 0.0
        g = (w @ G) * scale
    return g, float(norm_rows(m, base.coords, g))


def estimate_sup_lipschitz(obj: MaxObjective, samples) -> float:
    """Upper estimate of the largest branch-gradient Lipschitz constant.

    samples holds the sample points as rows (S, n), as region_samples
    returns them.  Returns the declared bound when the objective carries
    one.  Otherwise takes the largest transported difference quotient of
    each branch gradient over all sample pairs and inflates it by
    LIPSCHITZ_SAFETY_FACTOR.  The quotient is
    norm(p_j, g_j - transport(p_i, p_j, g_i)) / dist(p_i, p_j), evaluated
    for every pair of one branch at once through the row kernels those
    functions call; pairs closer than 1e-14 are skipped.  All gradients come
    from one branch_grads call, (S, m, n), and the pair pass holds O(S^2 n)
    for S samples in dimension n (64 samples give 2016 pairs).
    """
    declared = obj.declared_sup_lipschitz()
    if declared is not None:
        return declared
    m = obj.manifold
    X = point_coords(m, samples, rows=True)
    if len(X) < 2:
        raise ValueError("need at least two region samples to estimate a Lipschitz bound")
    grads = branch_grads(obj, X)
    i, j = np.triu_indices(len(X), k=1)
    p_i, p_j = X[i], X[j]
    d = dist_rows(m, p_i, p_j)
    keep = d > 1e-14
    best = 0.0
    for b in range(grads.shape[1]):
        vecs = grads[:, b]
        gap = norm_rows(m, p_j, vecs[j] - transport_rows(m, p_i, p_j, vecs[i]))
        # fmax ignores a NaN quotient (p_j**2 can underflow) instead of returning it
        best = float(np.fmax.reduce(gap[keep] / d[keep], initial=best))
    return LIPSCHITZ_SAFETY_FACTOR * best


def with_prox_term(obj: MaxObjective, pbar: Point, lam: float) -> MaxObjective:
    """The objective with (lam/2) d(., pbar)^2 added to every branch.

    Branch order and active sets are preserved because the added term does
    not depend on the branch parameter.  phi adds the term through dist_rows
    and grad_phi adds lam times the gradient of d(., pbar)^2 / 2 through
    log_rows.
    """
    if pbar.manifold != obj.manifold:
        raise MismatchError("prox center lives on a different manifold")
    lam = float(lam)

    def phi(X: np.ndarray) -> np.ndarray:
        # float_power is the C pow of a float's ** 2; np.power squares instead,
        # and the two can differ in the last bit
        sq = np.float_power(dist_rows(obj.manifold, X, pbar.coords), 2.0)
        return obj.phi(X) + (0.5 * lam * sq)[:, None]

    def grad_phi(X: np.ndarray) -> np.ndarray:
        # the gradient of d(., pbar)^2 / 2 is -log_map(., pbar)
        pull = lam * -log_rows(obj.manifold, X, pbar.coords)
        return obj.grad_phi(X) + pull[:, None, :]

    return MaxObjective(
        manifold=obj.manifold,
        params=obj.params,
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=None,
        domain_guard=obj.domain_guard,
    )
