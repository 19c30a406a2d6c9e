"""Pointwise-maximum objectives and their generalized derivative machinery.

An objective is f(p) = max over a finite parameter grid of smooth branches
phi(p, tau).  The generalized directional derivative at p along v is the
largest metric pairing <g, v> over gradients of branches active at p, and
the generalized subdifferential is the convex hull of those gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .manifold import (
    Geometry,
    ManifoldKind,
    MismatchError,
    Point,
    Tangent,
    dist,
    dist_rows,
    grad_half_sq_dist,
    inner,
    norm,
    norm_rows,
    point_coords,
    transport_rows,
    zero_tangent,
)

__all__ = [
    "DomainError",
    "ParamSet",
    "MaxObjective",
    "SubdiffHull",
    "default_active_tol",
    "eval_f",
    "eval_f_many",
    "active_set",
    "clarke_subdiff",
    "gen_dir_derivative",
    "min_norm_subgradient",
    "unit_forward",
    "estimate_sup_lipschitz",
    "with_prox_term",
]

LIPSCHITZ_SAFETY_FACTOR = 1.1


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


LipschitzBound = Union[float, Callable[[float], float], None]
# coordinates (..., n) -> admissibility (...,), or branch values (N, m) for rows (N, n)
CoordsMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MaxObjective:
    """f(p) = max_{tau in params} phi(p, tau).

    grad_phi must return the Riemannian gradient of phi(., tau) at p as a
    Tangent based at p; converting flat derivatives through the metric is
    the problem definition's job, not this module's.  lipschitz_bound, when
    given, is either a single bound on all branch-gradient Lipschitz
    constants or a callable tau -> bound.

    domain_guard marks the open admissible region; None means the whole
    manifold.  It maps point coordinates of shape (..., n) to a bool array
    of shape (...,), so one call checks a single point or many rows.

    branch_values, when given, maps point coordinates X of shape (N, n) to
    every branch value at every row, shape (N, m), columns in params order.
    It must agree with phi; eval_f_many uses it to evaluate many points in
    one array pass, and falls back to calling phi when it is None.
    """

    manifold: ManifoldKind
    params: ParamSet
    phi: Callable[[Point, float], float]
    grad_phi: Callable[[Point, float], Tangent]
    lipschitz_bound: LipschitzBound = None
    domain_guard: Optional[CoordsMap] = None
    branch_values: Optional[CoordsMap] = None

    def check_domain(self, p: Point) -> None:
        if p.manifold != self.manifold:
            raise MismatchError("point does not live on the objective's manifold")
        if self.domain_guard is not None and not self.domain_guard(p.coords):
            raise DomainError(f"point {p.coords.tolist()} is outside the admissible region")

    def in_domain(self, p: Point) -> bool:
        if p.manifold != self.manifold:
            return False
        return self.domain_guard is None or bool(self.domain_guard(p.coords))

    def declared_sup_lipschitz(self) -> Optional[float]:
        if self.lipschitz_bound is None:
            return None
        if callable(self.lipschitz_bound):
            return float(max(self.lipschitz_bound(t) for t in self.params))
        return float(self.lipschitz_bound)


@dataclass(frozen=True)
class SubdiffHull:
    """Convex hull of branch gradients at a base point."""

    base: Point
    generators: tuple[Tangent, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("hull needs at least one generator")
        for g in self.generators:
            if g.base.manifold != self.base.manifold or not np.array_equal(
                g.base.coords, self.base.coords
            ):
                raise MismatchError("hull generator is not attached at the base point")


def default_active_tol(f_value: float) -> float:
    """Activation tolerance used when none is supplied."""
    return 1e-12 * max(1.0, abs(f_value))


def eval_f(obj: MaxObjective, p: Point) -> tuple[float, np.ndarray]:
    """Objective value at p together with every parameter attaining it exactly."""
    obj.check_domain(p)
    vals = np.array([obj.phi(p, t) for t in obj.params], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"branch value is non-finite at {p.coords.tolist()}")
    fmax = float(np.max(vals))
    return fmax, obj.params.values[vals == fmax].copy()


def eval_f_many(obj: MaxObjective, X) -> np.ndarray:
    """Objective values (N,) at the points stored as rows of X (N, n).

    Runs eval_f's checks on every row: each must be a valid point of the
    manifold (InvalidPointError), lie in the domain and give finite branch
    values (DomainError).  Evaluates all rows in one branch_values call, or
    row by row through phi when the objective has none.
    """
    X = point_coords(obj.manifold, X, rows=True)
    if obj.domain_guard is not None:
        inside = np.asarray(obj.domain_guard(X), dtype=bool)
        if not np.all(inside):
            bad = X[int(np.argmin(inside))]
            raise DomainError(f"point {bad.tolist()} is outside the admissible region")
    if obj.branch_values is not None:
        vals = np.asarray(obj.branch_values(X), dtype=float)
    else:
        vals = np.array(
            [[obj.phi(Point(obj.manifold, x), t) for t in obj.params] for x in X], dtype=float
        ).reshape(len(X), len(obj.params))
    finite = np.all(np.isfinite(vals), axis=1)
    if not np.all(finite):
        bad = X[int(np.argmin(finite))]
        raise DomainError(f"branch value is non-finite at {bad.tolist()}")
    return np.max(vals, axis=1)


def active_set(obj: MaxObjective, p: Point, eta: Optional[float] = None) -> np.ndarray:
    """Parameters whose branch value comes within eta of the max at p."""
    obj.check_domain(p)
    vals = np.array([obj.phi(p, t) for t in obj.params], dtype=float)
    fmax = float(np.max(vals))
    if eta is None:
        eta = default_active_tol(fmax)
    if eta < 0:
        raise ValueError(f"activation tolerance must be >= 0, got {eta}")
    return obj.params.values[vals >= fmax - eta].copy()


def clarke_subdiff(obj: MaxObjective, p: Point, eta: Optional[float] = None) -> SubdiffHull:
    """Hull of gradients of the eta-active branches at p."""
    taus = active_set(obj, p, eta)
    gens = []
    for t in taus:
        g = obj.grad_phi(p, float(t))
        if not np.array_equal(g.base.coords, p.coords):
            raise MismatchError("grad_phi returned a tangent at the wrong base point")
        gens.append(g)
    return SubdiffHull(p, tuple(gens))


def gen_dir_derivative(
    obj: MaxObjective, p: Point, v: Tangent, eta: Optional[float] = None
) -> float:
    """Generalized directional derivative of f at p along v."""
    hull = clarke_subdiff(obj, p, eta)
    return max(inner(p, g, v) for g in hull.generators)


def _metric_weights(p: Point) -> np.ndarray:
    if p.manifold.geometry is Geometry.LOG_POSITIVE:
        return 1.0 / p.coords**2
    return np.ones(p.manifold.dim)


def unit_forward(p: Point) -> Tangent:
    """The unit tangent at p pointing along increasing coordinates (dim 1)."""
    if p.manifold.dim != 1:
        raise ValueError("unit_forward is defined for one-dimensional manifolds only")
    if p.manifold.geometry is Geometry.LOG_POSITIVE:
        return Tangent(p, p.coords.copy())
    return Tangent(p, np.ones(1))


def _min_norm_weights(gram: np.ndarray, coords: np.ndarray, wm: np.ndarray, tol: float):
    """Away-step Frank-Wolfe for min ||sum_i w_i g_i|| over the simplex."""
    m = gram.shape[0]
    w = np.zeros(m)
    w[int(np.argmin(np.diag(gram)))] = 1.0
    scale = max(1.0, float(np.max(np.diag(gram))))
    for _ in range(100_000):
        comb = w @ coords
        if np.sqrt(max(float(np.sum(comb * comb * wm)), 0.0)) <= tol:
            break
        grad = gram @ w
        s = int(np.argmin(grad))
        fw_gap = float(w @ grad - grad[s])
        if fw_gap <= 1e-16 * scale:
            break
        active = np.flatnonzero(w > 1e-16)
        a = int(active[np.argmax(grad[active])])
        away_gap = float(grad[a] - w @ grad)
        if fw_gap >= away_gap:
            d = -w.copy()
            d[s] += 1.0
            gamma_max = 1.0
        else:
            d = w.copy()
            d[a] -= 1.0
            gamma_max = w[a] / (1.0 - w[a]) if w[a] < 1.0 else 1.0
        dgd = float(d @ gram @ d)
        if dgd <= 0.0:
            gamma = gamma_max
        else:
            gamma = min(max(-float(d @ grad) / dgd, 0.0), gamma_max)
        if gamma <= 0.0:
            break
        w = np.maximum(w + gamma * d, 0.0)
        w /= w.sum()
    return w


def min_norm_subgradient(hull: SubdiffHull, tol: float = 1e-10) -> tuple[Tangent, float]:
    """Minimum-norm element of the hull and its norm.

    Exact for one-dimensional manifolds and for hulls with at most two
    generators; larger hulls are solved by Frank-Wolfe over the simplex.
    """
    base = hull.base
    gens = hull.generators
    if len(gens) == 1:
        return gens[0], norm(base, gens[0])

    if base.manifold.dim == 1:
        # the hull is an interval of pairings with the forward unit tangent
        unit = unit_forward(base)
        s = np.array([inner(base, g, unit) for g in gens])
        lo, hi = float(np.min(s)), float(np.max(s))
        if lo <= 0.0 <= hi:
            return zero_tangent(base), 0.0
        idx = int(np.argmin(np.abs(s)))
        return gens[idx], float(abs(s[idx]))

    if len(gens) == 2:
        g1, g2 = gens
        diff = g1 - g2
        den = inner(base, diff, diff)
        t = min(max(inner(base, g1, diff) / den, 0.0), 1.0) if den > 0.0 else 0.0
        g = g1 - t * diff
        return g, norm(base, g)

    coords = np.stack([g.coords for g in gens])
    wm = _metric_weights(base)
    gram = (coords * wm) @ coords.T
    w = _min_norm_weights(gram, coords, wm, tol)
    g = Tangent(base, w @ coords)
    return g, norm(base, g)


def estimate_sup_lipschitz(obj: MaxObjective, region_samples: Sequence[Point]) -> float:
    """Upper estimate of the largest branch-gradient Lipschitz constant.

    Returns the declared bound when the objective carries one.  Otherwise
    takes the largest transported difference quotient of each branch
    gradient over all sample pairs and inflates it by LIPSCHITZ_SAFETY_FACTOR.
    The quotient is norm(p_j, g_j - transport(p_i, p_j, g_i)) / dist(p_i, p_j),
    evaluated for every pair at once through the row kernels those functions
    call; pairs closer than 1e-14 are skipped.  It makes one grad_phi call
    per sample per branch, and its memory grows as O(S^2 n) for S samples
    in dimension n (64 samples give 2016 pairs).
    """
    declared = obj.declared_sup_lipschitz()
    if declared is not None:
        return declared
    samples = list(region_samples)
    if len(samples) < 2:
        raise ValueError("need at least two region samples to estimate a Lipschitz bound")
    for s in samples:
        obj.check_domain(s)
    m = obj.manifold
    coords = np.stack([s.coords for s in samples])
    i, j = np.triu_indices(len(samples), k=1)
    p_i, p_j = coords[i], coords[j]
    d = dist_rows(m, p_i, p_j)
    keep = d > 1e-14
    best = 0.0
    for t in obj.params:
        grads = [obj.grad_phi(s, float(t)) for s in samples]
        if not np.array_equal(np.stack([g.base.coords for g in grads]), coords):
            raise MismatchError("grad_phi returned a tangent at the wrong base point")
        vecs = np.stack([g.coords for g in grads])
        gap = norm_rows(m, p_j, vecs[j] - transport_rows(m, p_i, p_j, vecs[i]))
        # fmax ignores a NaN quotient (p_j**2 can underflow) instead of returning it
        best = float(np.fmax.reduce(gap[keep] / d[keep], initial=best))
    return LIPSCHITZ_SAFETY_FACTOR * best


def with_prox_term(obj: MaxObjective, pbar: Point, lam: float) -> MaxObjective:
    """The objective with (lam/2) d(., pbar)^2 added to every branch.

    Branch order and active sets are preserved because the added term does
    not depend on the branch parameter.  branch_values, when obj has it,
    adds the same term through dist_rows, in the same order as phi.
    """
    if pbar.manifold != obj.manifold:
        raise MismatchError("prox center lives on a different manifold")
    lam = float(lam)

    def phi(p: Point, tau: float) -> float:
        return obj.phi(p, tau) + 0.5 * lam * dist(p, pbar) ** 2

    def grad_phi(p: Point, tau: float) -> Tangent:
        return obj.grad_phi(p, tau) + lam * grad_half_sq_dist(p, pbar)

    branch_values = None
    if obj.branch_values is not None:

        def branch_values(X: np.ndarray) -> np.ndarray:
            # float_power calls the C pow that phi's float ** 2 calls; np.power
            # squares instead, and the two can differ in the last bit
            sq = np.float_power(dist_rows(obj.manifold, X, pbar.coords), 2.0)
            return obj.branch_values(X) + (0.5 * lam * sq)[:, None]

    return MaxObjective(
        manifold=obj.manifold,
        params=obj.params,
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=None,
        domain_guard=obj.domain_guard,
        branch_values=branch_values,
    )
