"""Proximal point outer loop and the inner subproblem solver.

Each outer step minimizes h = f + (lam/2) d(., p_k)^2.  With lam strictly
above the largest branch-gradient Lipschitz constant the subproblem is
geodesically strongly convex with modulus lam minus that constant, so the
step is unique.  The scaled step lam * log_map(p_next, p_k) is a
generalized subgradient of f at p_next up to the inner tolerance, which
makes lam * d(p_next, p_k) the natural stationarity residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .manifold import (
    ExpOverflowError,
    GeometryError,
    InvalidPointError,
    Point,
    Tangent,
    dist,
    exp_map,
    inner,
    log_map,
    norm,
)
from .objective import (
    DomainError,
    MaxObjective,
    SubdiffHull,
    clarke_subdiff,
    eval_f,
    min_norm_subgradient,
    unit_forward,
    with_prox_term,
)

__all__ = [
    "LambdaBoundError",
    "InnerCapError",
    "LevelSetError",
    "LambdaSchedule",
    "ProxConfig",
    "Termination",
    "IterationRecord",
    "Trace",
    "residual",
    "inner_solve",
    "prox_step",
    "solve",
]

# subgradient-descent steps taken before the one-dimensional polish
_WARMUP_STEPS_1D = 40
_BRACKET_DOUBLINGS = 80
_BISECT_CAP = 300
_STEP_BACKTRACKS = 40


class LambdaBoundError(ValueError):
    """Regularization weight violates its required bounds."""


class LevelSetError(RuntimeError):
    """An iterate left the reference sublevel set."""


class InnerCapError(RuntimeError):
    """Inner solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, best: Point, iterations: int, grad_norm: float):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-step regularization weights, all inside (lower, upper].

    lower is the Lipschitz estimate the weights must strictly exceed and
    upper the finite cap keeping them bounded.  Exactly one of constant or
    values must be given; a finite values sequence repeats its last entry.
    """

    lower: float
    upper: float
    constant: Optional[float] = None
    values: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or self.lower < 0:
            raise LambdaBoundError(f"lower bound must be finite and >= 0, got {self.lower}")
        if not np.isfinite(self.upper) or self.upper <= self.lower:
            raise LambdaBoundError(
                f"upper bound must be finite and exceed lower={self.lower}, got {self.upper}"
            )
        if (self.constant is None) == (self.values is None):
            raise LambdaBoundError("exactly one of constant or values is required")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if not vals:
                raise LambdaBoundError("values sequence must be non-empty")
            object.__setattr__(self, "values", vals)
        else:
            object.__setattr__(self, "constant", float(self.constant))
        for lam in (self.values if self.values is not None else (self.constant,)):
            if not (self.lower < lam <= self.upper):
                raise LambdaBoundError(
                    f"weight {lam} outside ({self.lower}, {self.upper}]"
                )

    def at(self, k: int) -> float:
        if self.constant is not None:
            return self.constant
        return self.values[min(k, len(self.values) - 1)]

    @staticmethod
    def default(lipschitz: float, upper: float) -> "LambdaSchedule":
        """Constant schedule at 1.5x the Lipschitz estimate, clipped to upper.

        Degenerates to 1.0 for a zero estimate, where any positive weight
        keeps the subproblem strongly convex.
        """
        lam = 1.5 * lipschitz if lipschitz > 0 else 1.0
        lam = min(lam, upper)
        return LambdaSchedule(lower=float(lipschitz), upper=float(upper), constant=lam)


@dataclass(frozen=True)
class ProxConfig:
    outer_tol: float = 1e-8
    inner_tol: float = 1e-10
    max_outer: int = 10_000
    max_inner: int = 1_000

    def __post_init__(self) -> None:
        if self.outer_tol <= 0 or self.inner_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass(frozen=True)
class Termination:
    kind: str
    message: str = ""

    STATIONARY = "stationary"
    MAX_ITERS = "max_iters"
    ERROR = "error"

    @staticmethod
    def stationary() -> "Termination":
        return Termination(Termination.STATIONARY)

    @staticmethod
    def max_iters() -> "Termination":
        return Termination(Termination.MAX_ITERS)

    @staticmethod
    def error(message: str) -> "Termination":
        return Termination(Termination.ERROR, message)


@dataclass(frozen=True)
class IterationRecord:
    k: int
    point: Point
    f_value: float
    step_dist: float
    residual: float
    lam: float
    inner_iters: int
    subgrad_norm: float


@dataclass
class Trace:
    records: list[IterationRecord]
    termination: Termination
    start: Point

    @property
    def iterations(self) -> int:
        return len(self.records)

    def final_point(self) -> Point:
        return self.records[-1].point if self.records else self.start

    def final_f(self) -> Optional[float]:
        return self.records[-1].f_value if self.records else None


def residual(p_next: Point, p_k: Point, lam: float) -> float:
    """Norm of the stationarity certificate lam * log_map(p_next, p_k)."""
    if lam <= 0:
        raise LambdaBoundError(f"weight must be positive, got {lam}")
    return norm(p_next, float(lam) * log_map(p_next, p_k))


def _hull_stats_1d(hull: SubdiffHull) -> tuple[float, float, float]:
    """(min pairing, max pairing, min-norm) of a hull on a 1-d manifold."""
    base = hull.base
    unit = unit_forward(base)
    s = [inner(base, g, unit) for g in hull.generators]
    lo, hi = min(s), max(s)
    mn = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return lo, hi, mn


def _attempt_step(p: Point, direction: Tangent, t: float, valid: Callable[[Point], bool]):
    """Move along direction with step t, halving on domain or overflow exits."""
    for _ in range(_STEP_BACKTRACKS):
        try:
            cand = exp_map(p, t * direction)
        except (ExpOverflowError, InvalidPointError):
            t *= 0.5
            continue
        if valid(cand):
            return cand
        t *= 0.5
    raise DomainError("could not keep the inner iterate inside the admissible region")


def _polish_1d(
    h_value: Callable[[Point], float],
    h_subdiff: Callable[[Point], SubdiffHull],
    p: Point,
    mu: float,
    cfg: ProxConfig,
    iters: int,
    valid: Callable[[Point], bool],
) -> tuple[Point, int]:
    """Bisection on the sign of the one-sided subproblem derivatives (dim 1).

    Maintains a bracket whose ends disagree on which side the minimizer
    lies, shrinking by geodesic midpoints until the minimum-norm
    subgradient meets the inner tolerance.
    """
    tol = cfg.inner_tol

    def stats(x: Point) -> tuple[float, float, float]:
        return _hull_stats_1d(h_subdiff(x))

    _, hi, mn = stats(p)
    iters += 1
    if mn <= tol:
        return p, iters
    forward = hi < 0.0  # descent direction points along increasing coordinates
    sign = 1.0 if forward else -1.0
    base_unit = unit_forward(p)

    # the minimizer of a mu-strongly-convex h lies within 2|g|/mu of p
    reach = 2.0 * mn / mu
    step = 1.05 * reach + 1e-15
    a = p
    b = None
    best, best_mn = p, mn
    for _ in range(_BRACKET_DOUBLINGS):
        cand = _attempt_step(p, base_unit, sign * step, valid)
        _, chi, cmn = stats(cand)
        iters += 1
        if cmn < best_mn:
            best, best_mn = cand, cmn
        if cmn <= tol:
            return cand, iters
        if (chi < 0.0) == forward:
            a = cand
            step *= 2.0
        else:
            b = cand
            break
    if b is None:
        raise InnerCapError(
            "bracketing the subproblem minimizer failed", best, iters, best_mn
        )

    for _ in range(_BISECT_CAP):
        mid = exp_map(a, 0.5 * log_map(a, b))
        _, mhi, mmn = stats(mid)
        iters += 1
        if mmn < best_mn:
            best, best_mn = mid, mmn
        if mmn <= tol:
            return mid, iters
        if (mhi < 0.0) == forward:
            a = mid
        else:
            b = mid
        if dist(a, b) <= 1e-15:
            break
    if best_mn <= tol:
        return best, iters
    raise InnerCapError(
        f"bisection stalled with min-norm subgradient {best_mn:.3e}", best, iters, best_mn
    )


def inner_solve(
    h_value: Callable[[Point], float],
    h_subdiff: Callable[[Point], SubdiffHull],
    p_start: Point,
    mu: float,
    cfg: ProxConfig,
    t_safe: Optional[float] = None,
    valid: Optional[Callable[[Point], bool]] = None,
) -> tuple[Point, int]:
    """Minimize a strongly convex nonsmooth subproblem.

    Runs projected-free Riemannian subgradient descent with the classic
    strongly-convex step rule t_j = 2 / (mu (j+2)) clamped at t_safe, using
    the minimum-norm subgradient at each iterate.  Terminates once that
    norm reaches cfg.inner_tol.  On one-dimensional manifolds a bisection
    polish on the sign of the directional derivative finishes the job;
    otherwise hitting the cap raises InnerCapError carrying the best
    iterate seen.
    """
    if mu <= 0:
        raise LambdaBoundError(f"strong convexity modulus must be positive, got {mu}")
    if valid is None:
        valid = lambda _: True

    dim = p_start.manifold.dim
    budget = cfg.max_inner if dim > 1 else min(cfg.max_inner, _WARMUP_STEPS_1D)
    p = p_start
    iters = 0
    best, best_h = p, h_value(p)
    for j in range(budget):
        hull = h_subdiff(p)
        g, gn = min_norm_subgradient(hull)
        iters += 1
        if gn <= cfg.inner_tol:
            return p, iters
        t = 2.0 / (mu * (j + 2))
        if t_safe is not None:
            t = min(t, t_safe)
        p = _attempt_step(p, g, -t, valid)
        h_p = h_value(p)
        if h_p < best_h:
            best, best_h = p, h_p

    if dim == 1:
        return _polish_1d(h_value, h_subdiff, best, mu, cfg, iters, valid)

    hull = h_subdiff(best)
    g, gn = min_norm_subgradient(hull)
    if gn <= cfg.inner_tol:
        return best, iters
    raise InnerCapError(
        f"inner cap {cfg.max_inner} reached with min-norm subgradient {gn:.3e}",
        best,
        iters,
        gn,
    )


def prox_step(
    obj: MaxObjective,
    p_k: Point,
    lam: float,
    cfg: ProxConfig,
    lipschitz: Optional[float] = None,
) -> tuple[Point, int]:
    """One proximal step from p_k with weight lam.

    lam must strictly exceed the Lipschitz bound (passed explicitly or
    declared on the objective); the difference is the strong convexity
    modulus handed to the inner solver.
    """
    lam = float(lam)
    lip = lipschitz if lipschitz is not None else obj.declared_sup_lipschitz()
    if lip is None:
        raise LambdaBoundError(
            "no Lipschitz bound available; pass lipschitz= or declare one on the objective"
        )
    if lam <= lip:
        raise LambdaBoundError(f"weight {lam} must strictly exceed the Lipschitz bound {lip}")
    obj.check_domain(p_k)

    h_obj = with_prox_term(obj, p_k, lam)

    def h_value(p: Point) -> float:
        return eval_f(h_obj, p)[0]

    def h_subdiff(p: Point) -> SubdiffHull:
        return clarke_subdiff(h_obj, p)

    return inner_solve(
        h_value,
        h_subdiff,
        p_k,
        mu=lam - lip,
        cfg=cfg,
        t_safe=1.0 / lam,
        valid=h_obj.in_domain,
    )


def solve(
    obj: MaxObjective,
    p0: Point,
    sched: LambdaSchedule,
    cfg: ProxConfig,
    level_ref: Optional[Point] = None,
) -> Trace:
    """Run the proximal point iteration from p0 until the residual drops
    below cfg.outer_tol or a cap or failure intervenes.

    p0 must lie in the admissible region; a start outside it is rejected,
    never projected.  When level_ref is given, f(p0) must not exceed
    f(level_ref) (LevelSetError), and an iterate above that level ends the
    run with an error termination.
    Failures after the first step are folded into the returned trace as an
    error termination so partial progress survives.
    """
    obj.check_domain(p0)
    f_prev, _ = eval_f(obj, p0)
    f_ref = None
    if level_ref is not None:
        f_ref, _ = eval_f(obj, level_ref)
        if f_prev > f_ref:
            raise LevelSetError(f"start value {f_prev} exceeds the reference level {f_ref}")

    records: list[IterationRecord] = []
    termination = Termination.max_iters()
    p = p0
    for k in range(cfg.max_outer):
        lam = sched.at(k)
        try:
            p_next, inner_iters = prox_step(obj, p, lam, cfg, lipschitz=sched.lower)
            step = dist(p_next, p)
            res = lam * step
            f_next, _ = eval_f(obj, p_next)
            _, sub_norm = min_norm_subgradient(clarke_subdiff(obj, p_next))
        except (InnerCapError, DomainError, GeometryError) as exc:
            termination = Termination.error(f"{type(exc).__name__}: {exc}")
            break
        records.append(
            IterationRecord(k, p_next, f_next, step, res, lam, inner_iters, sub_norm)
        )
        if f_ref is not None and f_next > f_ref:
            termination = Termination.error(
                f"LevelSetError: iterate {k} value {f_next} left the reference level {f_ref}"
            )
            break
        if res <= cfg.outer_tol:
            termination = Termination.stationary()
            break
        p = p_next
    return Trace(records, termination, p0)
