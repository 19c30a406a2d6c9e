"""Proximal point outer loop and the inner subproblem solver.

Each outer step minimizes h = f + (lam/2) d(., p_k)^2.  With lam strictly
above the largest branch-gradient Lipschitz constant the subproblem is
geodesically strongly convex with modulus lam minus that constant, so the
step is unique.  The scaled step lam * log_map(p_next, p_k) is a
generalized subgradient of f at p_next up to the inner tolerance, which
makes lam * d(p_next, p_k) the natural stationarity residual.

The inner solver takes prox-linear steps in the flat chart z (z = x, or
z = ln x), solving each step's model exactly through objective.simplex_qp;
Point and Tangent appear only at its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .manifold import (
    GeometryError,
    InvalidPointError,
    Point,
    chart_scale_rows,
    dist,
    from_chart_rows,
    to_chart,
)
from .objective import (
    DomainError,
    MaxObjective,
    branch_grads,
    clarke_subdiff,
    eval_branches,
    eval_f,
    min_norm_subgradient,
    simplex_qp,
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
    "inner_solve",
    "prox_step",
    "solve",
]

_STEP_BACKTRACKS = 40
# an accepted step lowers h by at least this share of the model's decrease
_ARMIJO = 1e-4
# rounding allowance of an h comparison, relative to the largest |h_i|
_H_NOISE = 16.0 * np.finfo(float).eps


class LambdaBoundError(ValueError):
    """Regularization weight violates its required bounds."""


class LevelSetError(RuntimeError):
    """An iterate left the reference sublevel set."""


class InnerCapError(RuntimeError):
    """Inner solver stopped short of its tolerance: at its iteration cap,
    when no trial of a step stayed admissible and lowered h, or when an
    accepted step was below the floating-point resolution of its iterate.

    Carries the last inner iterate (the lowest h so far), the steps taken
    and the certificate c|d| at that iterate.
    """

    def __init__(self, message: str, best: Point, iterations: int, certificate: float):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.certificate = certificate


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
    """Outer records and why they stopped; best and best_residual hold a
    failed inner solve's last iterate and certificate."""

    records: list[IterationRecord]
    termination: Termination
    start: Point
    best: Optional[Point] = None
    best_residual: Optional[float] = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def final_point(self) -> Point:
        return self.records[-1].point if self.records else self.start

    def final_f(self) -> Optional[float]:
        return self.records[-1].f_value if self.records else None


def inner_solve(
    obj: MaxObjective, center: Point, lam: float, rho: float, cfg: ProxConfig
) -> tuple[Point, int]:
    """Minimize h = f + (lam/2) d(., center)^2 from center by prox-linear steps.

    In the flat chart z the branches of h are h_i(z) = phi_i + (lam/2)|z - z_c|^2.
    Each step minimizes the model max_i [h_i(z) + <grad h_i(z), d>] + (c/2)|d|^2.
    simplex_qp solves its dual, min over the simplex of
    |sum w_i grad h_i|^2 / (2c) - sum w_i h_i, exactly, and
    d = -sum w_i grad h_i / c.  An Armijo search on h halves the step on
    domain or overflow exits and on too little decrease.  The first step
    takes c = lam + rho, which makes the model bound h from above when rho
    bounds the branch-gradient Lipschitz constants; each later step takes
    the curvature of the previous step's branch mix sum w_i h_i along that
    step, at least lam - rho.  That secant is lam on affine branches, and it
    corrects a bound below the branches' curvature (quadratic declares 0).

    The certificate c|d| bounds the distance from 0 to the
    eps-subdifferential of h at z, eps = h(z) - sum w_i h_i.  Once it is at
    most cfg.inner_tol the solver returns z + d from that step, after its
    own search (or z, if rounding leaves no decrease to see): near a kink,
    z + d lies on it.  Returns the point and the number of steps taken;
    raises InnerCapError when the cfg.max_inner-th step is still
    uncertified, when a search fails, or when an uncertified step is
    accepted that rounds back to z (the step is below the floating-point
    resolution at z, so every later step would repeat it).  The steps read
    coordinate rows; a Point is built only for the result or the error.
    """
    m = obj.manifold
    c = lam + rho
    z0 = to_chart(center)

    def trial(zt: np.ndarray):
        """(x, branch values of h) at chart point zt, or None outside the domain."""
        with np.errstate(over="ignore"):
            xt = from_chart_rows(m, zt)
        try:
            vals = eval_branches(obj, xt[None])[0]
        except (DomainError, InvalidPointError):
            return None
        dz = zt - z0
        return xt, vals + 0.5 * lam * float(dz @ dz)

    z, x, hv = z0, center.coords, eval_branches(obj, center.coords[None])[0]
    it, s = 0, None
    while True:
        G = branch_grads(obj, x[None])[0] / chart_scale_rows(m, x) + lam * (z - z0)
        if s is not None and s @ s > 0.0:
            # curvature of the last step's branch mix along that step
            c = max(s @ (w @ G - u) / (s @ s), lam - rho)
        w = simplex_qp(G, hv, c)
        u = w @ G
        cert = float(np.sqrt(u @ u))
        certified = cert <= cfg.inner_tol
        it += 1
        if not certified and it == cfg.max_inner:
            raise InnerCapError(
                f"inner cap {cfg.max_inner} reached with certificate {cert:.3e}",
                Point(m, x),
                it,
                cert,
            )
        if cert == 0.0:  # z minimizes its own model: there is no step to search
            return Point(m, x), it
        h = hv.max()
        decrease = h - w @ hv + cert * cert / c
        noise = _H_NOISE * abs(hv).max()
        t = 1.0
        for _ in range(_STEP_BACKTRACKS):
            zt = z - (t / c) * u
            step = trial(zt)
            if step is not None and step[1].max() <= h - _ARMIJO * t * decrease + noise:
                if not certified and (zt == z).all():
                    raise InnerCapError(
                        f"step of length {t * cert / c:.3e} is below the floating-point "
                        f"resolution at {x.tolist()}; certificate {cert:.3e}",
                        Point(m, x),
                        it,
                        cert,
                    )
                s, z, x, hv = zt - z, zt, step[0], step[1]
                break
            t *= 0.5
        else:
            if not certified:
                raise InnerCapError(
                    f"no trial step stayed admissible and lowered h; certificate {cert:.3e}",
                    Point(m, x),
                    it,
                    cert,
                )
        if certified:
            return Point(m, x), it


def prox_step(
    obj: MaxObjective,
    p_k: Point,
    lam: float,
    cfg: ProxConfig,
    lipschitz: Optional[float] = None,
) -> tuple[Point, int]:
    """One proximal step from p_k with weight lam.

    lam must strictly exceed the Lipschitz bound (passed explicitly or
    declared on the objective); lam plus the bound weighs the quadratic of
    the inner solver's first model.
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
    return inner_solve(obj, p_k, lam, float(lip), cfg)


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
    error termination so partial progress survives; a failed inner solve
    also leaves its last iterate and certificate in trace.best and
    trace.best_residual.
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
    best = best_residual = None
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
            if isinstance(exc, InnerCapError):
                best, best_residual = exc.best, exc.certificate
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
    return Trace(records, termination, p0, best, best_residual)
