"""Proximal point outer loop and the inner subproblem solver.

Both geometries have a global isometric chart (manifold.py), so the
method of Ferreira & Oliveira on them is the Euclidean proximal point
method on the pullback of f, and everything here runs on chart rows z.
Each outer step minimizes h = f + (lam/2)|z - z_k|^2.  With lam strictly
above the largest branch-gradient Lipschitz constant the subproblem is
strongly convex with modulus lam minus that constant, so the step is
unique.  The scaled step lam (z_k - z_next) is a generalized subgradient
of f at z_next up to the inner tolerance, which makes lam |z_next - z_k|,
lam times the geodesic distance, the natural stationarity residual.

The inner solver takes prox-linear steps, solving each step's model
exactly through objective.simplex_qp.  Point appears only at the edges:
solve's start, its records and a failed solve's last iterate.

Each iterate is evaluated once.  inner_solve takes the centre as an
objective.Evaluation (its chart row, branch values and gradients) and
returns one at its result; solve reads each record's value and
minimum-norm subgradient from it, and the next outer step starts from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .manifold import (
    GeometryError,
    InvalidPointError,
    Point,
    from_chart_rows,
    row_norms,
)
from .objective import (
    DomainError,
    Evaluation,
    MaxObjective,
    branch_grads,
    eval_branches,
    eval_f,
    evaluate,
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
# the last trial's share of a full step
_T_MIN = 0.5 ** (_STEP_BACKTRACKS - 1)
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
    """The regularization weight of every step, constant, inside (lower, upper].

    lower is the Lipschitz estimate the weight must strictly exceed and
    upper the finite cap keeping it bounded.
    """

    lower: float
    upper: float
    constant: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or self.lower < 0:
            raise LambdaBoundError(f"lower bound must be finite and >= 0, got {self.lower}")
        if not np.isfinite(self.upper) or self.upper <= self.lower:
            raise LambdaBoundError(
                f"upper bound must be finite and exceed lower={self.lower}, got {self.upper}"
            )
        lam = float(self.constant)
        object.__setattr__(self, "constant", lam)
        if not (self.lower < lam <= self.upper):
            raise LambdaBoundError(f"weight {lam} outside ({self.lower}, {self.upper}]")

    @staticmethod
    def auto_weight(lipschitz: float, upper: float) -> float:
        """1.5x the Lipschitz estimate, clipped to upper; 1.0 for a zero
        estimate, where any positive weight keeps the subproblem strongly convex."""
        return float(min(1.5 * lipschitz if lipschitz > 0 else 1.0, upper))

    @staticmethod
    def default(lipschitz: float, upper: float) -> "LambdaSchedule":
        """Constant schedule at auto_weight(lipschitz, upper)."""
        lam = LambdaSchedule.auto_weight(lipschitz, upper)
        return LambdaSchedule(lower=float(lipschitz), upper=float(upper), constant=lam)


@dataclass(frozen=True)
class ProxConfig:
    outer_tol: float = 1e-8
    inner_tol: float = 1e-10
    max_outer: int = 10_000
    max_inner: int = 1_000

    def __post_init__(self) -> None:
        for name, tol in (("outer_tol", self.outer_tol), ("inner_tol", self.inner_tol)):
            if not (np.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be positive and finite, got {tol}")
        for name, cap in (("max_outer", self.max_outer), ("max_inner", self.max_inner)):
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {cap!r}")


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
    obj: MaxObjective, center: Evaluation, lam: float, rho: float, cfg: ProxConfig
) -> tuple[Evaluation, int]:
    """Minimize h = f + (lam/2)|z - z_c|^2 from center by prox-linear steps on chart rows.

    The branches of h are h_i(z) = phi_i + (lam/2)|z - z_c|^2.  Each step
    minimizes the model max_i [h_i(z) + <grad h_i(z), d>] + (c/2)|d|^2.
    simplex_qp solves its dual, min over the simplex of
    |sum w_i grad h_i|^2 / (2c) - sum w_i h_i, exactly, and
    d = -sum w_i grad h_i / c.  An Armijo search on h halves the step on
    domain exits and on too little decrease.  The first step takes
    c = lam + rho, which makes the model bound h from above when rho bounds
    the branch-gradient Lipschitz constants; each later step takes the
    curvature of the previous step's branch mix sum w_i h_i along that
    step, at least lam - rho.  That secant is lam on affine branches, and it
    corrects a bound below the branches' curvature (quadratic declares 0).

    The certificate c|d| bounds the distance from 0 to the
    eps-subdifferential of h at z, eps = h(z) - sum w_i h_i.  Once it is at
    most cfg.inner_tol the solver returns z + d from that step, after its
    own search: near a kink, z + d lies on it, or returns z when the search
    finds no decrease.  Where the model's decrease is below the rounding of
    h (at a zero of f, where the branch values cancel), a trial that rises
    by more than the allowance, even scaled to the last trial's step, ends
    the search at once.
    Returns the Evaluation of the result and the number of steps taken;
    raises InnerCapError when the cfg.max_inner-th step is still
    uncertified, when a search fails, or when an uncertified step is
    accepted that rounds back to z (the step is below the floating-point
    resolution at z, so every later step would repeat it).  An accepted
    trial keeps its branch values and takes one gradient row.  A Point is
    built only for the result or the error.
    """
    m = obj.manifold
    c = lam + rho
    z0 = center.z

    def trial(zt: np.ndarray):
        """(branch values of f, of h) at chart point zt, or None outside the domain."""
        try:
            vals = eval_branches(obj, zt[None])[0]
        except (DomainError, InvalidPointError):
            return None
        dz = zt - z0
        return vals, vals + 0.5 * lam * float(dz @ dz)

    def cap_error(message: str, cert: float) -> InnerCapError:
        return InnerCapError(message, Point(m, from_chart_rows(m, z)), it, cert)

    def result() -> Evaluation:
        return center if z is z0 else Evaluation(Point(m, from_chart_rows(m, z)), z, fv, grads)

    z, grads = z0, center.grads
    fv = hv = center.values
    it, s = 0, None
    while True:
        G = grads + lam * (z - z0)
        if s is not None and s @ s > 0.0:
            # curvature of the last step's branch mix along that step
            c = max(s @ (w @ G - u) / (s @ s), lam - rho)
        w = simplex_qp(G, hv, c)
        u = w @ G
        cert = float(np.sqrt(u @ u))
        certified = cert <= cfg.inner_tol
        it += 1
        if not certified and it == cfg.max_inner:
            raise cap_error(f"inner cap {cfg.max_inner} reached with certificate {cert:.3e}", cert)
        h = hv.max()
        decrease = h - w @ hv + cert * cert / c
        noise = _H_NOISE * abs(hv).max()
        if cert == 0.0:  # z minimizes its own model: there is no step to search
            return result(), it
        # branch values carry the rounding of their terms, which can stay near
        # 1 where the values cancel to 0 (e^{-2e^z} - e^{-2} at z = 0): a
        # certified decrease below 16 eps max(1, |h|) is one no trial can show
        unresolved = certified and decrease <= _H_NOISE * max(1.0, abs(hv).max())
        t = 1.0
        for _ in range(_STEP_BACKTRACKS):
            zt = z - (t / c) * u
            step = trial(zt)
            if step is not None:
                target = h - _ARMIJO * t * decrease
                if step[1].max() <= target + noise:
                    if not certified and (zt == z).all():
                        raise cap_error(
                            f"step of length {t * cert / c:.3e} is below the floating-point "
                            f"resolution at {from_chart_rows(m, z).tolist()}; "
                            f"certificate {cert:.3e}",
                            cert,
                        )
                    s, z, (fv, hv) = zt - z, zt, step
                    grads = branch_grads(obj, z[None])[0]
                    break
                if unresolved and (step[1].max() - target) * (_T_MIN / t) > noise:
                    # h rises along such a step in proportion to t, so no trial
                    # down to the last can pass: the search ends at z
                    break
            t *= 0.5
        else:
            if not certified:
                raise cap_error(
                    f"no trial step stayed admissible and lowered h; certificate {cert:.3e}", cert
                )
        if certified:
            return result(), it


def prox_step(
    obj: MaxObjective,
    p_k: Evaluation,
    lam: float,
    cfg: ProxConfig,
    lipschitz: float,
) -> tuple[Evaluation, int]:
    """One proximal step from p_k, an Evaluation of obj, with weight lam.

    lam must strictly exceed the Lipschitz bound lipschitz; lam plus the
    bound weighs the quadratic of the inner solver's first model.  Returns
    inner_solve's Evaluation of the new iterate and its step count.
    """
    lam, lip = float(lam), float(lipschitz)
    if lam <= lip:
        raise LambdaBoundError(f"weight {lam} must strictly exceed the Lipschitz bound {lip}")
    return inner_solve(obj, p_k, lam, lip, cfg)


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
    Failures after the start's value is read, a non-finite gradient at p0
    included, are folded into the returned trace as an error termination so
    partial progress survives; a failed inner solve also leaves its last
    iterate and certificate in trace.best and trace.best_residual.
    """
    obj.check_domain(p0)
    f_prev = eval_f(obj, p0)
    f_ref = None
    if level_ref is not None:
        f_ref = eval_f(obj, level_ref)
        if f_prev > f_ref:
            raise LevelSetError(f"start value {f_prev} exceeds the reference level {f_ref}")

    records: list[IterationRecord] = []
    termination = Termination.max_iters()
    best = best_residual = None
    lam = sched.constant
    at: Optional[Evaluation] = None
    for k in range(cfg.max_outer):
        try:
            if at is None:
                at = evaluate(obj, p0)
            nxt, inner_iters = prox_step(obj, at, lam, cfg, lipschitz=sched.lower)
            step = float(row_norms(nxt.z - at.z))
            res = lam * step
            _, sub_norm = min_norm_subgradient(nxt.subdiff())
        except (InnerCapError, DomainError, GeometryError) as exc:
            termination = Termination.error(f"{type(exc).__name__}: {exc}")
            if isinstance(exc, InnerCapError):
                best, best_residual = exc.best, exc.certificate
            break
        f_next = nxt.f
        records.append(
            IterationRecord(k, nxt.point, f_next, step, res, lam, inner_iters, sub_norm)
        )
        if f_ref is not None and f_next > f_ref:
            termination = Termination.error(
                f"LevelSetError: iterate {k} value {f_next} left the reference level {f_ref}"
            )
            break
        if res <= cfg.outer_tol:
            termination = Termination.stationary()
            break
        at = nxt
    return Trace(records, termination, p0, best, best_residual)
