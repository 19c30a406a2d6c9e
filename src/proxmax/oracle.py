"""Slow verification oracles.

What is independent here is the method: gradients come from central
differences, minimizers from dense grids with a golden-section polish,
convexity from random chord checks, and semicontinuity from seeded
sampling.  The geometry is not: the steps of fd_gradient, the chords of the
convexity test and the samples of usc_sampler run through the library's own
row kernels (exp_rows, log_rows, dist_rows, transport_rows).  The geometry
tests check those kernels against their closed forms.

The grid search, the convexity test and fd_gradient take an array field on
point coordinates (N, n).  The grid search evaluates the grid in chunks of
GRID_CHUNK nodes, so a 5001-node grid costs one field call rather than
5001; the convexity test makes one call for all chord endpoints and one for
all points along the chords; fd_gradient differentiates a field with values
(N, ...), such as every branch value, at all rows in 2n calls.  usc_sampler
takes an objective and evaluates all its samples in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .manifold import (
    Geometry,
    ManifoldKind,
    Point,
    dist_rows,
    exp_rows,
    from_chart_rows,
    log_rows,
    point_coords,
    random_unit_coords,
    transport_rows,
)
from .objective import CoordsMap, DomainError, MaxObjective, gen_dir_derivative

__all__ = [
    "GridSpec",
    "fd_gradient",
    "grid_minimize",
    "ConvexityReport",
    "geodesic_convexity_test",
    "UscReport",
    "usc_sampler",
]

MAX_GRID_POINTS = 10_000_000
# grid nodes per field call; bounds the search's memory for any grid size
GRID_CHUNK = 65_536
GOLDEN_WIDTH = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ArrayField = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned coordinate box with a fixed node count per axis."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_dim: int

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("grid bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper in every coordinate")
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be at least 2")
        if self.points_per_dim ** lo.size > MAX_GRID_POINTS:
            raise ValueError(
                f"grid would exceed {MAX_GRID_POINTS:.0e} nodes; refuse to enumerate"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return int(self.lower.size)


def fd_gradient(field: ArrayField, manifold: ManifoldKind, X) -> np.ndarray:
    """Central-difference gradients (N, ..., n) of an array field at the point rows X (N, n).

    field maps rows (N, n) to values (N, ...), and entry [k, ..., i] of the
    result belongs to value [k, ...] and coordinate i.  Differences are taken
    through exp_rows along each tangent coordinate direction, with steps
    sqrt(eps) * max(1, |coordinate|), then converted to gradients with the
    metric (the sharp of the estimated differential).  Shifted rows that are
    not valid points raise InvalidPointError, and out-of-domain evaluations
    propagate.
    """
    X = point_coords(manifold, X, rows=True)
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(X))
    sharp = X**2 if manifold.geometry is Geometry.LOG_POSITIVE else np.ones_like(X)

    def values(shift: np.ndarray) -> np.ndarray:
        moved = point_coords(manifold, exp_rows(manifold, X, shift), rows=True)
        return np.asarray(field(moved), dtype=float)

    columns = []
    for i in range(manifold.dim):
        e = np.zeros_like(X)
        e[:, i] = steps[:, i]
        # transposed, the rows run along the last axis and meet steps and sharp there
        diff = (values(e) - values(-e)).T
        columns.append((diff / (2.0 * steps[:, i]) * sharp[:, i]).T)
    return np.stack(columns, axis=-1)


def _golden_refine(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search down to a bracket of width GOLDEN_WIDTH."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(300):
        if hi - lo <= GOLDEN_WIDTH:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    xbest, fbest = (x1, f1) if f1 <= f2 else (x2, f2)
    return xbest, fbest


def _field_values(field: ArrayField, X: np.ndarray) -> np.ndarray:
    """field at the rows of X, which must come back as one value per row."""
    vals = np.asarray(field(X), dtype=float)
    if vals.shape != (len(X),):
        raise ValueError(f"field returned shape {vals.shape} for {len(X)} points")
    return vals


def grid_minimize(
    field: ArrayField, grid: GridSpec, manifold: ManifoldKind
) -> tuple[Point, float]:
    """Brute-force minimizer of an array field over a coordinate box.

    field maps node coordinates (N, n) to values (N,).  The full grid
    (guarded against combinatorial blowups by GridSpec) is enumerated in
    np.ndindex order, GRID_CHUNK nodes per field call, and every node must
    be a valid point of the manifold.  The first minimal node wins, also
    across chunks; NaN and +inf nodes never win, and RuntimeError is raised
    when no node does.  In one dimension the best node is polished by
    golden-section search between its neighbors, with field called on
    (1, 1) arrays.
    """
    if grid.dim != manifold.dim:
        raise ValueError(f"grid dim {grid.dim} does not match manifold dim {manifold.dim}")
    axes = [
        np.linspace(grid.lower[i], grid.upper[i], grid.points_per_dim)
        for i in range(grid.dim)
    ]
    shape = (grid.points_per_dim,) * grid.dim
    total = grid.points_per_dim**grid.dim
    best_node = -1
    best_val = np.inf
    for start in range(0, total, GRID_CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, total)), shape)
        coords = np.stack([a[i] for a, i in zip(axes, idx)], axis=1)
        nodes = point_coords(manifold, coords, rows=True)
        vals = _field_values(field, nodes)
        k = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
        if vals[k] < best_val:
            best_node, best_val, best_coords = start + k, float(vals[k]), nodes[k].copy()
    if best_node < 0:
        raise RuntimeError("no grid node has a value below +inf")

    if grid.dim == 1:
        axis = axes[0]
        lo = axis[max(best_node - 1, 0)]
        hi = axis[min(best_node + 1, axis.size - 1)]
        x, val = _golden_refine(
            lambda c: float(field(point_coords(manifold, [[c]], rows=True))[0]),
            float(lo),
            float(hi),
        )
        if val < best_val:
            best_val = val
            best_coords = np.array([x])
    return Point(manifold, best_coords), float(best_val)


@dataclass(frozen=True)
class ConvexityReport:
    n_pairs: int
    n_checks: int
    n_violations: int
    worst_violation: float
    modulus: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def geodesic_convexity_test(
    field: ArrayField,
    manifold: ManifoldKind,
    samples: int,
    modulus: float,
    lower,
    upper,
    seed: int = 42,
    slack: float = 1e-8,
    domain: Optional[CoordsMap] = None,
) -> ConvexityReport:
    """Chord test for geodesic strong convexity over a coordinate box.

    field maps point coordinates (N, n) to values (N,).  Draws endpoint
    pairs uniformly in the flat chart of the box, checks h(gamma(t)) against
    the strongly convex chord bound at t = 0.1 .. 0.9, and reports the worst
    violation beyond the slack.  Draws whose coordinates fall outside an
    optional domain map (coordinates (n,) to a bool, like
    MaxObjective.domain_guard) are retried up to a cap.  One field call
    evaluates all endpoints and one all chord points; a NaN value raises
    ValueError naming its point.
    """
    if modulus < 0:
        raise ValueError(f"modulus must be >= 0, got {modulus}")
    if samples < 1:
        raise ValueError("need at least one sample pair")
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != (manifold.dim,) or hi.shape != (manifold.dim,):
        raise ValueError("box bounds must match the manifold dimension")
    if manifold.geometry is Geometry.LOG_POSITIVE:
        if np.any(lo <= 0):
            raise ValueError("box bounds must be positive on the log-positive orthant")
        lo, hi = np.log(lo), np.log(hi)
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        for _ in range(200):
            x = from_chart_rows(manifold, rng.uniform(lo, hi))
            if domain is None or domain(x):
                return x
        raise DomainError("could not draw an admissible sample in the box")

    def values(X: np.ndarray) -> np.ndarray:
        vals = _field_values(field, X)
        nan = np.isnan(vals)
        if np.any(nan):
            raise ValueError(f"field value is NaN at {X[int(np.argmax(nan))].tolist()}")
        return vals

    # rows p_1, q_1, p_2, q_2, ...: each pair draws p, then q
    ends = point_coords(manifold, [draw() for _ in range(2 * samples)], rows=True)
    h_ends = values(ends)
    p, q = ends[0::2], ends[1::2]
    hp, hq = h_ends[0::2, None], h_ends[1::2, None]
    # float_power is the C pow of a float's ** 2
    d2 = np.float_power(dist_rows(manifold, p, q), 2.0)[:, None]
    ts = np.arange(1, 10) / 10.0
    steps = ts[:, None] * log_rows(manifold, p, q)[:, None, :]
    on_chords = exp_rows(manifold, p[:, None, :], steps).reshape(-1, manifold.dim)
    h_chords = values(point_coords(manifold, on_chords, rows=True)).reshape(samples, ts.size)
    gaps = h_chords - ((1.0 - ts) * hp + ts * hq - 0.5 * modulus * ts * (1.0 - ts) * d2)
    # a NaN gap (infinite values on both sides) confirms nothing: a violation
    n_violations = int(np.count_nonzero(~(gaps <= slack)))
    return ConvexityReport(
        samples, gaps.size, n_violations, float(np.max(gaps)), modulus, slack
    )


@dataclass(frozen=True)
class UscReport:
    reference: float
    tail_max: float
    gap: float
    tolerance: float
    n: int
    tail_start: int
    discarded: int
    note: str = "sampled evidence only, not a proof"

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance


# perturbation scale keeping the first-order pairing slack inside the
# pass tolerance for n = 1000 tails
_USC_PERT_SCALE = 0.25


def usc_sampler(
    obj: MaxObjective, p: Point, v, n: int, seed: int = 42, tolerance: float = 1e-3
) -> UscReport:
    """Sampled upper-semicontinuity check of the directional derivative.

    v holds the direction's tangent coordinates (n,) at p.  Builds a
    sequence (p_k, v_k) -> (p, v) with d(p_k, p) = 1/k, v_k the transport
    of v plus a random tangent of norm 0.25/k, and compares the largest tail
    value (final tenth) of the directional derivative against its value at
    (p, v).  Step k draws the direction at p, then the kick at p_k if p_k is
    admissible; one gen_dir_derivative call takes every row, and rejects a
    non-finite v.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    obj.check_domain(p)
    m, x, u = obj.manifold, p.coords, np.asarray(v, dtype=float)
    if u.shape != x.shape:
        raise ValueError(f"direction must have shape {x.shape}, got {u.shape}")
    rng = np.random.default_rng(seed)
    kept = [(0, x, u)]  # (k, p_k, v_k) rows, with (p, v) as step 0
    for k in range(1, n + 1):
        p_k = point_coords(m, exp_rows(m, x, (1.0 / k) * random_unit_coords(m, x, rng)))
        if obj.domain_guard is None or obj.domain_guard(p_k):
            kick = (_USC_PERT_SCALE / k) * random_unit_coords(m, p_k, rng)
            kept.append((k, p_k, transport_rows(m, x, p_k, u) + kick))
    steps, X, V = zip(*kept)
    values = np.full(n + 1, -np.inf)  # entry k for step k, discarded steps at -inf
    values[list(steps)] = gen_dir_derivative(obj, X, V)
    reference, discarded = float(values[0]), n + 1 - len(steps)
    tail_start = max((9 * n) // 10, 1)
    tail = values[tail_start:]
    tail = tail[np.isfinite(tail)]
    if tail.size == 0:
        raise DomainError("every tail sample fell outside the admissible region")
    tail_max = float(np.max(tail))
    return UscReport(
        reference=reference,
        tail_max=tail_max,
        gap=tail_max - reference,
        tolerance=float(tolerance),
        n=n,
        tail_start=tail_start,
        discarded=discarded,
    )
