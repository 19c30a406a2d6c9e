"""Slow verification oracles.

What is independent here is the method: gradients come from central
differences, minimizers from dense grids with a golden-section polish,
convexity from random chord checks, and semicontinuity from seeded
sampling.  All of them work on chart rows (manifold.py), where geodesics
are straight lines and the metric is Euclidean; the geometry tests check
the chart itself.

The grid search, the convexity test and fd_gradient take an array field on
chart rows (N, n).  The grid search runs on one-dimensional manifolds and
evaluates all the nodes of each grid in one field call, so a 5001-node grid
costs one call rather than 5001; the convexity test makes one call for all
chord endpoints and one for all points along the chords; fd_gradient
differentiates a field with values (N, ...), such as every branch value, at
all rows in 2n calls.  usc_sampler takes an objective and a Point and
evaluates all its samples in one call.

The convexity test and usc_sampler draw by one rule (_AdmittedRows): each
sample takes the next row of a private random stream that a test admits,
as a loop redrawing each rejected row would, but the rows come in blocks.
So the samples and the reports are those of that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .manifold import (
    ManifoldKind,
    Point,
    chart_coords,
    row_norms,
    to_chart,
    unit_rows,
    usable_draws,
)
from .objective import ChartMap, DomainError, MaxObjective, gen_dir_derivative

__all__ = [
    "fd_gradient",
    "grid_minimize",
    "ConvexityReport",
    "geodesic_convexity_test",
    "UscReport",
    "usc_sampler",
]

GOLDEN_WIDTH = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ArrayField = Callable[[np.ndarray], np.ndarray]


def fd_gradient(field: ArrayField, manifold: ManifoldKind, Z) -> np.ndarray:
    """Central-difference gradients (N, ..., n) of an array field at the chart rows Z (N, n).

    field maps rows (N, n) to values (N, ...), and entry [k, ..., i] of the
    result belongs to value [k, ...] and coordinate i.  Differences are taken
    along each chart coordinate, with steps sqrt(eps) * max(1, |z_i|).
    Shifted rows that are not valid chart rows raise InvalidPointError, and
    out-of-domain evaluations propagate.
    """
    Z = chart_coords(manifold, Z, rows=True)
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(Z))

    def values(shift: np.ndarray) -> np.ndarray:
        return np.asarray(field(chart_coords(manifold, Z + shift, rows=True)), dtype=float)

    columns = []
    for i in range(manifold.dim):
        e = np.zeros_like(Z)
        e[:, i] = steps[:, i]
        # transposed, the rows run along the last axis and meet steps there
        diff = (values(e) - values(-e)).T
        columns.append((diff / (2.0 * steps[:, i])).T)
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


def _leading(mask: np.ndarray) -> int:
    """How many entries of mask hold before its first False."""
    return len(mask) if mask.all() else int(np.argmin(mask))


class _AdmittedRows:
    """The rows of a private random stream that domain admits, in stream order.

    draw(k) returns the stream's next k rows (k, n) as k one-row draws
    would; standard_normal((k, n)) and uniform(lo, hi, size=(k, n)) do.  So
    the rows come in blocks, and the j-th admitted row is the one that a
    loop redrawing each rejected row takes j-th.  The loop gives up after
    limit rejected rows in a row, and taking a row past there raises error.
    """

    def __init__(self, draw, domain, limit: int, error: Exception) -> None:
        self._draw, self._domain, self._limit, self._error = draw, domain, limit, error
        self._rows = draw(0)  # (0, n): drawing no rows leaves the stream as it is
        self._drawn = self._taken = 0
        self._run = 0  # rejected rows since the last admitted one

    def peek(self, count: int) -> np.ndarray:
        """The next count admitted rows, or those the loop takes before it gives up."""
        want = self._taken + count
        while len(self._rows) < want and self._run < self._limit:
            # enough rows for the missing ones at the admission rate seen so far
            size = (want - len(self._rows)) * (self._drawn + 1) // (len(self._rows) + 1)
            block = self._draw(size)
            admitted = np.asarray(self._domain(block), dtype=bool)
            if admitted.shape != (size,):
                raise ValueError(f"domain returned shape {admitted.shape} for {size} points")
            at = np.flatnonzero(admitted)
            # rejected rows before each admitted one, then after the last
            runs = np.diff(np.append(at, size), prepend=-1) - 1
            runs[0] += self._run
            ok = _leading(runs < self._limit)
            self._rows = np.concatenate([self._rows, block[at[:ok]]])
            self._run = runs[-1] if ok == len(runs) else self._limit
            self._drawn += size
        return self._rows[self._taken : want]

    def take(self, count: int) -> np.ndarray:
        """The next count admitted rows, which are read from then on."""
        rows = self.peek(count)
        if len(rows) < count:
            raise self._error
        self._taken += count
        return rows


def grid_minimize(
    field: ArrayField, manifold: ManifoldKind, lower: float, upper: float, points: int
) -> tuple[np.ndarray, float]:
    """Brute-force minimizer (1,) of an array field over the chart interval [lower, upper].

    field maps chart rows (N, 1) to values (N,).  The manifold must be
    one-dimensional, and every one of the points evenly spaced nodes must be
    a valid chart row of it.  The first minimal node wins; NaN and +inf nodes
    never win, and RuntimeError is raised when no node does.  The best node
    is then polished by golden-section search between its neighbors, with
    field called on (1, 1) arrays.  Returns the minimizer's chart
    coordinates and its value.
    """
    if manifold.dim != 1:
        raise ValueError(f"grid search needs a one-dimensional manifold, got dim {manifold.dim}")
    lower, upper = float(lower), float(upper)
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ValueError("grid bounds must be finite")
    if not lower < upper:
        raise ValueError("need lower < upper")
    if points < 2:
        raise ValueError("points must be at least 2")
    axis = np.linspace(lower, upper, points)
    nodes = chart_coords(manifold, axis[:, None], rows=True)
    vals = _field_values(field, nodes)
    k = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
    best_z, best_val = nodes[k], float(vals[k])
    if not best_val < np.inf:
        raise RuntimeError("no grid node has a value below +inf")
    z, val = _golden_refine(
        lambda c: float(field(chart_coords(manifold, [[c]], rows=True))[0]),
        float(axis[max(k - 1, 0)]),
        float(axis[min(k + 1, points - 1)]),
    )
    if val < best_val:
        best_z, best_val = np.array([z]), val
    return best_z, best_val


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
    domain: Optional[ChartMap] = None,
) -> ConvexityReport:
    """Chord test for geodesic strong convexity over a box in chart coordinates.

    field maps chart rows (N, n) to values (N,), and lower and upper are the
    box's corners (n,) in the chart.  Draws endpoint pairs uniformly in the
    box, checks h(gamma(t)) against the strongly convex chord bound at
    t = 0.1 .. 0.9, where gamma is the chart's straight segment, and reports
    the worst violation beyond the slack.  An optional domain maps chart
    rows (N, n) to bools (N,), like MaxObjective.domain_guard: endpoint j is
    the j-th draw it admits, and DomainError is raised when an endpoint
    comes after 200 rejected draws in a row.  The draws come in row blocks
    (_AdmittedRows).  One field call evaluates all endpoints and one all
    chord points; a NaN value raises ValueError naming its point.
    """
    if modulus < 0:
        raise ValueError(f"modulus must be >= 0, got {modulus}")
    if samples < 1:
        raise ValueError("need at least one sample pair")
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != (manifold.dim,) or hi.shape != (manifold.dim,):
        raise ValueError("box bounds must match the manifold dimension")
    rng = np.random.default_rng(seed)
    draws = _AdmittedRows(
        lambda k: rng.uniform(lo, hi, size=(k, manifold.dim)),
        domain if domain is not None else (lambda Z: np.ones(len(Z), dtype=bool)),
        200,
        DomainError("could not draw an admissible sample in the box"),
    )

    def values(Z: np.ndarray) -> np.ndarray:
        vals = _field_values(field, chart_coords(manifold, Z, rows=True))
        nan = np.isnan(vals)
        if np.any(nan):
            raise ValueError(f"field value is NaN at {Z[int(np.argmax(nan))].tolist()}")
        return vals

    # rows p_1, q_1, p_2, q_2, ...: each pair draws p, then q
    ends = draws.take(2 * samples)
    h_ends = values(ends)
    p, q = ends[0::2], ends[1::2]
    hp, hq = h_ends[0::2, None], h_ends[1::2, None]
    chord = q - p
    # float_power is the C pow of a float's ** 2
    d2 = np.float_power(row_norms(chord), 2.0)[:, None]
    ts = np.arange(1, 10) / 10.0
    on_chords = (p[:, None, :] + ts[:, None] * chord[:, None, :]).reshape(-1, manifold.dim)
    h_chords = values(on_chords).reshape(samples, ts.size)
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

    v holds the direction's chart coordinates (n,).  Builds a sequence
    (z_k, v_k) -> (z, v) in the chart of p with |z_k - z| = 1/k and
    v_k = v plus a random tangent of norm 0.25/k (transport is the identity
    in the chart), and compares the largest tail value (final tenth) of the
    directional derivative against its value at (z, v).  Step k takes a
    direction, then a kick if z_k is admissible, from the normal draws that
    usable_draws admits, as normal_draw takes them but drawn in blocks
    (_AdmittedRows).  A pass assumes that every step from k on is
    admissible and ends at the first that is not.  One gen_dir_derivative
    call takes every row, and rejects a non-finite v.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    obj.check_domain(p)
    m, z, u = obj.manifold, to_chart(p), np.asarray(v, dtype=float)
    if u.shape != z.shape:
        raise ValueError(f"direction must have shape {z.shape}, got {u.shape}")
    guard = obj.domain_guard
    rng = np.random.default_rng(seed)
    normals = _AdmittedRows(
        lambda k: rng.standard_normal((k, m.dim)),
        usable_draws,
        16,
        RuntimeError("failed to draw a non-degenerate tangent direction"),
    )
    # per kept step: k, the chart point z_k and the kick's draw
    steps, Z, kicks = [], [], []
    k, span = 1, n
    while k <= n:
        # step k + i reads draw 2i as its direction and draw 2i + 1 as its
        # kick, up to the first step whose point is inadmissible
        ks = np.arange(k, min(k + span, n + 1))
        rows = normals.peek(2 * len(ks))
        dirs = rows[::2]
        P = z + (1.0 / ks[: len(dirs), None]) * unit_rows(dirs)
        kept = len(P) if guard is None else _leading(guard(P))
        # an inadmissible step reads its direction alone and keeps nothing
        discard = int(kept < len(P))
        # take the draws the pass read, which raises where normal_draw gives up
        normals.take(2 * kept + 1 if discard else 2 * len(ks))
        P = chart_coords(m, P[: kept + discard], rows=True)
        steps.append(ks[:kept])
        Z.append(P[:kept])
        kicks.append(rows[1 : 2 * kept : 2])
        k += kept + discard
        # the next pass looks twice as far ahead as this one reached
        span = 2 * (kept + discard)
    ks, P = np.concatenate(steps), np.concatenate(Z)
    V = u + (_USC_PERT_SCALE / ks[:, None]) * unit_rows(np.concatenate(kicks))
    values = np.full(n + 1, -np.inf)  # entry k for step k, discarded steps at -inf
    keep = np.concatenate([[0], ks])
    Z, V = np.concatenate([z[None], P]), np.concatenate([u[None], V])
    values[keep] = gen_dir_derivative(obj, Z, V)
    reference, discarded = float(values[0]), n + 1 - len(keep)
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
