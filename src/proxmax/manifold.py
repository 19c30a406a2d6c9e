"""Geometry primitives for the two supported spaces.

Two geometries are shipped: flat Euclidean space R^n, and the positive
orthant (0, inf)^n carrying the coordinate-wise metric <u, v>_x = u v / x^2.
The latter is globally isometric to flat space through z = ln(x), so every
operation below has an exact closed form and nothing is integrated
numerically.

Points and tangents are immutable after construction; all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EXP_CLAMP",
    "MIN_POSITIVE_COORD",
    "Geometry",
    "GeometryError",
    "MismatchError",
    "InvalidPointError",
    "ExpOverflowError",
    "ManifoldKind",
    "Point",
    "Tangent",
    "point_coords",
    "euclidean",
    "log_positive",
    "zero_tangent",
    "from_chart",
    "to_chart",
    "random_unit_tangent",
    "inner",
    "norm",
    "dist",
    "dist_rows",
    "exp_map",
    "log_map",
    "transport",
    "pair_transport_gaps",
    "differential_exp",
    "grad_half_sq_dist",
    "geodesic",
]

# |exponent| beyond this overflows float64
EXP_CLAMP = 700.0
# positive-orthant coordinates at or below this count as degenerate
MIN_POSITIVE_COORD = 1e-300


class GeometryError(ValueError):
    """Base class for geometry contract violations."""


class MismatchError(GeometryError):
    """Operands live on different manifolds or at different base points."""


class InvalidPointError(GeometryError):
    """Coordinates do not describe a valid point of the manifold."""


class ExpOverflowError(GeometryError):
    """An exponential-map argument would overflow float64."""


class Geometry(enum.Enum):
    EUCLIDEAN = "euclidean"
    LOG_POSITIVE = "log_positive"


@dataclass(frozen=True)
class ManifoldKind:
    """A supported geometry together with its dimension."""

    geometry: Geometry
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.geometry, Geometry):
            raise InvalidPointError(f"unknown geometry: {self.geometry!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidPointError(f"dim must be a positive integer, got {self.dim!r}")


def euclidean(dim: int) -> ManifoldKind:
    return ManifoldKind(Geometry.EUCLIDEAN, dim)


def log_positive(dim: int) -> ManifoldKind:
    return ManifoldKind(Geometry.LOG_POSITIVE, dim)


def _freeze(values, dim: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if arr.shape != (dim,):
        raise InvalidPointError(f"{what} must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError(f"{what} has non-finite entries: {arr}")
    arr.flags.writeable = False
    return arr


def point_coords(manifold: ManifoldKind, coords, rows: bool = False) -> np.ndarray:
    """Validated float coordinates of one point (dim,), or of points stacked as rows (N, dim).

    Raises InvalidPointError on a wrong shape, a non-finite entry or, on the
    log-positive orthant, an entry at or below MIN_POSITIVE_COORD.  Point
    runs these checks on its own coordinates.
    """
    arr = np.asarray(coords, dtype=float)
    dim = manifold.dim
    if rows:
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise InvalidPointError(f"point rows must have shape (N, {dim}), got {arr.shape}")
    else:
        arr = np.atleast_1d(arr)
        if arr.shape != (dim,):
            raise InvalidPointError(f"point coordinates must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError(f"point coordinates has non-finite entries: {arr}")
    if manifold.geometry is Geometry.LOG_POSITIVE and np.any(arr <= MIN_POSITIVE_COORD):
        raise InvalidPointError(
            f"log-positive coordinates must exceed {MIN_POSITIVE_COORD}: {arr}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class Point:
    """A point of a manifold; coordinates are copied and frozen."""

    manifold: ManifoldKind
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = point_coords(self.manifold, self.coords).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    def __repr__(self) -> str:
        return f"Point({self.manifold.geometry.value}, {self.coords.tolist()})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector attached to a base point."""

    base: Point
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = _freeze(self.coords, self.base.manifold.dim, "tangent coordinates")
        object.__setattr__(self, "coords", arr)

    def _check_same_base(self, other: "Tangent") -> None:
        if other.base.manifold != self.base.manifold or not np.array_equal(
            other.base.coords, self.base.coords
        ):
            raise MismatchError("tangent bases differ")

    def __add__(self, other: "Tangent") -> "Tangent":
        self._check_same_base(other)
        return Tangent(self.base, self.coords + other.coords)

    def __sub__(self, other: "Tangent") -> "Tangent":
        self._check_same_base(other)
        return Tangent(self.base, self.coords - other.coords)

    def __neg__(self) -> "Tangent":
        return Tangent(self.base, -self.coords)

    def __mul__(self, scalar: float) -> "Tangent":
        return Tangent(self.base, float(scalar) * self.coords)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tangent(at {self.base.coords.tolist()}, {self.coords.tolist()})"


def zero_tangent(p: Point) -> Tangent:
    return Tangent(p, np.zeros(p.manifold.dim))


def _is_log(m: ManifoldKind) -> bool:
    return m.geometry is Geometry.LOG_POSITIVE


def _require_same_manifold(p: Point, q: Point) -> None:
    if p.manifold != q.manifold:
        raise MismatchError(f"points on different manifolds: {p.manifold} vs {q.manifold}")


def _require_at(p: Point, v: Tangent) -> None:
    if v.base.manifold != p.manifold or not np.array_equal(v.base.coords, p.coords):
        raise MismatchError("tangent is not attached at the expected point")


def from_chart(manifold: ManifoldKind, z) -> Point:
    """Map flat-chart coordinates to a point (identity on Euclidean space)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if _is_log(manifold):
        return Point(manifold, np.exp(z))
    return Point(manifold, z)


def to_chart(p: Point) -> np.ndarray:
    """Flat-chart coordinates of a point (inverse of from_chart)."""
    if _is_log(p.manifold):
        return np.log(p.coords)
    return p.coords.copy()


def inner(p: Point, u: Tangent, v: Tangent) -> float:
    """Metric pairing of two tangents at p."""
    _require_at(p, u)
    _require_at(p, v)
    if _is_log(p.manifold):
        return float(np.sum(u.coords * v.coords / p.coords**2))
    return float(np.dot(u.coords, v.coords))


def norm(p: Point, v: Tangent) -> float:
    return float(np.sqrt(max(inner(p, v, v), 0.0)))


def dist(p: Point, q: Point) -> float:
    """Geodesic distance between p and q."""
    _require_same_manifold(p, q)
    if _is_log(p.manifold):
        return float(np.linalg.norm(np.log(p.coords / q.coords)))
    return float(np.linalg.norm(p.coords - q.coords))


def dist_rows(coords: np.ndarray, q: Point) -> np.ndarray:
    """dist(p, q) for every row p of coords (N, dim), by dist's closed form.

    Bit-identical to dist in one dimension; in more, dist's BLAS dot may
    round its sum differently by a few ulp.
    """
    chord = np.log(coords / q.coords) if _is_log(q.manifold) else coords - q.coords
    return np.sqrt(np.sum(chord * chord, axis=1))


def exp_map(p: Point, v: Tangent) -> Point:
    """Point reached after unit time along the geodesic leaving p with velocity v."""
    _require_at(p, v)
    if _is_log(p.manifold):
        expo = v.coords / p.coords
        if np.any(np.abs(expo) > EXP_CLAMP):
            raise ExpOverflowError(
                f"exponent magnitude exceeds {EXP_CLAMP}: max {np.max(np.abs(expo))}"
            )
        return Point(p.manifold, p.coords * np.exp(expo))
    return Point(p.manifold, p.coords + v.coords)


def log_map(p: Point, q: Point) -> Tangent:
    """Initial velocity of the unit-time geodesic from p to q."""
    _require_same_manifold(p, q)
    if _is_log(p.manifold):
        return Tangent(p, p.coords * np.log(q.coords / p.coords))
    return Tangent(p, q.coords - p.coords)


def transport(p: Point, q: Point, v: Tangent) -> Tangent:
    """Parallel transport of v along the geodesic from p to q."""
    _require_same_manifold(p, q)
    _require_at(p, v)
    if _is_log(p.manifold):
        return Tangent(q, v.coords * q.coords / p.coords)
    return Tangent(q, v.coords.copy())


def pair_transport_gaps(
    manifold: ManifoldKind, coords: np.ndarray, vecs: np.ndarray, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched dist(p_i, p_j) and norm(p_j, v_j - transport(p_i, p_j, v_i)).

    coords (S, n) stacks points of the manifold and vecs (S, n) one tangent
    at each; i and j index the pairs.  Each pair gets the closed forms of
    dist, transport, inner and norm above, evaluated in the same order.
    """
    p_i, p_j = coords[i], coords[j]
    if _is_log(manifold):
        chord = np.log(p_i / p_j)
        diff = vecs[j] - vecs[i] * p_j / p_i
        sq = np.sum(diff * diff / p_j**2, axis=1)
    else:
        chord = p_i - p_j
        diff = vecs[j] - vecs[i]
        sq = np.sum(diff * diff, axis=1)
    return np.sqrt(np.sum(chord * chord, axis=1)), np.sqrt(sq)


def differential_exp(p: Point, w: Tangent, u: Tangent) -> Tangent:
    """Differential of the exponential map at p, taken at w and applied to u.

    The result is attached at exp_map(p, w).  Closed forms exist for both
    shipped geometries because both are flat.
    """
    _require_at(p, w)
    _require_at(p, u)
    at = exp_map(p, w)
    if _is_log(p.manifold):
        return Tangent(at, np.exp(w.coords / p.coords) * u.coords)
    return Tangent(at, u.coords.copy())


def grad_half_sq_dist(q: Point, pbar: Point) -> Tangent:
    """Gradient of p -> d(p, pbar)^2 / 2 evaluated at q."""
    return -log_map(q, pbar)


def geodesic(p: Point, v: Tangent, t: float) -> Point:
    """Point at parameter t on the geodesic through p with velocity v."""
    return exp_map(p, float(t) * v)


def random_unit_tangent(p: Point, rng: np.random.Generator) -> Tangent:
    """A unit-norm tangent at p with rotation-invariant random direction."""
    for _ in range(16):
        t = Tangent(p, rng.standard_normal(p.manifold.dim))
        n = norm(p, t)
        if n > 1e-12:
            return (1.0 / n) * t
    raise RuntimeError("failed to draw a non-degenerate tangent direction")
