"""Geometry primitives for the two supported spaces.

Two geometries are shipped: flat Euclidean space R^n, and the positive
orthant (0, inf)^n carrying the coordinate-wise metric <u, v>_x = u v / x^2.
The latter is globally isometric to flat space through z = ln(x), so every
operation below has an exact closed form and nothing is integrated
numerically.

Points are immutable after construction; all operations are pure
functions, so values can be shared freely across threads.  A tangent
vector is its coordinates (n,) at a point the caller names; there is no
tangent type.  Each closed form has one implementation, a row kernel on
coordinate arrays of shape (..., n): inner_rows, norm_rows, dist_rows,
exp_rows, log_rows and transport_rows.  The solver and the checks call
these kernels on rows.  Point is the validated container for the API edge,
and dist checks its operands and runs the kernel on one row.  exp_map,
log_map and transport do the same but have no caller in the library; the
benchmark's tracer (perfbench/spans.py) looks them up by name.
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
    "point_coords",
    "euclidean",
    "log_positive",
    "from_chart_rows",
    "to_chart",
    "chart_scale_rows",
    "usable_draws",
    "normal_draw",
    "unit_rows",
    "inner_rows",
    "norm_rows",
    "dist",
    "dist_rows",
    "exp_map",
    "exp_rows",
    "log_map",
    "log_rows",
    "transport",
    "transport_rows",
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
    # ndarray.all and .any skip the np.all/np.any wrappers, which dominate a one-point check
    if not np.isfinite(arr).all():
        raise InvalidPointError(f"point coordinates has non-finite entries: {arr}")
    if manifold.geometry is Geometry.LOG_POSITIVE and (arr <= MIN_POSITIVE_COORD).any():
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


def _is_log(m: ManifoldKind) -> bool:
    return m.geometry is Geometry.LOG_POSITIVE


def _require_same_manifold(p: Point, q: Point) -> None:
    if p.manifold != q.manifold:
        raise MismatchError(f"points on different manifolds: {p.manifold} vs {q.manifold}")


def from_chart_rows(manifold: ManifoldKind, z) -> np.ndarray:
    """Coordinates (..., n) of the points with flat-chart coordinates z (..., n).

    The rows are not validated; point_coords does that.
    """
    z = np.asarray(z, dtype=float)
    return np.exp(z) if _is_log(manifold) else z


def to_chart(p: Point) -> np.ndarray:
    """Flat-chart coordinates of a point (inverse of from_chart_rows)."""
    if _is_log(p.manifold):
        return np.log(p.coords)
    return p.coords.copy()


def chart_scale_rows(manifold: ManifoldKind, p: np.ndarray) -> np.ndarray:
    """dx/dz at the points with coordinates p (..., n), for the flat chart z.

    A tangent with coordinates v at p has chart components v / chart_scale_rows(p),
    and the chart is an isometry, so their Euclidean norm is the metric norm.
    """
    return p if _is_log(manifold) else np.ones_like(p)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each pair of rows of a and b (..., n).

    A stacked matmul reaches BLAS as np.dot and np.linalg.norm do, and on
    numpy 2.4 each row then rounds exactly as that one vector would; a sum
    over the last axis already differs in the last bit from n = 2 on.  In
    one dimension every route gives the same single product.  Two single
    vectors take np.dot itself, which costs less per call than the matmul.
    """
    if a.ndim == 1 and b.ndim == 1:
        return np.dot(a, b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def inner_rows(
    manifold: ManifoldKind, p: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Metric pairing of the tangents u and v at p, on coordinate rows, all (..., n)."""
    return np.sum(u * v / p**2, axis=-1) if _is_log(manifold) else _row_dots(u, v)


def norm_rows(manifold: ManifoldKind, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Metric length of the tangent v at p, on coordinate rows, both (..., n)."""
    return np.sqrt(np.maximum(inner_rows(manifold, p, v, v), 0.0))


def dist_rows(manifold: ManifoldKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Closed form of dist on coordinate rows p and q (..., n), broadcast."""
    chord = np.log(p / q) if _is_log(manifold) else p - q
    return np.sqrt(_row_dots(chord, chord))


def dist(p: Point, q: Point) -> float:
    """Geodesic distance between p and q."""
    _require_same_manifold(p, q)
    return float(dist_rows(p.manifold, p.coords, q.coords))


def exp_rows(manifold: ManifoldKind, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed form of exp_map on coordinate rows: p (..., n) moved by tangent v (..., n).

    Raises ExpOverflowError when a log-positive exponent would overflow; the
    result rows are not validated as points.
    """
    if not _is_log(manifold):
        return p + v
    expo = v / p
    if np.any(np.abs(expo) > EXP_CLAMP):
        raise ExpOverflowError(
            f"exponent magnitude exceeds {EXP_CLAMP}: max {np.max(np.abs(expo))}"
        )
    return p * np.exp(expo)


def log_rows(manifold: ManifoldKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Closed form of log_map on coordinate rows: the tangent at p (..., n) towards q."""
    return p * np.log(q / p) if _is_log(manifold) else q - p


def transport_rows(
    manifold: ManifoldKind, p: np.ndarray, q: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Closed form of transport on coordinate rows: v at p carried to q, all (..., n)."""
    return v * q / p if _is_log(manifold) else v.copy()


def _tangent_coords(p: Point, v) -> np.ndarray:
    """Validated float coordinates (n,) of a tangent at p."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != p.coords.shape:
        raise InvalidPointError(
            f"tangent coordinates must have shape {p.coords.shape}, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidPointError(f"tangent coordinates has non-finite entries: {arr}")
    return arr


def exp_map(p: Point, v) -> Point:
    """Point reached after unit time along the geodesic leaving p with velocity v (n,)."""
    return Point(p.manifold, exp_rows(p.manifold, p.coords, _tangent_coords(p, v)))


def log_map(p: Point, q: Point) -> np.ndarray:
    """Initial velocity (n,) at p of the unit-time geodesic from p to q."""
    _require_same_manifold(p, q)
    return log_rows(p.manifold, p.coords, q.coords)


def transport(p: Point, q: Point, v) -> np.ndarray:
    """Parallel transport of v (n,) at p along the geodesic to q: tangent coordinates at q."""
    _require_same_manifold(p, q)
    return transport_rows(p.manifold, p.coords, q.coords, _tangent_coords(p, v))


def usable_draws(g: np.ndarray) -> np.ndarray:
    """Whether each standard normal draw g (..., n) is long enough to give a direction.

    A draw is judged by its own Euclidean length, which must exceed 1e-12,
    not by its metric norm at a point: on the orthant that norm is |g| / x,
    which would reject every draw at large coordinates.
    """
    return np.sqrt(_row_dots(g, g)) > 1e-12


def normal_draw(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A standard normal draw (dim,), redrawn while usable_draws rejects it."""
    for _ in range(16):
        g = rng.standard_normal(dim)
        if usable_draws(g):
            return g
    raise RuntimeError("failed to draw a non-degenerate tangent direction")


def unit_rows(manifold: ManifoldKind, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The tangents g at p scaled to unit metric norm, on coordinate rows, both (..., n).

    For normal draws g (normal_draw) the direction is rotation-invariant,
    except on the orthant at dim > 1, where the metric weighs coordinate i
    by 1 / x_i^2.
    """
    return (1.0 / norm_rows(manifold, p, g))[..., None] * g
