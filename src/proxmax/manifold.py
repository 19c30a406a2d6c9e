"""The two supported geometries and their flat chart.

Two geometries are shipped: flat Euclidean space R^n, and the positive
orthant (0, inf)^n carrying the coordinate-wise metric <u, v>_x = u v / x^2.
Each has a global isometric chart onto flat space: z = x on R^n and
z = ln(x) on the orthant.  So the library works in chart coordinates, where
geodesics are straight lines, exp and log are + and -, transport is the
identity and the metric is the dot product, and f is pulled back through
the chart.  This module is the only one that knows which geometry it is on.

A point in x coordinates, the Point, lives at the API edge: configs, solve's
start and records, and the Point-taking entry points.  from_chart_rows and
to_chart cross between the two.  A tangent is its chart coordinates (n,);
there is no tangent type.  exp_map, log_map, transport and dist are the
chart forms on Points and have no caller in the library; the benchmark's
tracer (perfbench/spans.py) looks them up by name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_POSITIVE_COORD",
    "Geometry",
    "GeometryError",
    "MismatchError",
    "InvalidPointError",
    "ManifoldKind",
    "Point",
    "point_coords",
    "chart_coords",
    "euclidean",
    "log_positive",
    "from_chart_rows",
    "to_chart_rows",
    "to_chart",
    "row_dots",
    "row_norms",
    "usable_draws",
    "normal_draw",
    "unit_rows",
    "dist",
    "exp_map",
    "log_map",
    "transport",
]

# positive-orthant coordinates at or below this count as degenerate
MIN_POSITIVE_COORD = 1e-300


class GeometryError(ValueError):
    """Base class for geometry contract violations."""


class MismatchError(GeometryError):
    """Operands live on different manifolds or at different base points."""


class InvalidPointError(GeometryError):
    """Coordinates do not describe a valid point of the manifold."""


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


def _is_log(m: ManifoldKind) -> bool:
    return m.geometry is Geometry.LOG_POSITIVE


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
    if _is_log(manifold) and (arr <= MIN_POSITIVE_COORD).any():
        raise InvalidPointError(
            f"log-positive coordinates must exceed {MIN_POSITIVE_COORD}: {arr}"
        )
    return arr


def chart_coords(manifold: ManifoldKind, z, rows: bool = False) -> np.ndarray:
    """Validated float chart coordinates of one point (dim,), or of points stacked as rows (N, dim).

    They must be those of valid points: point_coords checks from_chart_rows
    of them, and raises InvalidPointError.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        point_coords(manifold, from_chart_rows(manifold, z), rows)
    return z if rows else np.atleast_1d(z)


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


def _require_same_manifold(p: Point, q: Point) -> None:
    if p.manifold != q.manifold:
        raise MismatchError(f"points on different manifolds: {p.manifold} vs {q.manifold}")


def from_chart_rows(manifold: ManifoldKind, z) -> np.ndarray:
    """Coordinates (..., n) of the points with chart coordinates z (..., n).

    The rows are not validated; point_coords does that.
    """
    z = np.asarray(z, dtype=float)
    return np.exp(z) if _is_log(manifold) else z


def to_chart_rows(manifold: ManifoldKind, x) -> np.ndarray:
    """Chart coordinates (..., n) of the points with coordinates x (..., n), a new array."""
    x = np.asarray(x, dtype=float)
    return np.log(x) if _is_log(manifold) else x.copy()


def to_chart(p: Point) -> np.ndarray:
    """Chart coordinates (n,) of a point."""
    return to_chart_rows(p.manifold, p.coords)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths (...,) of the rows v (..., n).

    On chart tangents this is the metric norm, and on a difference of chart
    rows the geodesic distance, since the chart is an isometry.
    """
    return np.sqrt(row_dots(v, v))


def usable_draws(g: np.ndarray) -> np.ndarray:
    """Whether each standard normal draw g (..., n) is long enough to give a direction.

    A draw must have a Euclidean length above 1e-12.
    """
    return row_norms(g) > 1e-12


def normal_draw(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A standard normal draw (dim,), redrawn while usable_draws rejects it."""
    for _ in range(16):
        g = rng.standard_normal(dim)
        if usable_draws(g):
            return g
    raise RuntimeError("failed to draw a non-degenerate tangent direction")


def unit_rows(g: np.ndarray) -> np.ndarray:
    """The chart tangents g (..., n) scaled to unit length.

    For normal draws g (normal_draw) the direction is rotation-invariant.
    """
    return (1.0 / row_norms(g))[..., None] * g


def _tangent_coords(p: Point, v) -> np.ndarray:
    """Validated float chart coordinates (n,) of a tangent at p."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != p.coords.shape:
        raise InvalidPointError(
            f"tangent coordinates must have shape {p.coords.shape}, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidPointError(f"tangent coordinates has non-finite entries: {arr}")
    return arr


def dist(p: Point, q: Point) -> float:
    """Geodesic distance between p and q: the length of their chart difference."""
    _require_same_manifold(p, q)
    return float(row_norms(to_chart(p) - to_chart(q)))


def exp_map(p: Point, v) -> Point:
    """Point reached after unit time along the geodesic leaving p with chart velocity v (n,)."""
    return Point(p.manifold, from_chart_rows(p.manifold, to_chart(p) + _tangent_coords(p, v)))


def log_map(p: Point, q: Point) -> np.ndarray:
    """Chart velocity (n,) at p of the unit-time geodesic from p to q."""
    _require_same_manifold(p, q)
    return to_chart(q) - to_chart(p)


def transport(p: Point, q: Point, v) -> np.ndarray:
    """Parallel transport of the chart tangent v (n,) from p to q: v itself, in the chart."""
    _require_same_manifold(p, q)
    return _tangent_coords(p, v).copy()
