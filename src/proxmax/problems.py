"""Built-in problem instances used by the CLI and the test suite.

Each objective's branches are given on chart rows (manifold.py): on the
log-positive orthant z = ln x, so a branch written in x is composed with
x = e^z and its gradient is the derivative in z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .manifold import Point, chart_coords, euclidean, log_positive, to_chart_rows
from .objective import MaxObjective, ParamSet

__all__ = [
    "BuiltinProblem",
    "BUILTIN_NAMES",
    "make_problem",
    "region_samples",
]

_MAX_PRODUCT_DIM = 12


@dataclass(frozen=True)
class BuiltinProblem:
    """An objective bundled with its default start and sampling region."""

    name: str
    objective: MaxObjective
    start: Point
    region_lower: np.ndarray
    region_upper: np.ndarray
    metadata: dict = field(default_factory=dict)

    def chart_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The region's lower and upper corners in chart coordinates, each (n,)."""
        m = self.objective.manifold
        return to_chart_rows(m, self.region_lower), to_chart_rows(m, self.region_upper)


@functools.lru_cache(maxsize=None)
def _second_branch_mask(n: int) -> np.ndarray:
    """Read-only (2^n, n): row t marks the coordinates where parameter t takes the second branch."""
    second = (np.arange(2**n)[:, None] // 2 ** np.arange(n)) % 2 == 1
    second.flags.writeable = False
    return second


def paper_example_product(n: int = 2, epsilon: float = 0.125) -> BuiltinProblem:
    """n-fold product of the half-line instance on the log-metric orthant.

    The objective is the sum over coordinates of the per-coordinate max of
    the branches ln x and -ln x + e^{-2x} - e^{-2}, written as a max over
    all 2^n branch assignments (one parameter per bit pattern) so the hull
    machinery sees every locally active gradient.  Each coordinate must
    exceed epsilon.  In the chart z = ln x the branches are z and
    -z + e^{-2e^z} - e^{-2}, with gradients 1 and -1 - 2e^z e^{-2e^z}.
    """
    # concrete types: the numbers ABCs add ~20 us to a build whose caches are cold
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= _MAX_PRODUCT_DIM:
        raise ValueError(f"n must lie in [1, {_MAX_PRODUCT_DIM}], got {n}")
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float, np.integer, np.floating)):
        raise ValueError(f"epsilon must be a real number, got {epsilon!r}")
    n = int(n)
    try:
        epsilon = float(epsilon)
    except OverflowError:  # an integer beyond float range reads as +-inf, as 1e400 does
        epsilon = math.inf if epsilon > 0 else -math.inf
    if not 0.0 < epsilon < 0.3125:
        raise ValueError(f"epsilon must lie in (0, 0.3125), got {epsilon}")
    m = log_positive(n)
    second = _second_branch_mask(n)
    lower = np.full(n, epsilon)
    # the chart of the region's lower corner, as chart_box computes it
    log_epsilon = np.log(lower)

    def phi(Z: np.ndarray) -> np.ndarray:
        f2 = -Z + np.exp(-2.0 * np.exp(Z)) - np.exp(-2.0)
        return np.where(second, f2[:, None, :], Z[:, None, :]).sum(axis=2)

    def grad_phi(Z: np.ndarray) -> np.ndarray:
        # (N, n) rows -> (N, 2^n, n)
        X = np.exp(Z)
        g2 = -1.0 - 2.0 * X * np.exp(-2.0 * X)
        return np.where(second, g2[:, None, :], 1.0)

    def guard(z: np.ndarray) -> np.ndarray:
        # ndarray.all skips np.all's wrapper, which dominates a one-point check
        return (z > log_epsilon).all(axis=-1)

    obj = MaxObjective(
        manifold=m,
        params=ParamSet(np.arange(2**n, dtype=float)),
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=None,
        domain_guard=guard,
    )
    return BuiltinProblem(
        name="paper_example_product",
        objective=obj,
        start=Point(m, np.full(n, 0.3125)),
        region_lower=lower,
        region_upper=np.full(n, 4.0),
        metadata={"epsilon": epsilon, "n": n, "minimizer": [1.0] * n},
    )


def paper_example(epsilon: float = 0.125) -> BuiltinProblem:
    """Half-line instance: f(x) = max(ln x, -ln x + e^{-2x} - e^{-2}), the n = 1 product.

    Lives on the log-metric positive half-line with admissible region
    (epsilon, inf); the two branches cross at the minimizer x = 1 where f
    vanishes.  Branch weights are affine in the parameter, so the grid
    {0, 1} represents the whole family of convex combinations exactly.
    """
    product = paper_example_product(1, epsilon)
    return replace(
        product,
        name="paper_example",
        metadata={
            "epsilon": product.metadata["epsilon"],
            "q": 0.3125,
            "c": float(-np.log(0.75) + np.exp(-1.5) - np.exp(-2.0)),
            "delta": 0.4,
            "minimizer": [1.0],
        },
    )


def abs_value() -> BuiltinProblem:
    """|x| on the line as max(x, -x).

    Both branches are affine, so the gradient field has Lipschitz constant
    zero and any positive weight keeps the subproblem strongly convex.
    """
    m = euclidean(1)
    params = ParamSet(np.array([0.0, 1.0]))

    slopes = 1.0 - 2.0 * params.values

    def phi(Z: np.ndarray) -> np.ndarray:
        return slopes * Z

    def grad_phi(Z: np.ndarray) -> np.ndarray:
        return np.tile(slopes[:, None], (len(Z), 1, 1))

    obj = MaxObjective(
        manifold=m,
        params=params,
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=0.0,
        domain_guard=None,
    )
    return BuiltinProblem(
        name="abs",
        objective=obj,
        start=Point(m, [5.0]),
        region_lower=np.array([-10.0]),
        region_upper=np.array([10.0]),
        metadata={"minimizer": [0.0]},
    )


def quadratic() -> BuiltinProblem:
    """x^2 / 2 on the line as a single-branch max.

    The branch is convex, so the declared bound is the convexity deficit
    zero rather than the curvature of the gradient field; that is what the
    subproblem's strong convexity actually requires of the weight.
    """
    m = euclidean(1)

    def phi(Z: np.ndarray) -> np.ndarray:
        # float_power is the C pow of a float's ** 2, which np.power would
        # replace by a square
        return 0.5 * np.float_power(Z, 2.0)

    def grad_phi(Z: np.ndarray) -> np.ndarray:
        return Z[:, None, :].copy()

    obj = MaxObjective(
        manifold=m,
        params=ParamSet(np.array([0.0])),
        phi=phi,
        grad_phi=grad_phi,
        lipschitz_bound=0.0,
        domain_guard=None,
    )
    return BuiltinProblem(
        name="quadratic",
        objective=obj,
        start=Point(m, [1.0]),
        region_lower=np.array([-10.0]),
        region_upper=np.array([10.0]),
        metadata={"minimizer": [0.0]},
    )


_BUILTINS = {
    "paper_example": paper_example,
    "paper_example_product": paper_example_product,
    "abs": abs_value,
    "quadratic": quadratic,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_problem(request) -> BuiltinProblem:
    """Build a problem from a name or a {"name": ..., params} mapping."""
    if isinstance(request, str):
        name, params = request, {}
    elif isinstance(request, dict):
        params = dict(request)
        name = params.pop("name", None)
        if not isinstance(name, str):
            raise ValueError("a problem mapping needs a string 'name' entry")
    else:
        raise ValueError(
            f"problem must be a string or mapping, got {type(request).__name__}"
        )
    if name not in _BUILTINS:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    try:
        return _BUILTINS[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for problem {name!r}: {exc}") from None


def region_samples(
    problem: BuiltinProblem, count: int = 64, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Deterministic interior samples of the problem's declared region, as chart rows (count, n).

    One dimension uses an even grid in the chart box.  Higher dimensions
    take one uniform (count, n) draw in the chart box from the supplied
    generator, which is then required.  The rows are validated chart rows
    of the problem's manifold and read-only.
    """
    m = problem.objective.manifold
    lo, hi = problem.chart_box()
    if m.dim == 1:
        z = np.linspace(lo[0], hi[0], count + 2)[1:-1, None]
    elif rng is None:
        raise ValueError("higher-dimensional regions need an explicit generator")
    else:
        z = rng.uniform(lo, hi, size=(count, m.dim))
    Z = chart_coords(m, z, rows=True)
    Z.flags.writeable = False
    return Z
