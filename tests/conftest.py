import warnings

import numpy as np
import pytest

from proxmax import (
    DomainError,
    Point,
    SubdiffHull,
    clarke_subdiff,
    eval_f,
    log_positive,
    make_problem,
    min_norm_subgradient,
    with_prox_term,
)
from proxmax.manifold import Geometry
from proxmax.oracle import _USC_PERT_SCALE, ConvexityReport, UscReport
from proxmax.problems import region_samples


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# the generator itself, so a test that patches np.random.default_rng can still build one
_default_rng = np.random.default_rng


class _ZeroRowGenerator:
    """A stand-in for a numpy Generator whose normal stream holds a run of all-zero rows.

    Its uniforms are those of default_rng(seed).  Its standard normals are
    the rows (dim,) of default_rng([seed, 1]), read in order whatever block
    shape a call asks for, with `run` rows from row `zero` on set to 0.
    """

    def __init__(self, seed, dim, zero, run=1):
        rows = _default_rng([seed, 1]).standard_normal((6000, dim))
        rows[zero : zero + run] = 0.0
        self._normals = rows.ravel()
        self._read = 0
        self._uniforms = _default_rng(seed)

    def uniform(self, low, high, size=None):
        return self._uniforms.uniform(low, high, size)

    def standard_normal(self, size):
        count = int(np.prod(size))
        self._read += count
        return self._normals[self._read - count : self._read].reshape(size).copy()


@pytest.fixture
def zero_row_generator():
    """The class of a generator whose normal stream holds a run of all-zero rows."""
    return _ZeroRowGenerator


@pytest.fixture
def log_example():
    """One-dimensional positive-orthant problem with branches ln x and -ln x + e^(-2x) - e^(-2)."""
    return make_problem("paper_example")


@pytest.fixture
def log_point():
    return Point(log_positive(1), [1.0])


def _hull_distance(hull, w):
    """Distance from the chart tangent w (n,) to the hull."""
    _, d = min_norm_subgradient(SubdiffHull(hull.base, hull.generators - np.asarray(w)))
    return d


@pytest.fixture
def hull_distance():
    """Distance from a tangent to a SubdiffHull, computed by min_norm_subgradient.

    It calls the code it is used to check, so it lives here and not in oracle.py.
    """
    return _hull_distance


# The chart of the two flat geometries, written out here so that the
# references below never call the geometry they check: z = ln x on the
# log-positive orthant and z = x on Euclidean space.  In the chart a
# geodesic is a straight line, the exponential map is z + v, the logarithm
# w - z, transport the identity and the metric the dot product.  Each uses
# the arithmetic of the library, so a reference reproduces the library's
# bits wherever its operations do.


def _is_log(m):
    return m.geometry is Geometry.LOG_POSITIVE


def _to_chart(m, x):
    x = np.asarray(x, dtype=float)
    return np.log(x) if _is_log(m) else x.copy()


def _from_chart(m, z):
    return np.exp(z) if _is_log(m) else z


def _norm(v):
    return float(np.sqrt(np.dot(v, v)))


def _random_unit(dim, rng):
    """A unit chart tangent: a standard normal draw, redrawn while its
    length is at most 1e-12, scaled to unit length."""
    while True:
        g = rng.standard_normal(dim)
        if np.sqrt(np.dot(g, g)) > 1e-12:
            return (1.0 / _norm(g)) * g


def _admissible(obj, z):
    return obj.domain_guard is None or bool(obj.domain_guard(z))


# The builtins' branches in x coordinates: values and flat derivatives d/dx,
# written out from their definitions.  A chart gradient is the flat one
# times dx/dz, which is x on the orthant and 1 on the line.


def _x_form_branches(problem):
    """(values, flat) of the problem's branches: X (N, n) -> (N, m) and (N, m, n)."""
    name = problem.name
    if name == "abs":
        return (
            lambda X: np.hstack([X, -X]),
            lambda X: np.broadcast_to([[1.0], [-1.0]], (len(X), 2, 1)),
        )
    if name == "quadratic":
        return lambda X: 0.5 * X**2, lambda X: X[:, None, :]
    n = problem.objective.manifold.dim
    # branch t takes the second form on the coordinates where bit i of t is set
    second = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1

    def values(X):
        f1, f2 = np.log(X), -np.log(X) + np.exp(-2.0 * X) - np.exp(-2.0)
        return np.where(second, f2[:, None, :], f1[:, None, :]).sum(axis=2)

    def flat(X):
        X = X[:, None, :]
        return np.where(second, -1.0 / X - 2.0 * np.exp(-2.0 * X), 1.0 / X)

    return values, flat


@pytest.fixture
def x_form_branches():
    """The builtins' branch values and flat x-derivatives, in closed form."""
    return _x_form_branches


def _differential_exp(p, w, u):
    """Differential of the exponential map at p, taken at w and applied to u.

    w and u are chart tangents (n,) at p; the result is the pair of
    exp_p(w), a Point, and the image of u as a chart tangent there.  The
    chart is an isometry onto flat space, so the image is u itself.
    """
    m, w, u = p.manifold, np.asarray(w, dtype=float), np.asarray(u, dtype=float)
    at = Point(m, _from_chart(m, _to_chart(m, p.coords) + w))
    return at, u.copy()


def _gd_sampling_estimate(obj, p, v, radius_seq, step_seq):
    """Sampling estimate of the generalized directional derivative along v (n,) at p.

    Draws base points q near p in the chart, carries v to q through the
    differential of the exponential map, and takes the largest forward
    difference quotient over all drawn pairs and step sizes, with 20 bases
    per radius drawn from seed 42.  Quotients whose evaluation leaves the
    admissible region are discarded and counted in a warning.
    """
    radii = [float(r) for r in radius_seq]
    steps = [float(t) for t in step_seq]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radius_seq must be non-empty and positive")
    if not steps or any(t <= 0 for t in steps):
        raise ValueError("step_seq must be non-empty and positive")
    rng = np.random.default_rng(42)
    m = p.manifold
    z = _to_chart(m, p.coords)

    bases = [z]
    for r in radii:
        for _ in range(20):
            direction = _random_unit(m.dim, rng)
            bases.append(z + (r * rng.uniform(0.0, 1.0)) * direction)

    best = -np.inf
    discarded = 0
    for q in bases:
        if not _admissible(obj, q):
            discarded += 1
            continue
        _, u_q = _differential_exp(p, q - z, v)
        f_q = eval_f(obj, Point(m, _from_chart(m, q)))
        for t in steps:
            try:
                f_t = eval_f(obj, Point(m, _from_chart(m, q + t * u_q)))
            except (DomainError, ValueError):
                discarded += 1
                continue
            best = max(best, (f_t - f_q) / t)
    if discarded:
        warnings.warn(f"gd_sampling_estimate discarded {discarded} out-of-domain samples")
    if not np.isfinite(best):
        raise DomainError("every sampled quotient left the admissible region")
    return float(best)


@pytest.fixture
def differential_exp():
    """The differential of the exponential map, in closed form on chart tangents."""
    return _differential_exp


@pytest.fixture
def gd_sampling_estimate():
    """The generalized directional derivative from sampled difference quotients."""
    return _gd_sampling_estimate


# The per-point convexity test, fd_gradient, generalized derivative,
# semicontinuity sampler and verify checks that the array passes replaced,
# kept as references on chart coordinates (n,).  Tests reach them via the
# fixtures below, so no test module imports another.


def _reference_geodesic_convexity_test(
    field,
    manifold,
    samples,
    modulus,
    lower,
    upper,
    seed=42,
    slack=1e-8,
    domain=None,
):
    """The per-point chord test the array version replaced.

    field is a scalar field on chart coordinates (n,), domain a predicate on
    them, and lower and upper the corners of the chart box.
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

    def draw():
        for _ in range(200):
            z = rng.uniform(lo, hi)
            if domain is None or domain(z):
                return z
        raise DomainError("could not draw an admissible sample in the box")

    ts = np.arange(1, 10) / 10.0
    n_checks = 0
    n_violations = 0
    worst = -np.inf
    for _ in range(samples):
        p, q = draw(), draw()
        hp, hq = field(p), field(q)
        d2 = _norm(q - p) ** 2
        for t in ts:
            chord = (1.0 - t) * hp + t * hq - 0.5 * modulus * t * (1.0 - t) * d2
            gap = field(p + float(t) * (q - p)) - chord
            n_checks += 1
            worst = max(worst, gap)
            if gap > slack:
                n_violations += 1
    return ConvexityReport(samples, n_checks, n_violations, float(worst), modulus, slack)


def _reference_fd_gradient(field, z):
    """The per-point fd_gradient the row form replaced.

    field is a scalar field on chart coordinates; the result is its
    gradient (n,) at z.
    """
    dim = len(z)
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(z))
    diffs = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = steps[i]
        diffs[i] = (field(z + e) - field(z - e)) / (2.0 * steps[i])
    return diffs


def _reference_gen_dir_derivative(obj, z, v):
    """The per-point gen_dir_derivative the row form replaced, at chart coordinates z along v.

    The active branches are those within 1e-12 * max(1, |f|) of the max f.
    """
    vals, grads = obj.phi(z[None])[0], obj.grad_phi(z[None])[0]
    f = vals.max()
    active = vals >= f - 1e-12 * max(1.0, abs(f))
    return max(float(np.dot(g, v)) for g in grads[active])


def _reference_usc_sampler(obj, p, v, n, seed=42, tolerance=1e-3):
    """The per-point usc_sampler loop the row form replaced; v is a chart tangent (n,)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = p.manifold.dim
    z = _to_chart(p.manifold, p.coords)
    rng = np.random.default_rng(seed)
    reference = _reference_gen_dir_derivative(obj, z, v)
    values = np.full(n, -np.inf)
    discarded = 0
    for k in range(1, n + 1):
        z_k = z + (1.0 / k) * _random_unit(dim, rng)
        if not _admissible(obj, z_k):
            discarded += 1
            continue
        v_k = v + (_USC_PERT_SCALE / k) * _random_unit(dim, rng)
        values[k - 1] = _reference_gen_dir_derivative(obj, z_k, v_k)
    tail_start = max((9 * n) // 10, 1)
    tail = values[tail_start - 1 :]
    tail = tail[np.isfinite(tail)]
    if tail.size == 0:
        raise DomainError("every tail sample fell outside the admissible region")
    tail_max = float(np.max(tail))
    return UscReport(
        reference=float(reference),
        tail_max=tail_max,
        gap=tail_max - float(reference),
        tolerance=float(tolerance),
        n=n,
        tail_start=tail_start,
        discarded=discarded,
    )


def _reference_sum_rule_mismatch(obj, shifted, center, lam, z, v):
    # the gradient of |z - center|^2 / 2 is z - center
    pull = float(np.dot(z - center, v))
    lhs = _reference_gen_dir_derivative(shifted, z, v)
    return abs(lhs - (_reference_gen_dir_derivative(obj, z, v) + lam * pull))


def _reference_check_sum_rule(prep, rng):
    obj = prep.problem.objective
    lam = max(prep.lam, 1.0)
    center = _to_chart(obj.manifold, prep.start.coords)
    shifted = with_prox_term(obj, center, lam)
    worst = 0.0
    for z in region_samples(prep.problem, 100, rng):
        v = rng.uniform(0.5, 2.0) * _random_unit(obj.manifold.dim, rng)
        worst = max(worst, _reference_sum_rule_mismatch(obj, shifted, center, lam, z, v))
    return worst <= 1e-8, f"worst mismatch {worst:.3e} (bound 1e-8)"


def _reference_check_usc(prep, rng):
    obj = prep.problem.objective
    v = _random_unit(obj.manifold.dim, rng)
    report = _reference_usc_sampler(obj, prep.start, v, n=1000, seed=int(rng.integers(2**31)))
    return report.passed, f"tail gap {report.gap:.3e} (bound {report.tolerance})"


def _reference_check_subgrad_floor(prep, rng):
    meta = prep.problem.metadata
    if not {"q", "c", "delta"} <= set(meta):
        return None, "no level-band metadata on this problem"
    obj = prep.problem.objective
    m = obj.manifold
    f_q = eval_f(obj, Point(m, [meta["q"]]))
    c, delta = meta["c"], meta["delta"]
    floor = np.inf
    checked = 0
    for z in region_samples(prep.problem, 400):
        p = Point(m, _from_chart(m, z))
        f_p = eval_f(obj, p)
        if not (c < f_p <= f_q):
            continue
        _, gn = min_norm_subgradient(clarke_subdiff(obj, p))
        floor = min(floor, gn)
        checked += 1
    if checked == 0:
        return False, "no grid point landed in the level band"
    return floor > delta, (
        f"min subgradient norm {floor:.6f} over {checked} band points (must exceed {delta})"
    )


def _reference_check_geometry(prep, rng):
    m = prep.problem.objective.manifold
    worst = 0.0
    for _ in range(2000):
        zp, zq, zr = (rng.uniform(-2.0, 2.0, m.dim) for _ in range(3))
        p, q, r = (_from_chart(m, z) for z in (zp, zq, zr))
        back = _to_chart(m, p)
        worst = max(worst, _norm(back - zp) / max(1.0, _norm(zp)))
        # dist takes the chart rows of its points' coordinates
        d_pq = _norm(back - _to_chart(m, q))
        chart = _norm(zp - zq)
        worst = max(worst, abs(d_pq - chart) / max(1.0, chart))
        d_pr = _norm(back - _to_chart(m, r))
        d_rq = _norm(_to_chart(m, r) - _to_chart(m, q))
        worst = max(worst, d_pq - (d_pr + d_rq))
    return worst <= 1e-10, f"worst deviation {worst:.3e} (bound 1e-10)"


def _reference_check_strong_convexity(prep, rng):
    obj = prep.problem.objective
    m = obj.manifold
    sched = prep.schedule()
    lam, lip = sched.constant, sched.lower
    h_obj = with_prox_term(obj, _to_chart(m, prep.start.coords), lam)
    region = prep.problem
    report = _reference_geodesic_convexity_test(
        lambda z: float(h_obj.phi(z[None]).max()),
        m,
        samples=300,
        modulus=lam - lip,
        lower=_to_chart(m, region.region_lower),
        upper=_to_chart(m, region.region_upper),
        seed=int(rng.integers(2**31)),
        domain=lambda z: _admissible(h_obj, z),
    )
    return report.passed, (
        f"{report.n_violations} violations in {report.n_checks} checks, "
        f"worst {report.worst_violation:.3e}"
    )


def _reference_region_samples(problem, count=64, rng=None):
    """The per-sample region_samples the row form replaced: a list of chart rows (n,)."""
    m = problem.objective.manifold
    lo, hi = _to_chart(m, problem.region_lower), _to_chart(m, problem.region_upper)
    if m.dim == 1:
        return [np.array([z]) for z in np.linspace(lo[0], hi[0], count + 2)[1:-1]]
    if rng is None:
        raise ValueError("higher-dimensional regions need an explicit generator")
    return [rng.uniform(lo, hi) for _ in range(count)]


@pytest.fixture
def reference_region_samples():
    """The per-sample region_samples: chart rows drawn one at a time."""
    return _reference_region_samples


@pytest.fixture
def reference_fd_gradient():
    """The per-point fd_gradient: a scalar field on chart coordinates, its gradient at z."""
    return _reference_fd_gradient


@pytest.fixture
def reference_convexity_test():
    """The per-point geodesic_convexity_test: a field and a domain on chart coordinates."""
    return _reference_geodesic_convexity_test


@pytest.fixture
def reference_gen_dir_derivative():
    """The per-point gen_dir_derivative: a float at chart coordinates z along a chart tangent."""
    return _reference_gen_dir_derivative


@pytest.fixture
def reference_usc_sampler():
    """The per-point usc_sampler loop: one hull per sample."""
    return _reference_usc_sampler


@pytest.fixture
def reference_checks():
    """The per-point verify checks, by their name in cli._CHECKS."""
    return {
        "geometry_roundtrip": _reference_check_geometry,
        "strong_convexity": _reference_check_strong_convexity,
        "sum_rule": _reference_check_sum_rule,
        "usc_sampler": _reference_check_usc,
        "subgrad_floor": _reference_check_subgrad_floor,
    }
