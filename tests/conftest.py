import numpy as np
import pytest

from proxmax import (
    DomainError,
    Point,
    SubdiffHull,
    Tangent,
    dist,
    eval_f,
    exp_map,
    geodesic,
    log_map,
    log_positive,
    make_problem,
    min_norm_subgradient,
    norm,
    transport,
    with_prox_term,
)
from proxmax import checks
from proxmax.manifold import Geometry, from_chart, random_unit_tangent
from proxmax.oracle import ConvexityReport


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def log_example():
    """One-dimensional positive-orthant problem with branches ln x and -ln x + e^(-2x) - e^(-2)."""
    return make_problem("paper_example")


@pytest.fixture
def log_point():
    return Point(log_positive(1), [1.0])


def _hull_distance(hull, w):
    """Metric distance from the tangent w to the hull."""
    shifted = SubdiffHull(hull.base, tuple(g - w for g in hull.generators))
    _, d = min_norm_subgradient(shifted)
    return d


@pytest.fixture
def hull_distance():
    """Distance from a tangent to a SubdiffHull, computed by min_norm_subgradient.

    It calls the code it is used to check, so it lives here and not in oracle.py.
    """
    return _hull_distance


# The per-point convexity test, fd_gradient and verify checks that the
# array passes replaced, kept verbatim as references.  Tests reach them via
# the fixtures below, so no test module imports another.


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
    """The per-point chord test the array version replaced, kept verbatim.

    field is a scalar field on Points and domain a predicate on Points.
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

    def draw() -> Point:
        for _ in range(200):
            z = rng.uniform(lo, hi)
            p = (
                Point(manifold, np.exp(z))
                if manifold.geometry is Geometry.LOG_POSITIVE
                else Point(manifold, z)
            )
            if domain is None or domain(p):
                return p
        raise DomainError("could not draw an admissible sample in the box")

    ts = np.arange(1, 10) / 10.0
    n_checks = 0
    n_violations = 0
    worst = -np.inf
    for _ in range(samples):
        p, q = draw(), draw()
        hp, hq = field(p), field(q)
        d2 = dist(p, q) ** 2
        v = log_map(p, q)
        for t in ts:
            chord = (1.0 - t) * hp + t * hq - 0.5 * modulus * t * (1.0 - t) * d2
            gap = field(geodesic(p, v, t)) - chord
            n_checks += 1
            worst = max(worst, gap)
            if gap > slack:
                n_violations += 1
    return ConvexityReport(samples, n_checks, n_violations, float(worst), modulus, slack)


def _reference_fd_gradient(field, p):
    """The per-point fd_gradient the row form replaced, kept verbatim.

    field is a scalar field on Points; the result is a Tangent at p.
    """
    dim = p.manifold.dim
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(p.coords))
    diffs = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = steps[i]
        f_plus = field(exp_map(p, Tangent(p, e)))
        f_minus = field(exp_map(p, Tangent(p, -e)))
        diffs[i] = (f_plus - f_minus) / (2.0 * steps[i])
    if p.manifold.geometry is Geometry.LOG_POSITIVE:
        diffs = diffs * p.coords**2
    return Tangent(p, diffs)


def _reference_check_geometry(prep, rng):
    m = prep.problem.objective.manifold
    worst = 0.0
    for _ in range(2000):
        z = rng.uniform(-2.0, 2.0, m.dim)
        p = Point(m, np.exp(z)) if m.geometry.value == "log_positive" else Point(m, z)
        zq = rng.uniform(-2.0, 2.0, m.dim)
        q = Point(m, np.exp(zq)) if m.geometry.value == "log_positive" else Point(m, zq)
        v = rng.uniform(0.1, 3.0) * random_unit_tangent(p, rng)
        back = log_map(p, exp_map(p, v))
        scale = max(1.0, norm(p, v))
        worst = max(worst, norm(p, back - v) / scale)
        worst = max(worst, abs(norm(p, log_map(p, q)) - dist(p, q)) / max(1.0, dist(p, q)))
        worst = max(
            worst,
            abs(norm(q, transport(p, q, v)) - norm(p, v)) / scale,
        )
        r_z = rng.uniform(-2.0, 2.0, m.dim)
        r = Point(m, np.exp(r_z)) if m.geometry.value == "log_positive" else Point(m, r_z)
        violation = dist(p, q) - (dist(p, r) + dist(r, q))
        worst = max(worst, violation)
    return worst <= 1e-10, f"worst deviation {worst:.3e} (bound 1e-10)"


def _reference_check_strong_convexity(prep, rng):
    obj = prep.problem.objective
    lam, lip = prep.lam, prep.lipschitz
    reason = checks.weight_too_small(prep.lam, prep.lipschitz)
    if reason:
        return False, reason
    h_obj = with_prox_term(obj, prep.start, lam)
    report = _reference_geodesic_convexity_test(
        lambda p: eval_f(h_obj, p)[0],
        obj.manifold,
        samples=300,
        modulus=lam - lip,
        lower=prep.problem.region_lower,
        upper=prep.problem.region_upper,
        seed=int(rng.integers(2**31)),
        domain=h_obj.in_domain,
    )
    return report.passed, (
        f"{report.n_violations} violations in {report.n_checks} checks, "
        f"worst {report.worst_violation:.3e}"
    )


def _reference_check_dist_convexity(prep, rng):
    m = prep.problem.objective.manifold
    center = prep.start
    report = _reference_geodesic_convexity_test(
        lambda p: 0.5 * dist(p, center) ** 2,
        m,
        samples=200,
        modulus=1.0,
        lower=prep.problem.region_lower,
        upper=prep.problem.region_upper,
        seed=int(rng.integers(2**31)),
    )
    return report.passed, (
        f"{report.n_violations} violations in {report.n_checks} checks, "
        f"worst {report.worst_violation:.3e}"
    )


def _reference_region_samples(problem, count=64, rng=None):
    """The per-sample region_samples the row form replaced, kept verbatim: a list of Points."""
    m = problem.objective.manifold
    lo = problem.region_lower.astype(float)
    hi = problem.region_upper.astype(float)
    if m.geometry.value == "log_positive":
        lo, hi = np.log(lo), np.log(hi)
    if m.dim == 1:
        zs = np.linspace(lo[0], hi[0], count + 2)[1:-1]
        return [from_chart(m, [z]) for z in zs]
    if rng is None:
        raise ValueError("higher-dimensional regions need an explicit generator")
    return [from_chart(m, rng.uniform(lo, hi)) for _ in range(count)]


@pytest.fixture
def reference_region_samples():
    """The per-sample region_samples: Points drawn one at a time."""
    return _reference_region_samples


@pytest.fixture
def reference_fd_gradient():
    """The per-point fd_gradient: a scalar field on Points, one Tangent at p."""
    return _reference_fd_gradient


@pytest.fixture
def reference_convexity_test():
    """The per-point geodesic_convexity_test: a field and a domain on Points."""
    return _reference_geodesic_convexity_test


@pytest.fixture
def reference_checks():
    """The per-point verify checks, by their name in cli._CHECKS."""
    return {
        "geometry_roundtrip": _reference_check_geometry,
        "strong_convexity": _reference_check_strong_convexity,
        "dist_convexity": _reference_check_dist_convexity,
    }
