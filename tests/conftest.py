import warnings

import numpy as np
import pytest

from proxmax import (
    DomainError,
    MismatchError,
    Point,
    SubdiffHull,
    Tangent,
    clarke_subdiff,
    eval_f,
    log_positive,
    make_problem,
    min_norm_subgradient,
    with_prox_term,
)
from proxmax import checks
from proxmax.manifold import Geometry, from_chart
from proxmax.oracle import _USC_PERT_SCALE, ConvexityReport, UscReport
from proxmax.problems import region_samples


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
    """Metric distance from the tangent coordinates w (n,) at the hull's base to the hull."""
    _, d = min_norm_subgradient(SubdiffHull(hull.base, hull.generators - np.asarray(w)))
    return d


@pytest.fixture
def hull_distance():
    """Distance from a tangent to a SubdiffHull, computed by min_norm_subgradient.

    It calls the code it is used to check, so it lives here and not in oracle.py.
    """
    return _hull_distance


# Closed forms of the two flat geometries on coordinates (n,), written out
# here so that the references below never call the geometry they check:
# exp x*exp(v/x), log x*ln(y/x), transport v*y/x and the metric sum u*v/x^2
# on the log-positive orthant; x + v, y - x, v and the dot product on
# Euclidean space.  Each uses the arithmetic of the library's kernels, so
# a reference reproduces the library's bits wherever its operations do.


def _is_log(m):
    return m.geometry is Geometry.LOG_POSITIVE


def _exp(m, x, v):
    return x * np.exp(v / x) if _is_log(m) else x + v


def _log(m, x, y):
    return x * np.log(y / x) if _is_log(m) else y - x


def _transport(m, x, y, v):
    return v * y / x if _is_log(m) else v.copy()


def _inner(m, x, u, v):
    return float(np.sum(u * v / x**2)) if _is_log(m) else float(np.dot(u, v))


def _norm(m, x, v):
    return float(np.sqrt(_inner(m, x, v, v)))


def _dist(m, x, y):
    chord = np.log(x / y) if _is_log(m) else x - y
    return float(np.sqrt(np.dot(chord, chord)))


def _random_unit(m, x, rng):
    """A unit tangent at x: a standard normal draw scaled by its metric norm."""
    while True:
        g = rng.standard_normal(m.dim)
        n = _norm(m, x, g)
        if n > 1e-12:
            return (1.0 / n) * g


def _admissible(obj, x):
    return obj.domain_guard is None or bool(obj.domain_guard(x))


def _differential_exp(p, w, u):
    """Differential of the exponential map at p, taken at w and applied to u.

    w and u are Tangents at p; the result is a Tangent at exp_p(w).  Closed
    forms exist for both shipped geometries because both are flat.
    """
    if not (np.array_equal(w.base.coords, p.coords) and np.array_equal(u.base.coords, p.coords)):
        raise MismatchError("tangent is not attached at the expected point")
    m, x = p.manifold, p.coords
    at = Point(m, _exp(m, x, w.coords))
    return Tangent(at, np.exp(w.coords / x) * u.coords if _is_log(m) else u.coords.copy())


def _gd_sampling_estimate(obj, p, v, radius_seq, step_seq):
    """Sampling estimate of the generalized directional derivative along the Tangent v at p.

    Draws base points q near p, carries v to q through the differential of
    the exponential map, and takes the largest forward difference quotient
    over all drawn pairs and step sizes, with 20 bases per radius drawn
    from seed 42.  Quotients whose evaluation leaves the admissible region
    are discarded and counted in a warning.
    """
    radii = [float(r) for r in radius_seq]
    steps = [float(t) for t in step_seq]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radius_seq must be non-empty and positive")
    if not steps or any(t <= 0 for t in steps):
        raise ValueError("step_seq must be non-empty and positive")
    rng = np.random.default_rng(42)
    m, x = p.manifold, p.coords

    bases = [x]
    for r in radii:
        for _ in range(20):
            direction = _random_unit(m, x, rng)
            bases.append(_exp(m, x, (r * rng.uniform(0.0, 1.0)) * direction))

    best = -np.inf
    discarded = 0
    for q in bases:
        if not _admissible(obj, q):
            discarded += 1
            continue
        u_q = _differential_exp(p, Tangent(p, _log(m, x, q)), v).coords
        f_q, _ = eval_f(obj, Point(m, q))
        for t in steps:
            try:
                f_t, _ = eval_f(obj, Point(m, _exp(m, q, t * u_q)))
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
    """The differential of the exponential map, in closed form on Tangents."""
    return _differential_exp


@pytest.fixture
def gd_sampling_estimate():
    """The generalized directional derivative from sampled difference quotients."""
    return _gd_sampling_estimate


# The per-point convexity test, fd_gradient, generalized derivative,
# semicontinuity sampler and verify checks that the array passes replaced,
# kept as references with the geometry in the closed forms above.  Tests
# reach them via the fixtures below, so no test module imports another.


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
        d2 = _dist(manifold, p.coords, q.coords) ** 2
        v = _log(manifold, p.coords, q.coords)
        for t in ts:
            chord = (1.0 - t) * hp + t * hq - 0.5 * modulus * t * (1.0 - t) * d2
            gap = field(Point(manifold, _exp(manifold, p.coords, float(t) * v))) - chord
            n_checks += 1
            worst = max(worst, gap)
            if gap > slack:
                n_violations += 1
    return ConvexityReport(samples, n_checks, n_violations, float(worst), modulus, slack)


def _reference_fd_gradient(field, p):
    """The per-point fd_gradient the row form replaced.

    field is a scalar field on Points; the result is a Tangent at p.
    """
    m, dim = p.manifold, p.manifold.dim
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(p.coords))
    diffs = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = steps[i]
        f_plus = field(Point(m, _exp(m, p.coords, e)))
        f_minus = field(Point(m, _exp(m, p.coords, -e)))
        diffs[i] = (f_plus - f_minus) / (2.0 * steps[i])
    if p.manifold.geometry is Geometry.LOG_POSITIVE:
        diffs = diffs * p.coords**2
    return Tangent(p, diffs)


def _reference_gen_dir_derivative(obj, p, v, eta=None):
    """The per-point gen_dir_derivative the row form replaced: v holds tangent coordinates at p."""
    hull = clarke_subdiff(obj, p, eta)
    return max(_inner(p.manifold, p.coords, g, v) for g in hull.generators)


def _reference_usc_sampler(obj, p, v, n, seed=42, tolerance=1e-3):
    """The per-point usc_sampler loop the row form replaced; v holds tangent coordinates at p."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m, x = p.manifold, p.coords
    rng = np.random.default_rng(seed)
    reference = _reference_gen_dir_derivative(obj, p, v)
    values = np.full(n, -np.inf)
    discarded = 0
    for k in range(1, n + 1):
        x_k = _exp(m, x, (1.0 / k) * _random_unit(m, x, rng))
        if not _admissible(obj, x_k):
            discarded += 1
            continue
        v_k = _transport(m, x, x_k, v) + (_USC_PERT_SCALE / k) * _random_unit(m, x_k, rng)
        values[k - 1] = _reference_gen_dir_derivative(obj, Point(m, x_k), v_k)
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


def _reference_sum_rule_mismatch(obj, shifted, center, lam, p, v):
    # the gradient of d(., center)^2 / 2 is -log_p(center)
    pull = _inner(p.manifold, p.coords, -_log(p.manifold, p.coords, center.coords), v)
    lhs = _reference_gen_dir_derivative(shifted, p, v)
    return abs(lhs - (_reference_gen_dir_derivative(obj, p, v) + lam * pull))


def _reference_check_sum_rule(prep, rng):
    obj = prep.problem.objective
    lam = max(prep.lam, 1.0)
    shifted = with_prox_term(obj, prep.start, lam)
    worst = 0.0
    for x in region_samples(prep.problem, 100, rng):
        p = Point(obj.manifold, x)
        v = rng.uniform(0.5, 2.0) * _random_unit(obj.manifold, x, rng)
        worst = max(worst, _reference_sum_rule_mismatch(obj, shifted, prep.start, lam, p, v))
    return worst <= 1e-8, f"worst mismatch {worst:.3e} (bound 1e-8)"


def _reference_check_usc(prep, rng):
    obj = prep.problem.objective
    v = _random_unit(obj.manifold, prep.start.coords, rng)
    report = _reference_usc_sampler(obj, prep.start, v, n=1000, seed=int(rng.integers(2**31)))
    return report.passed, f"tail gap {report.gap:.3e} (bound {report.tolerance})"


def _reference_check_subgrad_floor(prep, rng):
    meta = prep.problem.metadata
    if not {"q", "c", "delta"} <= set(meta):
        return None, "no level-band metadata on this problem"
    obj = prep.problem.objective
    m = obj.manifold
    f_q, _ = eval_f(obj, Point(m, [meta["q"]]))
    c, delta = meta["c"], meta["delta"]
    floor = np.inf
    checked = 0
    for x in region_samples(prep.problem, 400):
        p = Point(m, x)
        f_p, _ = eval_f(obj, p)
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
        z = rng.uniform(-2.0, 2.0, m.dim)
        p = np.exp(z) if _is_log(m) else z
        zq = rng.uniform(-2.0, 2.0, m.dim)
        q = np.exp(zq) if _is_log(m) else zq
        v = rng.uniform(0.1, 3.0) * _random_unit(m, p, rng)
        back = _log(m, p, _exp(m, p, v))
        scale = max(1.0, _norm(m, p, v))
        worst = max(worst, _norm(m, p, back - v) / scale)
        d_pq = _dist(m, p, q)
        worst = max(worst, abs(_norm(m, p, _log(m, p, q)) - d_pq) / max(1.0, d_pq))
        worst = max(worst, abs(_norm(m, q, _transport(m, p, q, v)) - _norm(m, p, v)) / scale)
        r_z = rng.uniform(-2.0, 2.0, m.dim)
        r = np.exp(r_z) if _is_log(m) else r_z
        violation = d_pq - (_dist(m, p, r) + _dist(m, r, q))
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
        domain=lambda p: _admissible(h_obj, p.coords),
    )
    return report.passed, (
        f"{report.n_violations} violations in {report.n_checks} checks, "
        f"worst {report.worst_violation:.3e}"
    )


def _reference_check_dist_convexity(prep, rng):
    m = prep.problem.objective.manifold
    center = prep.start.coords
    report = _reference_geodesic_convexity_test(
        lambda p: 0.5 * _dist(m, p.coords, center) ** 2,
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
    """The per-sample region_samples the row form replaced: a list of Points."""
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
def reference_gen_dir_derivative():
    """The per-point gen_dir_derivative: a float at one Point along one Tangent."""
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
        "dist_convexity": _reference_check_dist_convexity,
        "subgrad_floor": _reference_check_subgrad_floor,
    }
