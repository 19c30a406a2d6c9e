import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    InvalidPointError,
    Point,
    dist,
    euclidean,
    eval_f,
    eval_f_many,
    log_positive,
    make_problem,
    with_prox_term,
)
from proxmax import oracle
from proxmax.manifold import Geometry, dist_rows
from proxmax.oracle import (
    GridSpec,
    fd_gradient,
    geodesic_convexity_test,
    grid_minimize,
    usc_sampler,
)
from proxmax.problems import region_samples

LP1 = log_positive(1)
E1 = euclidean(1)


def _pt(x):
    return Point(LP1, [x])


def _half_sq_dist_fields(m, center):
    """0.5 d(., center)^2 as a field on Points and as an array field."""
    c = Point(m, center)
    return (
        lambda p: 0.5 * dist(p, c) ** 2,
        lambda X: 0.5 * np.float_power(dist_rows(m, X, c.coords), 2.0),
    )


def _objective_fields(obj):
    """eval_f on Points and eval_f_many on rows, for the same objective."""
    return lambda p: eval_f(obj, p)[0], lambda X: eval_f_many(obj, X)


# finite-difference gradients


def test_fd_gradient_log_branch(log_example):
    obj = log_example.objective
    g = fd_gradient(obj.phi, LP1, [[1.0]])
    assert g.shape == (1, 2, 1)
    assert_allclose(g[0, 1], [-1.0 - 2.0 * np.exp(-2.0)], rtol=1e-6)


def test_fd_gradient_applies_metric_sharp():
    # gradient of ln x under the inverse-square metric is x itself
    g = fd_gradient(lambda X: np.log(X[:, 0]), LP1, [[2.0]])
    assert_allclose(g[0], [2.0], rtol=1e-7)


def test_fd_gradient_euclidean():
    m = euclidean(2)
    g = fd_gradient(lambda X: 0.5 * np.sum(X * X, axis=1), m, [[1.0, 2.0]])
    assert_allclose(g[0], [1.0, 2.0], rtol=1e-7)


def test_fd_gradient_propagates_domain_error(log_example):
    obj = log_example.objective
    with pytest.raises(DomainError):
        fd_gradient(lambda X: eval_f_many(obj, X), LP1, [[0.125 + 1e-9]])


@pytest.mark.parametrize(
    "request_",
    ["paper_example", {"name": "paper_example_product", "n": 2},
     {"name": "paper_example_product", "n": 4}],
    ids=["paper", "prod2", "prod4"],
)
def test_fd_gradient_matches_per_point_reference(request_, reference_fd_gradient):
    prob = make_problem(request_)
    obj = prob.objective
    m = obj.manifold
    X = region_samples(prob, 20, np.random.default_rng(4))
    got = fd_gradient(obj.phi, m, X)
    want = [
        [
            reference_fd_gradient(lambda q, i=i: obj.phi(q.coords[None])[0, i], Point(m, x)).coords
            for i in range(len(obj.params))
        ]
        for x in X
    ]
    assert got.shape == (len(X), len(obj.params), m.dim)
    assert got.tobytes() == np.array(want).tobytes()


# grid minimization


def test_grid_minimize_parabola():
    m = euclidean(1)
    grid = GridSpec(lower=np.array([0.0]), upper=np.array([5.0]), points_per_dim=501)
    pt, val = grid_minimize(lambda X: 0.5 * (X[:, 0] - 3.0) ** 2, grid, m)
    assert pt.coords[0] == pytest.approx(3.0, abs=1e-8)
    assert val <= 1e-15


def test_grid_minimize_finds_kink(log_example):
    obj = log_example.objective
    grid = GridSpec(lower=np.array([0.1251]), upper=np.array([4.0]), points_per_dim=2001)
    pt, val = grid_minimize(lambda X: eval_f_many(obj, X), grid, LP1)
    assert pt.coords[0] == pytest.approx(1.0, abs=1e-7)
    assert val <= 1e-7


def test_grid_minimize_two_dim():
    m = euclidean(2)
    grid = GridSpec(lower=np.array([-2.0, -2.0]), upper=np.array([4.0, 4.0]), points_per_dim=121)
    pt, val = grid_minimize(
        lambda X: 0.5 * np.sum((X - np.array([1.0, 2.0])) ** 2, axis=1),
        grid,
        m,
    )
    spacing = 6.0 / 120
    assert np.all(np.abs(pt.coords - [1.0, 2.0]) <= spacing)
    assert val <= spacing**2


def test_grid_minimize_is_deterministic(log_example):
    obj = log_example.objective
    grid = GridSpec(lower=np.array([0.1251]), upper=np.array([4.0]), points_per_dim=501)
    a = grid_minimize(lambda X: eval_f_many(obj, X), grid, LP1)
    b = grid_minimize(lambda X: eval_f_many(obj, X), grid, LP1)
    assert a[0].coords[0] == b[0].coords[0]
    assert a[1] == b[1]


def test_grid_minimize_first_of_equal_minima_wins(monkeypatch):
    grid = GridSpec(lower=np.array([0.0, 0.0]), upper=np.array([4.0, 4.0]), points_per_dim=5)

    def field(X):
        # minima at (1, 3) and (3, 1); (1, 3) comes first in C order
        return np.minimum(np.sum((X - [1, 3]) ** 2, 1), np.sum((X - [3, 1]) ** 2, 1))

    for chunk in (oracle.GRID_CHUNK, 7, 1):  # 7 splits the two minima across chunks
        monkeypatch.setattr(oracle, "GRID_CHUNK", chunk)
        pt, val = grid_minimize(field, grid, euclidean(2))
        assert pt.coords.tolist() == [1.0, 3.0]
        assert val == 0.0


def test_grid_minimize_skips_nan_nodes():
    grid = GridSpec(lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]), points_per_dim=5)

    def field(X):
        vals = np.sum(X**2, axis=1)
        return np.where(vals == 0.0, np.nan, vals)

    pt, val = grid_minimize(field, grid, euclidean(2))
    assert pt.coords.tolist() == [-1.0, 0.0]
    assert val == 1.0
    with pytest.raises(RuntimeError):
        grid_minimize(lambda X: np.full(len(X), np.nan), grid, euclidean(2))
    with pytest.raises(RuntimeError):
        grid_minimize(lambda X: np.full(len(X), np.inf), grid, euclidean(2))


def test_grid_minimize_across_chunks_matches_plain_argmin():
    m = euclidean(2)
    grid = GridSpec(lower=np.array([0.0, 0.0]), upper=np.array([300.0, 300.0]), points_per_dim=301)
    assert 301**2 > oracle.GRID_CHUNK
    a, b = np.meshgrid(np.arange(301.0), np.arange(301.0), indexing="ij")
    nodes = np.stack([a.ravel(), b.ravel()], axis=1)
    fields = [
        # tied minima on both sides of the first chunk border
        lambda X: np.where((X[:, 0] >= 217) & (X[:, 1] >= 150), 0.0, 1.0),
        # a single minimum in the second chunk
        lambda X: (X[:, 0] - 250.0) ** 2 + (X[:, 1] - 7.0) ** 2,
    ]
    for field in fields:
        want = int(np.argmin(field(nodes)))
        pt, val = grid_minimize(field, grid, m)
        assert pt.coords.tolist() == nodes[want].tolist()
        assert val == field(nodes)[want]


def test_grid_minimize_checks_nodes_are_points():
    grid = GridSpec(lower=np.array([-1.0]), upper=np.array([1.0]), points_per_dim=5)
    with pytest.raises(InvalidPointError):
        grid_minimize(lambda X: X[:, 0], grid, LP1)


def test_grid_spec_guards():
    with pytest.raises(ValueError):
        GridSpec(lower=np.array([1.0]), upper=np.array([0.0]), points_per_dim=10)
    with pytest.raises(ValueError):
        GridSpec(lower=np.array([0.0]), upper=np.array([1.0]), points_per_dim=1)
    with pytest.raises(ValueError):
        GridSpec(lower=np.zeros(2), upper=np.ones(2), points_per_dim=4000)
    with pytest.raises(ValueError):
        grid_minimize(
            lambda X: np.zeros(len(X)),
            GridSpec(lower=np.array([0.1]), upper=np.array([1.0]), points_per_dim=5),
            euclidean(2),
        )


# geodesic convexity sampling


def test_half_sq_dist_is_one_strongly_convex(log_example):
    center = _pt(0.9)
    report = geodesic_convexity_test(
        lambda X: 0.5 * np.float_power(dist_rows(LP1, X, center.coords), 2.0),
        LP1,
        samples=200,
        modulus=1.0,
        lower=log_example.region_lower,
        upper=log_example.region_upper,
        seed=7,
    )
    assert report.passed
    assert report.n_violations == 0
    assert report.n_checks == 200 * 9


def test_raw_max_objective_is_not_convex(log_example):
    # branch 2 has negative chart curvature below x = 1/2, so plain
    # convexity must fail somewhere in the sampled region
    obj = log_example.objective
    report = geodesic_convexity_test(
        lambda X: eval_f_many(obj, X),
        LP1,
        samples=400,
        modulus=0.0,
        lower=log_example.region_lower,
        upper=log_example.region_upper,
        seed=7,
        domain=obj.domain_guard,
    )
    assert not report.passed
    assert report.worst_violation > 1e-8


def test_shifted_objective_regains_strong_convexity(log_example):
    obj = log_example.objective
    shifted = with_prox_term(obj, _pt(0.5), 0.51)
    report = geodesic_convexity_test(
        lambda X: eval_f_many(shifted, X),
        LP1,
        samples=300,
        modulus=0.51 - 0.34,
        lower=log_example.region_lower,
        upper=log_example.region_upper,
        seed=7,
        domain=obj.domain_guard,
    )
    assert report.passed, f"worst violation {report.worst_violation}"


def test_convexity_test_rejects_negative_modulus(log_example):
    with pytest.raises(ValueError):
        geodesic_convexity_test(
            lambda X: np.zeros(len(X)),
            LP1,
            samples=10,
            modulus=-1.0,
            lower=log_example.region_lower,
            upper=log_example.region_upper,
        )


@pytest.mark.parametrize(
    "bad",
    [lambda X: np.zeros((len(X), 1)), lambda X: 0.0, lambda X: np.zeros(len(X) + 1)],
    ids=["column", "scalar", "too-long"],
)
def test_convexity_test_rejects_wrong_field_shape(bad):
    with pytest.raises(ValueError, match="field returned shape"):
        geodesic_convexity_test(bad, LP1, samples=5, modulus=0.0, lower=[0.2], upper=[4.0])


def test_convexity_test_raises_on_nan_field(reference_convexity_test):
    # the per-point test let an all-NaN field pass: max() and gap > slack skip NaN
    nan_field = (lambda p: float("nan"), lambda X: np.full(len(X), np.nan))
    ref = reference_convexity_test(nan_field[0], LP1, 50, 1.0, [0.2], [4.0])
    assert ref.passed and ref.worst_violation == -np.inf
    with pytest.raises(ValueError, match="NaN"):
        geodesic_convexity_test(nan_field[1], LP1, 50, 1.0, [0.2], [4.0])

    # partly NaN: one value of the endpoint call, then of the chord call
    for bad_call in (0, 1):
        calls = []

        def field(X):
            calls.append(X)
            vals = X[:, 0] ** 2
            if len(calls) == bad_call + 1:
                vals[17] = np.nan
            return vals

        with pytest.raises(ValueError, match="NaN") as err:
            geodesic_convexity_test(field, LP1, 50, 0.0, [0.2], [4.0])
        assert len(calls) == bad_call + 1
        assert str(calls[-1][17].tolist()) in str(err.value)


def _reference_cases():
    prob = make_problem("paper_example")
    obj = prob.objective
    shifted = with_prox_term(obj, _pt(0.5), 0.51)
    abs_obj = make_problem("abs").objective
    # each admits 40-60% of the draws, so the retry path runs
    lp_guard = lambda x: (x > 1.0).all(axis=-1)  # noqa: E731
    e_guard = lambda x: (np.abs(x) > 4.0).all(axis=-1)  # noqa: E731
    box = (prob.region_lower, prob.region_upper)
    return [
        ("lp-half-sq-dist", LP1, _half_sq_dist_fields(LP1, [0.9]), 1.0, box, None),
        ("lp-shifted", LP1, _objective_fields(shifted), 0.51 - 0.34, box, obj.domain_guard),
        ("lp-raw-retry", LP1, _objective_fields(obj), 0.0, box, lp_guard),
        ("e-half-sq-dist", E1, _half_sq_dist_fields(E1, [1.5]), 1.0, ([-10.0], [10.0]), None),
        ("e-abs-retry", E1, _objective_fields(abs_obj), 0.0, ([-10.0], [10.0]), e_guard),
    ]


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda c: c[0])
def test_convexity_test_matches_reference_in_one_dimension(case, reference_convexity_test):
    _, m, (point_field, array_field), modulus, (lo, hi), guard = case
    point_domain = None if guard is None else (lambda p: bool(guard(p.coords)))
    for seed in (7, 8):
        want = reference_convexity_test(
            point_field, m, 150, modulus, lo, hi, seed=seed, domain=point_domain
        )
        got = geodesic_convexity_test(
            array_field, m, 150, modulus, lo, hi, seed=seed, domain=guard
        )
        assert got == want


@pytest.mark.parametrize(
    "m, fields, modulus",
    [
        (euclidean(3), _half_sq_dist_fields(euclidean(3), [0.5, -1.0, 2.0]), 1.0),
        (log_positive(3), _half_sq_dist_fields(log_positive(3), [0.5, 1.0, 2.0]), 1.0),
        (
            log_positive(3),
            _objective_fields(
                with_prox_term(
                    make_problem({"name": "paper_example_product", "n": 3}).objective,
                    Point(log_positive(3), [0.7, 1.2, 2.0]),
                    1.0,
                )
            ),
            0.3,
        ),
    ],
    ids=["euclidean3", "log3", "product3-shifted"],
)
def test_convexity_test_within_ulps_of_reference_in_three_dimensions(
    m, fields, modulus, reference_convexity_test
):
    lo = [0.2] * 3 if m.geometry is Geometry.LOG_POSITIVE else [-3.0] * 3
    hi = [3.0] * 3
    want = reference_convexity_test(fields[0], m, 150, modulus, lo, hi, seed=5)
    got = geodesic_convexity_test(fields[1], m, 150, modulus, lo, hi, seed=5)
    assert (got.n_pairs, got.n_checks, got.n_violations, got.passed) == (
        want.n_pairs,
        want.n_checks,
        want.n_violations,
        want.passed,
    )
    # dist's BLAS dot may round a row differently; the field values here are
    # below 40, where 32 ulp of 1.0 covers a few ulp of a value
    assert abs(got.worst_violation - want.worst_violation) <= 32 * np.finfo(float).eps


# upper semicontinuity sampling


def test_usc_at_kink_both_directions(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    for sign, ref in [(1.0, 1.0), (-1.0, 1.0 + 2.0 * np.exp(-2.0))]:
        report = usc_sampler(obj, p, [sign], n=1000, seed=42)
        assert report.reference == pytest.approx(ref, rel=1e-12)
        assert report.passed, f"gap {report.gap}"
        assert report.gap <= report.tolerance


def test_usc_at_smooth_point(log_example):
    obj = log_example.objective
    p = _pt(0.3125)
    report = usc_sampler(obj, p, [0.3125], n=1000, seed=42)
    assert report.passed
    assert report.tail_start == 900
    assert "not a proof" in report.note


def test_usc_near_boundary_discards_but_passes(log_example):
    obj = log_example.objective
    p = _pt(0.13)
    report = usc_sampler(obj, p, [0.13], n=1000, seed=42)
    assert report.discarded > 0
    assert report.passed


@pytest.mark.parametrize(
    "request_, points",
    [
        # a kink, a smooth point, and one near the boundary where draws are discarded
        ("paper_example", [[1.0], [0.3125], [0.13]]),
        ("abs", [[0.0], [-2.5]]),
        ({"name": "paper_example_product", "n": 2}, [[1.0, 1.0], [0.6, 1.0]]),
        ({"name": "paper_example_product", "n": 4}, [[1.0] * 4, [0.5, 1.0, 2.0, 1.5]]),
    ],
    ids=["paper", "abs", "prod2", "prod4"],
)
def test_usc_sampler_equals_per_point_reference(request_, points, reference_usc_sampler):
    obj = make_problem(request_).objective
    rng = np.random.default_rng(3)
    for x in points:
        p = Point(obj.manifold, x)
        v = rng.uniform(-2.0, 2.0, obj.manifold.dim)
        for n in (7, 1000):
            want = reference_usc_sampler(obj, p, v, n=n, seed=5)
            # every field, the floats bit for bit
            assert usc_sampler(obj, p, v, n=n, seed=5) == want


def test_usc_rejects_bad_direction_and_outside_point(log_example):
    # the direction is tangent coordinates (n,) at p, and must be finite
    for bad in ([1.0, 2.0], 1.0, [np.nan]):
        with pytest.raises(ValueError, match="direction must have shape|must be finite"):
            usc_sampler(log_example.objective, _pt(1.0), bad, n=10)
    product = make_problem({"name": "paper_example_product", "n": 2}).objective
    for bad in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="direction must have shape"):
            usc_sampler(product, Point(product.manifold, [1.0, 1.0]), bad, n=10)
    with pytest.raises(DomainError):
        usc_sampler(log_example.objective, _pt(0.05), [1.0], n=10)


def test_usc_respects_tolerance_override(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    strict = usc_sampler(obj, p, [1.0], n=1000, seed=42, tolerance=1e-15)
    assert strict.tolerance == 1e-15
    assert not strict.passed
