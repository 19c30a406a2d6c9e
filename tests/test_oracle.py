import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    InvalidPointError,
    Point,
    euclidean,
    eval_f_many,
    log_positive,
    make_problem,
    to_chart,
    with_prox_term,
)
from proxmax.manifold import normal_draw, row_norms
from proxmax.oracle import (
    fd_gradient,
    geodesic_convexity_test,
    grid_minimize,
    usc_sampler,
)
from proxmax.problems import region_samples

LP1 = log_positive(1)
E1 = euclidean(1)


# the half-line's region (0.125, 4) and its chart box
BOX = (np.log([0.125]), np.log([4.0]))


def _pt(x):
    return Point(LP1, [x])


def _half_sq_dist_fields(center):
    """0.5 |z - center|^2 as a field on one chart row and as an array field."""
    c = np.asarray(center, dtype=float)
    return (
        lambda z: 0.5 * float(np.sqrt(np.dot(z - c, z - c))) ** 2,
        lambda Z: 0.5 * np.float_power(row_norms(Z - c), 2.0),
    )


def _objective_fields(obj):
    """eval_f on one chart row and eval_f_many on rows, for the same objective."""
    return lambda z: float(eval_f_many(obj, z[None])[0]), lambda Z: eval_f_many(obj, Z)


# finite-difference gradients


def test_fd_gradient_log_branch(log_example):
    obj = log_example.objective
    g = fd_gradient(obj.phi, LP1, [[0.0]])
    assert g.shape == (1, 2, 1)
    assert_allclose(g[0, 1], [-1.0 - 2.0 * np.exp(-2.0)], rtol=1e-6)


def test_fd_gradient_applies_metric_sharp():
    # in the chart the metric is Euclidean, so there is no sharp to apply:
    # the gradient of ln x = z is 1 (the metric gradient x, as a chart tangent)
    g = fd_gradient(lambda Z: Z[:, 0], LP1, [[np.log(2.0)]])
    assert_allclose(g[0], [1.0], rtol=1e-7)


def test_fd_gradient_euclidean():
    m = euclidean(2)
    g = fd_gradient(lambda X: 0.5 * np.sum(X * X, axis=1), m, [[1.0, 2.0]])
    assert_allclose(g[0], [1.0, 2.0], rtol=1e-7)


def test_fd_gradient_propagates_domain_error(log_example):
    obj = log_example.objective
    with pytest.raises(DomainError):
        fd_gradient(lambda Z: eval_f_many(obj, Z), LP1, np.log([[0.125 + 1e-9]]))


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
            reference_fd_gradient(lambda q, i=i: obj.phi(q[None])[0, i], z)
            for i in range(len(obj.params))
        ]
        for z in X
    ]
    assert got.shape == (len(X), len(obj.params), m.dim)
    assert got.tobytes() == np.array(want).tobytes()


# grid minimization


def test_grid_minimize_parabola():
    z, val = grid_minimize(lambda X: 0.5 * (X[:, 0] - 3.0) ** 2, E1, 0.0, 5.0, 501)
    assert z[0] == pytest.approx(3.0, abs=1e-8)
    assert val <= 1e-15


def test_grid_minimize_finds_kink(log_example):
    # the kink x = 1 is the chart point z = 0
    obj = log_example.objective
    z, val = grid_minimize(lambda Z: eval_f_many(obj, Z), LP1, np.log(0.1251), np.log(4.0), 2001)
    assert z[0] == pytest.approx(0.0, abs=1e-7)
    assert val <= 1e-7


def test_grid_minimize_is_deterministic(log_example):
    obj = log_example.objective
    a = grid_minimize(lambda Z: eval_f_many(obj, Z), LP1, np.log(0.1251), np.log(4.0), 501)
    b = grid_minimize(lambda Z: eval_f_many(obj, Z), LP1, np.log(0.1251), np.log(4.0), 501)
    assert a[0][0] == b[0][0]
    assert a[1] == b[1]


def test_grid_minimize_first_of_equal_minima_wins():
    def field(X):
        # minima at the nodes 1 and 3; the polish keeps each exact zero
        return np.minimum((X[:, 0] - 1.0) ** 2, (X[:, 0] - 3.0) ** 2)

    z, val = grid_minimize(field, E1, 0.0, 4.0, 5)
    assert z.tolist() == [1.0]
    assert val == 0.0


def test_grid_minimize_skips_nan_nodes():
    def field(X):
        # np.argmin alone would return the NaN at -1 before the minimum at -2
        return np.where(X[:, 0] == -1.0, np.nan, X[:, 0] + 2.0)

    z, val = grid_minimize(field, E1, -2.0, 2.0, 5)
    assert z.tolist() == [-2.0]
    assert val == 0.0
    for fill in (np.nan, np.inf):
        with pytest.raises(RuntimeError):
            grid_minimize(lambda X: np.full(len(X), fill), E1, -2.0, 2.0, 5)


def test_grid_minimize_ends_where_an_ulp_exceeds_the_polish_width():
    # above 2**19 one ulp of z is wider than GOLDEN_WIDTH, so the bracket
    # cannot shrink to it; the polish still ends and keeps the exact node
    c = 2.0**20
    z, val = grid_minimize(lambda X: np.abs(X[:, 0] - c), E1, c - 1.0, c + 1.0, 5)
    assert z.tolist() == [c]
    assert val == 0.0
    z, val = grid_minimize(lambda X: np.abs(X[:, 0] - 1e6 - 0.3), E1, 1e6 - 1.0, 1e6 + 1.0, 5)
    assert abs(z[0] - (1e6 + 0.3)) <= 4 * np.spacing(1e6)


def test_grid_minimize_checks_nodes_are_points():
    # chart nodes whose points e^z lie beyond the float range
    with pytest.raises(InvalidPointError):
        grid_minimize(lambda X: X[:, 0], LP1, 700.0, 720.0, 5)


def test_grid_spec_guards():
    def flat(X):
        return np.zeros(len(X))

    bad = [(1.0, 0.0, 10), (0.0, 1.0, 1), (0.0, np.inf, 10), (np.nan, 1.0, 5)]
    for lower, upper, points in bad:
        with pytest.raises(ValueError):
            grid_minimize(flat, E1, lower, upper, points)
    with pytest.raises(ValueError):
        grid_minimize(flat, euclidean(2), 0.1, 1.0, 5)


# geodesic convexity sampling


def test_half_sq_dist_is_one_strongly_convex(log_example):
    report = geodesic_convexity_test(
        _half_sq_dist_fields(np.log([0.9]))[1],
        LP1,
        samples=200,
        modulus=1.0,
        lower=BOX[0],
        upper=BOX[1],
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
        lower=BOX[0],
        upper=BOX[1],
        seed=7,
        domain=obj.domain_guard,
    )
    assert not report.passed
    assert report.worst_violation > 1e-8


def test_shifted_objective_regains_strong_convexity(log_example):
    obj = log_example.objective
    shifted = with_prox_term(obj, to_chart(_pt(0.5)), 0.51)
    report = geodesic_convexity_test(
        lambda X: eval_f_many(shifted, X),
        LP1,
        samples=300,
        modulus=0.51 - 0.34,
        lower=BOX[0],
        upper=BOX[1],
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
            lower=BOX[0],
            upper=BOX[1],
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
    shifted = with_prox_term(obj, to_chart(_pt(0.5)), 0.51)
    abs_obj = make_problem("abs").objective
    # each admits 40-60% of the draws, so the retry path runs; x > 1 is z > 0
    lp_guard = lambda z: (z > 0.0).all(axis=-1)  # noqa: E731
    e_guard = lambda x: (np.abs(x) > 4.0).all(axis=-1)  # noqa: E731
    return [
        ("lp-half-sq-dist", LP1, _half_sq_dist_fields(np.log([0.9])), 1.0, BOX, None),
        ("lp-shifted", LP1, _objective_fields(shifted), 0.51 - 0.34, BOX, obj.domain_guard),
        ("lp-raw-retry", LP1, _objective_fields(obj), 0.0, BOX, lp_guard),
        ("e-half-sq-dist", E1, _half_sq_dist_fields([1.5]), 1.0, ([-10.0], [10.0]), None),
        ("e-abs-retry", E1, _objective_fields(abs_obj), 0.0, ([-10.0], [10.0]), e_guard),
    ]


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda c: c[0])
def test_convexity_test_matches_reference_in_one_dimension(case, reference_convexity_test):
    _, m, (point_field, array_field), modulus, (lo, hi), guard = case
    point_domain = None if guard is None else (lambda z: bool(guard(z)))
    for seed in (7, 8):
        want = reference_convexity_test(
            point_field, m, 150, modulus, lo, hi, seed=seed, domain=point_domain
        )
        got = geodesic_convexity_test(
            array_field, m, 150, modulus, lo, hi, seed=seed, domain=guard
        )
        assert got == want


@pytest.mark.parametrize("share", [0.0, 0.004, 0.02, 0.3])
def test_convexity_test_rejects_draws_as_the_reference(share, reference_convexity_test):
    # the domain admits a share of the chart box: with little enough, 200
    # rejections in a row end the test, at sample 0 or later
    lo, hi = BOX
    cut = float(lo[0] + share * (hi[0] - lo[0]))
    judged_ref, judged = [], []

    def point_domain(z):
        judged_ref.append(z[0])
        return bool(z[0] < cut)

    def domain(X):
        judged.append(X[:, 0])
        return X[:, 0] < cut

    outcomes = []
    for test, field, dom in (
        (reference_convexity_test, lambda z: z[0] ** 2, point_domain),
        (geodesic_convexity_test, lambda X: X[:, 0] ** 2, domain),
    ):
        try:
            outcomes.append(test(field, LP1, 150, 0.0, lo, hi, seed=3, domain=dom))
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    # the draws the reference judged lead the ones the array test judged
    assert np.concatenate(judged)[: len(judged_ref)].tobytes() == np.array(judged_ref).tobytes()


@pytest.mark.parametrize("rejected", [199, 200])
@pytest.mark.parametrize("first", [0, 250], ids=["first-draws", "across-blocks"])
def test_convexity_test_gives_up_after_200_rejected_draws_as_the_reference(
    first, rejected, reference_convexity_test
):
    # the domain rejects the draws from `first` on and admits the others; 150
    # pairs draw a first block of 300 rows, so from 250 on the run spans blocks
    judged_ref, judged = [], []

    def point_domain(z):
        judged_ref.append(z)
        return not first < len(judged_ref) <= first + rejected

    def domain(X):
        judged.extend(X)
        at = np.arange(len(judged) - len(X), len(judged))
        return ~((first <= at) & (at < first + rejected))

    outcomes = []
    for test, field, dom in (
        (reference_convexity_test, lambda z: z[0] ** 2, point_domain),
        (geodesic_convexity_test, lambda X: X[:, 0] ** 2, domain),
    ):
        try:
            outcomes.append(test(field, LP1, 150, 0.0, [0.2], [4.0], seed=3, domain=dom))
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[1], str) == (rejected == 200)


def test_convexity_test_rejects_a_domain_of_the_wrong_shape():
    with pytest.raises(ValueError, match="domain returned shape"):
        geodesic_convexity_test(
            lambda X: X[:, 0], LP1, 5, 0.0, [0.2], [4.0], domain=lambda X: bool(X[0, 0] > 0.2)
        )


@pytest.mark.parametrize(
    "m, fields, modulus",
    [
        (euclidean(3), _half_sq_dist_fields([0.5, -1.0, 2.0]), 1.0),
        (log_positive(3), _half_sq_dist_fields(np.log([0.5, 1.0, 2.0])), 1.0),
        (
            log_positive(3),
            _objective_fields(
                with_prox_term(
                    make_problem({"name": "paper_example_product", "n": 3}).objective,
                    np.log([0.7, 1.2, 2.0]),
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
    log = m.geometry.value == "log_positive"
    lo = np.log([0.2] * 3) if log else [-3.0] * 3
    hi = np.log([3.0] * 3) if log else [3.0] * 3
    want = reference_convexity_test(fields[0], m, 150, modulus, lo, hi, seed=5)
    got = geodesic_convexity_test(fields[1], m, 150, modulus, lo, hi, seed=5)
    assert (got.n_pairs, got.n_checks, got.n_violations, got.passed) == (
        want.n_pairs,
        want.n_checks,
        want.n_violations,
        want.passed,
    )
    # row_norms' BLAS dot may round a row differently; the field values here
    # are below 40, where 32 ulp of 1.0 covers a few ulp of a value
    assert abs(got.worst_violation - want.worst_violation) <= 32 * np.finfo(float).eps


# upper semicontinuity sampling


@pytest.mark.parametrize("n", [1, 3])
def test_block_draws_read_the_row_by_row_stream(n):
    # usc_sampler draws its normals and the convexity test its uniforms in
    # row blocks; both keep the samples of one call per row because of this
    k = 40
    block, rows = np.random.default_rng(11), np.random.default_rng(11)
    want = np.array([rows.standard_normal(n) for _ in range(k)])
    assert block.standard_normal((k, n)).tobytes() == want.tobytes()
    lo, hi = np.linspace(-2.0, 0.5, n), np.linspace(1.0, 4.0, n)
    want = np.array([rows.uniform(lo, hi) for _ in range(k)])
    assert block.uniform(lo, hi, size=(k, n)).tobytes() == want.tobytes()


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
    report = usc_sampler(obj, p, [1.0], n=1000, seed=42)
    assert report.passed
    assert report.tail_start == 900
    assert "not a proof" in report.note


def test_usc_near_boundary_discards_but_passes(log_example):
    obj = log_example.objective
    p = _pt(0.13)
    report = usc_sampler(obj, p, [1.0], n=1000, seed=42)
    assert report.discarded > 0
    assert report.passed


@pytest.mark.parametrize(
    "request_, points",
    [
        # a kink, a smooth point, and near the boundary, where 17 of 1000 steps
        # down to about half of them are discarded
        ("paper_example", [[1.0], [0.3125], [0.13], [0.1251], [0.125000001]]),
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


def test_usc_sampler_raises_as_the_reference_when_every_tail_step_is_discarded(
    reference_usc_sampler,
):
    obj = make_problem({"name": "paper_example_product", "n": 8}).objective
    p, v = Point(obj.manifold, [0.125000001] * 8), np.ones(8)
    with pytest.raises(DomainError) as want:
        reference_usc_sampler(obj, p, v, n=1000, seed=5)
    with pytest.raises(DomainError) as got:
        usc_sampler(obj, p, v, n=1000, seed=5)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("zero", [10, 11], ids=["direction", "kick"])
@pytest.mark.parametrize("request_", ["paper_example", {"name": "paper_example_product", "n": 2}])
def test_usc_sampler_redraws_a_zero_row_as_the_reference(
    request_, zero, monkeypatch, zero_row_generator, reference_usc_sampler
):
    # from x = 1 no step is discarded, so row 10 is step 6's direction and
    # row 11 its kick
    obj = make_problem(request_).objective
    dim = obj.manifold.dim
    p, v = Point(obj.manifold, np.ones(dim)), np.full(dim, 0.7)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: zero_row_generator(seed, dim, zero))
    want = reference_usc_sampler(obj, p, v, n=1000, seed=5)
    assert usc_sampler(obj, p, v, n=1000, seed=5) == want


@pytest.mark.parametrize("request_", ["paper_example", {"name": "paper_example_product", "n": 2}])
def test_usc_sampler_redraws_15_zero_rows_in_a_row_as_the_reference(
    request_, monkeypatch, zero_row_generator, reference_usc_sampler
):
    # from x = 1 no step is discarded, so rows 10 to 24 are all redraws of
    # step 6's direction; normal_draw redraws up to 16 rows in a row
    obj = make_problem(request_).objective
    dim = obj.manifold.dim
    p, v = Point(obj.manifold, np.ones(dim)), np.full(dim, 0.7)
    zero_run = lambda seed: zero_row_generator(seed, dim, 10, 15)  # noqa: E731
    monkeypatch.setattr(np.random, "default_rng", zero_run)
    want = reference_usc_sampler(obj, p, v, n=1000, seed=5)
    assert usc_sampler(obj, p, v, n=1000, seed=5) == want


@pytest.mark.parametrize("request_", ["paper_example", {"name": "paper_example_product", "n": 2}])
def test_usc_sampler_gives_up_on_16_zero_rows_in_a_row_as_normal_draw_does(
    request_, monkeypatch, zero_row_generator
):
    # rows 10 to 25 are zero: step 6's direction is the draw that gives up
    obj = make_problem(request_).objective
    dim = obj.manifold.dim
    p, v = Point(obj.manifold, np.ones(dim)), np.full(dim, 0.7)
    zero_run = lambda seed: zero_row_generator(seed, dim, 10, 16)  # noqa: E731
    monkeypatch.setattr(np.random, "default_rng", zero_run)
    rows = np.random.default_rng(5)
    for _ in range(10):
        normal_draw(dim, rows)
    with pytest.raises(RuntimeError) as want:
        normal_draw(dim, rows)
    with pytest.raises(RuntimeError) as got:
        usc_sampler(obj, p, v, n=1000, seed=5)
    assert str(got.value) == str(want.value) == "failed to draw a non-degenerate tangent direction"


def test_usc_rejects_bad_direction_and_outside_point(log_example):
    # the direction is a chart tangent (n,), and must be finite
    for bad in ([1.0, 2.0], 1.0, [np.nan]):
        with pytest.raises(ValueError, match="direction must have shape|must be finite"):
            usc_sampler(log_example.objective, _pt(1.0), bad, n=10)
    product = make_problem({"name": "paper_example_product", "n": 2}).objective
    for bad in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="direction must have shape"):
            usc_sampler(product, Point(product.manifold, [1.0, 1.0]), bad, n=10)
    with pytest.raises(DomainError):
        usc_sampler(log_example.objective, _pt(0.05), [1.0], n=10)


@pytest.mark.parametrize("x0", [1e150, 1e155, 1e300])
def test_usc_sampler_passes_from_a_large_start(log_example, x0):
    # the metric norm of a draw at x was |g| / x, whose x**2 overflowed from
    # ~1.34e154 on; in the chart a step of 1/k is a step of 1/k at any x
    report = usc_sampler(log_example.objective, _pt(x0), [1.0], n=1000, seed=42)
    assert report.passed and report.discarded == 0


def test_usc_respects_tolerance_override(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    strict = usc_sampler(obj, p, [1.0], n=1000, seed=42, tolerance=1e-15)
    assert strict.tolerance == 1e-15
    assert not strict.passed
