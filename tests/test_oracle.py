import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    InvalidPointError,
    Point,
    Tangent,
    dist,
    euclidean,
    eval_f,
    eval_f_many,
    log_positive,
)
from proxmax import oracle
from proxmax.oracle import (
    GridSpec,
    fd_gradient,
    geodesic_convexity_test,
    grid_minimize,
    usc_sampler,
)

LP1 = log_positive(1)


def _pt(x):
    return Point(LP1, [x])


# finite-difference gradients


def test_fd_gradient_log_branch(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    g = fd_gradient(lambda q: obj.phi(q, 1.0), p)
    assert_allclose(g.coords, [-1.0 - 2.0 * np.exp(-2.0)], rtol=1e-6)


def test_fd_gradient_applies_metric_sharp():
    # gradient of ln x under the inverse-square metric is x itself
    p = _pt(2.0)
    g = fd_gradient(lambda q: np.log(q.coords[0]), p)
    assert_allclose(g.coords, [2.0], rtol=1e-7)


def test_fd_gradient_euclidean():
    m = euclidean(2)
    p = Point(m, [1.0, 2.0])
    g = fd_gradient(lambda q: 0.5 * float(q.coords @ q.coords), p)
    assert_allclose(g.coords, [1.0, 2.0], rtol=1e-7)


def test_fd_gradient_propagates_domain_error(log_example):
    obj = log_example.objective
    p = _pt(0.125 + 1e-9)
    with pytest.raises(DomainError):
        fd_gradient(lambda q: eval_f(obj, q)[0], p)


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
        lambda p: 0.5 * dist(p, center) ** 2,
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
        lambda p: eval_f(obj, p)[0],
        LP1,
        samples=400,
        modulus=0.0,
        lower=log_example.region_lower,
        upper=log_example.region_upper,
        seed=7,
        domain=obj.in_domain,
    )
    assert not report.passed
    assert report.worst_violation > 1e-8


def test_shifted_objective_regains_strong_convexity(log_example):
    from proxmax import with_prox_term

    obj = log_example.objective
    shifted = with_prox_term(obj, _pt(0.5), 0.51)
    report = geodesic_convexity_test(
        lambda p: eval_f(shifted, p)[0],
        LP1,
        samples=300,
        modulus=0.51 - 0.34,
        lower=log_example.region_lower,
        upper=log_example.region_upper,
        seed=7,
        domain=obj.in_domain,
    )
    assert report.passed, f"worst violation {report.worst_violation}"


def test_convexity_test_rejects_negative_modulus(log_example):
    with pytest.raises(ValueError):
        geodesic_convexity_test(
            lambda p: 0.0,
            LP1,
            samples=10,
            modulus=-1.0,
            lower=log_example.region_lower,
            upper=log_example.region_upper,
        )


# upper semicontinuity sampling


def test_usc_at_kink_both_directions(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    for sign, ref in [(1.0, 1.0), (-1.0, 1.0 + 2.0 * np.exp(-2.0))]:
        report = usc_sampler(obj, p, Tangent(p, [sign]), n=1000, seed=42)
        assert report.reference == pytest.approx(ref, rel=1e-12)
        assert report.passed, f"gap {report.gap}"
        assert report.gap <= report.tolerance


def test_usc_at_smooth_point(log_example):
    obj = log_example.objective
    p = _pt(0.3125)
    report = usc_sampler(obj, p, Tangent(p, [0.3125]), n=1000, seed=42)
    assert report.passed
    assert report.tail_start == 900
    assert "not a proof" in report.note


def test_usc_near_boundary_discards_but_passes(log_example):
    obj = log_example.objective
    p = _pt(0.13)
    report = usc_sampler(obj, p, Tangent(p, [0.13]), n=1000, seed=42)
    assert report.discarded > 0
    assert report.passed


def test_usc_respects_tolerance_override(log_example):
    obj = log_example.objective
    p = _pt(1.0)
    strict = usc_sampler(obj, p, Tangent(p, [1.0]), n=1000, seed=42, tolerance=1e-15)
    assert strict.tolerance == 1e-15
    assert not strict.passed
