import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from proxmax import (
    ExpOverflowError,
    InvalidPointError,
    MismatchError,
    Point,
    Tangent,
    dist,
    euclidean,
    exp_map,
    from_chart,
    geodesic,
    grad_half_sq_dist,
    inner,
    log_map,
    log_positive,
    norm,
    to_chart,
    transport,
    zero_tangent,
)
from proxmax.manifold import (
    dist_rows,
    exp_rows,
    from_chart_rows,
    log_rows,
    norm_rows,
    point_coords,
    random_unit_tangent,
    transport_rows,
)
from proxmax.oracle import differential_exp

LP1 = log_positive(1)
E1 = euclidean(1)


# frozen single-value examples, hand-derived from the closed forms


def test_dist_one_to_e_is_one():
    assert dist(Point(LP1, [1.0]), Point(LP1, [np.e])) == pytest.approx(1.0, abs=1e-15)


def test_exp_map_unit_tangent_at_one():
    p = Point(LP1, [1.0])
    q = exp_map(p, Tangent(p, [1.0]))
    assert_allclose(q.coords, [np.e], rtol=1e-15)


def test_log_map_example():
    p = Point(LP1, [1.0])
    v = log_map(p, Point(LP1, [np.e]))
    assert_allclose(v.coords, [1.0], rtol=1e-15)


def test_transport_scales_by_coordinate_ratio():
    p, q = Point(LP1, [1.0]), Point(LP1, [2.0])
    moved = transport(p, q, Tangent(p, [3.0]))
    assert_allclose(moved.coords, [6.0], rtol=1e-15)
    assert moved.base is q


def test_grad_half_sq_dist_example():
    q, center = Point(LP1, [np.e]), Point(LP1, [1.0])
    g = grad_half_sq_dist(q, center)
    # -log_map(q, center) = -e*ln(1/e) = e
    assert_allclose(g.coords, [np.e], rtol=1e-15)


def test_differential_exp_example():
    p = Point(LP1, [1.0])
    out = differential_exp(p, Tangent(p, [1.0]), Tangent(p, [2.0]))
    assert_allclose(out.base.coords, [np.e], rtol=1e-15)
    assert_allclose(out.coords, [2.0 * np.e], rtol=1e-15)


def test_inner_uses_inverse_square_weights():
    p = Point(log_positive(2), [2.0, 0.5])
    u = Tangent(p, [4.0, 1.0])
    v = Tangent(p, [2.0, 3.0])
    # 4*2/4 + 1*3/0.25
    assert inner(p, u, v) == pytest.approx(14.0, rel=1e-15)


def test_euclidean_ops_are_affine():
    m = euclidean(2)
    p, q = Point(m, [1.0, -2.0]), Point(m, [4.0, 2.0])
    assert dist(p, q) == pytest.approx(5.0)
    assert_allclose(exp_map(p, log_map(p, q)).coords, q.coords, rtol=1e-15)
    moved = transport(p, q, Tangent(p, [1.0, 1.0]))
    assert_allclose(moved.coords, [1.0, 1.0])


def test_chart_roundtrip():
    p = Point(LP1, [0.25])
    assert_allclose(to_chart(p), [np.log(0.25)], rtol=1e-15)
    back = from_chart(LP1, to_chart(p))
    assert_allclose(back.coords, p.coords, rtol=1e-15)


def test_zero_tangent_is_fixed_point():
    p = Point(LP1, [0.7])
    assert_allclose(exp_map(p, zero_tangent(p)).coords, p.coords, rtol=0)


# error paths


def test_exp_map_overflow_guard():
    p = Point(LP1, [1.0])
    with pytest.raises(ExpOverflowError):
        exp_map(p, Tangent(p, [701.0]))
    # 699 stays under the clamp
    exp_map(p, Tangent(p, [699.0]))


def test_nonpositive_coordinates_rejected():
    for bad in ([0.0], [-1.0], [1e-301]):
        with pytest.raises(InvalidPointError):
            Point(LP1, bad)


def test_nonfinite_coordinates_rejected():
    with pytest.raises(InvalidPointError):
        Point(E1, [np.nan])
    with pytest.raises(InvalidPointError):
        Point(LP1, [np.inf])


def test_point_rows_get_the_point_checks():
    rows = point_coords(LP1, [[0.5], [2.0]], rows=True)
    assert rows.shape == (2, 1)
    for bad in ([[1.0], [0.0]], [[1e-301]], [[np.nan]], [[1.0, 2.0]], [1.0]):
        with pytest.raises(InvalidPointError):
            point_coords(LP1, bad, rows=True)
    for bad in ([np.inf], [-1.0]):
        with pytest.raises(InvalidPointError) as one:
            Point(LP1, bad)
        with pytest.raises(InvalidPointError) as many:
            point_coords(LP1, [bad], rows=True)
        assert str(one.value).split(":")[0] == str(many.value).split(":")[0]


def test_dist_rows_matches_dist(rng):
    for m in (LP1, E1):
        q = from_chart(m, [0.3])
        X = np.array([[x] for x in np.exp(rng.uniform(-3.0, 3.0, 200))])
        want = [dist(Point(m, x), q) for x in X]
        assert np.array_equal(dist_rows(m, X, q.coords), want)
        # row against row, as well as rows against one point
        Y = X[::-1].copy()
        want = [dist(Point(m, x), Point(m, y)) for x, y in zip(X, Y)]
        assert np.array_equal(dist_rows(m, X, Y), want)
    m3 = log_positive(3)
    q = Point(m3, [0.5, 1.0, 2.0])
    X = np.exp(rng.uniform(-3.0, 3.0, (200, 3)))
    want = np.array([dist(Point(m3, x), q) for x in X])
    assert np.all(np.abs(dist_rows(m3, X, q.coords) - want) <= 4 * np.finfo(float).eps * want)


@pytest.mark.parametrize(
    "m",
    [LP1, E1, log_positive(3), euclidean(3)],
    ids=["log_positive1", "euclidean1", "log_positive3", "euclidean3"],
)
def test_row_kernels_match_point_maps(m, rng):
    # exp_map, log_map and transport call the row kernels, so a stack of
    # rows gets the bits of the point-by-point maps
    P = from_chart_rows(m, rng.uniform(-2.0, 2.0, (100, m.dim)))
    Q = from_chart_rows(m, rng.uniform(-2.0, 2.0, (100, m.dim)))
    V = rng.uniform(-2.0, 2.0, (100, m.dim)) * P
    pts = [(Point(m, p), Point(m, q), v) for p, q, v in zip(P, Q, V)]
    assert np.array_equal(exp_rows(m, P, V), [exp_map(p, Tangent(p, v)).coords for p, _, v in pts])
    assert np.array_equal(log_rows(m, P, Q), [log_map(p, q).coords for p, q, _ in pts])
    assert np.array_equal(
        transport_rows(m, P, Q, V), [transport(p, q, Tangent(p, v)).coords for p, q, v in pts]
    )
    # norm's Euclidean dot goes through BLAS; above one dimension a numpy
    # build may round the stacked rows differently by a few ulp
    want = np.array([norm(p, Tangent(p, v)) for p, _, v in pts])
    got = norm_rows(m, P, V)
    if m.dim == 1 or m.geometry.value == "log_positive":
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
    # the same rows stacked as (..., n)
    stacked = exp_rows(m, P.reshape(10, 10, -1), V.reshape(10, 10, -1))
    assert np.array_equal(stacked.reshape(P.shape), exp_rows(m, P, V))


def test_exp_rows_overflow_guard():
    with pytest.raises(ExpOverflowError):
        exp_rows(LP1, np.ones((3, 1)), np.array([[1.0], [701.0], [2.0]]))
    assert np.array_equal(exp_rows(E1, np.ones((1, 1)), np.array([[701.0]])), [[702.0]])


def test_scalar_metric_keeps_its_closed_form_bits(rng):
    # inner, norm and dist call the row kernels; on one point they give the
    # bits of the np.dot, np.sum and np.linalg.norm bodies they replaced
    for m in (LP1, E1, log_positive(3), euclidean(3)):
        for _ in range(50):
            p = from_chart(m, rng.uniform(-2.0, 2.0, m.dim))
            q = from_chart(m, rng.uniform(-2.0, 2.0, m.dim))
            u = Tangent(p, rng.standard_normal(m.dim) * p.coords)
            v = Tangent(p, rng.standard_normal(m.dim) * p.coords)
            if m.geometry.value == "log_positive":
                uv = float(np.sum(u.coords * v.coords / p.coords**2))
                chord = np.log(p.coords / q.coords)
            else:
                uv = float(np.dot(u.coords, v.coords))
                chord = p.coords - q.coords
            assert inner(p, u, v) == uv
            assert norm(p, v) == float(np.sqrt(max(inner(p, v, v), 0.0)))
            assert dist(p, q) == float(np.linalg.norm(chord))


def test_mixed_manifolds_rejected():
    p_log = Point(LP1, [1.0])
    p_euc = Point(E1, [1.0])
    with pytest.raises(MismatchError):
        dist(p_log, p_euc)
    with pytest.raises(MismatchError):
        inner(p_euc, Tangent(p_log, [1.0]), Tangent(p_log, [1.0]))


def test_tangent_arithmetic_requires_same_base():
    p, q = Point(LP1, [1.0]), Point(LP1, [2.0])
    with pytest.raises(MismatchError):
        Tangent(p, [1.0]) + Tangent(q, [1.0])


def test_point_coords_are_immutable():
    p = Point(LP1, [1.0])
    with pytest.raises(ValueError):
        p.coords[0] = 2.0


# property tests on the closed forms

chart2 = st.tuples(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def _lp_point(z):
    m = log_positive(len(z))
    return Point(m, np.exp(np.asarray(z)))


@given(chart2, chart2)
def test_log_exp_roundtrip(z, w):
    p = _lp_point(z)
    v = Tangent(p, np.asarray(w))
    back = log_map(p, exp_map(p, v))
    assert norm(p, back - v) <= 1e-10 * max(1.0, norm(p, v))


@given(chart2, chart2)
def test_norm_of_log_matches_dist(z_p, z_q):
    p, q = _lp_point(z_p), _lp_point(z_q)
    assert abs(norm(p, log_map(p, q)) - dist(p, q)) <= 1e-10 * max(1.0, dist(p, q))
    assert abs(dist(p, q) - dist(q, p)) <= 1e-12


@given(chart2, chart2, chart2)
def test_triangle_inequality(z_p, z_q, z_r):
    p, q, r = _lp_point(z_p), _lp_point(z_q), _lp_point(z_r)
    assert dist(p, q) <= dist(p, r) + dist(r, q) + 1e-10


@given(chart2, chart2, chart2)
def test_transport_preserves_norm(z_p, z_q, w):
    p, q = _lp_point(z_p), _lp_point(z_q)
    v = Tangent(p, np.asarray(w))
    assert abs(norm(q, transport(p, q, v)) - norm(p, v)) <= 1e-10 * max(1.0, norm(p, v))


@given(chart2, chart2)
def test_geodesic_reaches_endpoint(z_p, z_q):
    p, q = _lp_point(z_p), _lp_point(z_q)
    end = geodesic(p, log_map(p, q), 1.0)
    assert dist(end, q) <= 1e-10 * max(1.0, dist(p, q))
    mid = geodesic(p, log_map(p, q), 0.5)
    assert abs(dist(p, mid) - 0.5 * dist(p, q)) <= 1e-10 * max(1.0, dist(p, q))


def test_grad_half_sq_dist_matches_finite_differences(rng):
    from proxmax.oracle import fd_gradient

    m = log_positive(3)
    # per row: q, then the center
    Q, C = (np.exp(z) for z in np.split(rng.uniform(-2, 2, (20, 6)), 2, axis=1))
    exact = np.stack([grad_half_sq_dist(Point(m, q), Point(m, c)).coords for q, c in zip(Q, C)])
    approx = fd_gradient(lambda X: 0.5 * np.float_power(dist_rows(m, X, C), 2.0), m, Q)
    bound = 1e-6 * np.maximum(1.0, norm_rows(m, Q, exact))
    assert np.all(norm_rows(m, Q, exact - approx) <= bound)


def test_differential_exp_matches_finite_differences(rng):
    m = log_positive(2)
    for _ in range(20):
        p = Point(m, np.exp(rng.uniform(-1.5, 1.5, 2)))
        w = Tangent(p, rng.uniform(-1, 1, 2))
        u = Tangent(p, rng.uniform(-1, 1, 2))
        out = differential_exp(p, w, u)
        h = 1e-6
        plus = exp_map(p, w + h * u).coords
        minus = exp_map(p, w - h * u).coords
        assert_allclose(out.coords, (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9)


def test_random_unit_tangent_has_unit_norm(rng):
    for dim in (1, 2, 5):
        p = Point(log_positive(dim), np.exp(rng.uniform(-2, 2, dim)))
        v = random_unit_tangent(p, rng)
        assert norm(p, v) == pytest.approx(1.0, rel=1e-12)
