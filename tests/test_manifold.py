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
    dist,
    euclidean,
    exp_map,
    log_map,
    log_positive,
    to_chart,
    transport,
)
from proxmax.manifold import (
    dist_rows,
    exp_rows,
    from_chart_rows,
    inner_rows,
    log_rows,
    normal_draw,
    norm_rows,
    point_coords,
    transport_rows,
    unit_rows,
)

LP1 = log_positive(1)
E1 = euclidean(1)


# frozen single-value examples, hand-derived from the closed forms


def test_dist_one_to_e_is_one():
    assert dist(Point(LP1, [1.0]), Point(LP1, [np.e])) == pytest.approx(1.0, abs=1e-15)


def test_exp_map_unit_tangent_at_one():
    p = Point(LP1, [1.0])
    q = exp_map(p, [1.0])
    assert_allclose(q.coords, [np.e], rtol=1e-15)


def test_log_map_example():
    p = Point(LP1, [1.0])
    v = log_map(p, Point(LP1, [np.e]))
    assert_allclose(v, [1.0], rtol=1e-15)


def test_transport_scales_by_coordinate_ratio():
    p, q = Point(LP1, [1.0]), Point(LP1, [2.0])
    assert_allclose(transport(p, q, [3.0]), [6.0], rtol=1e-15)


def test_grad_half_sq_dist_example():
    # the gradient of d(., center)^2 / 2 at q is -log_q(center) = -e*ln(1/e) = e
    g = -log_rows(LP1, np.array([np.e]), np.array([1.0]))
    assert_allclose(g, [np.e], rtol=1e-15)


def test_differential_exp_example(differential_exp):
    p = Point(LP1, [1.0])
    at, out = differential_exp(p, [1.0], [2.0])
    assert_allclose(at.coords, [np.e], rtol=1e-15)
    assert_allclose(out, [2.0 * np.e], rtol=1e-15)


def test_inner_uses_inverse_square_weights():
    p, u, v = np.array([2.0, 0.5]), np.array([4.0, 1.0]), np.array([2.0, 3.0])
    # 4*2/4 + 1*3/0.25
    assert inner_rows(log_positive(2), p, u, v) == pytest.approx(14.0, rel=1e-15)


def test_euclidean_ops_are_affine():
    m = euclidean(2)
    p, q = Point(m, [1.0, -2.0]), Point(m, [4.0, 2.0])
    assert dist(p, q) == pytest.approx(5.0)
    assert_allclose(exp_map(p, log_map(p, q)).coords, q.coords, rtol=1e-15)
    assert_allclose(transport(p, q, [1.0, 1.0]), [1.0, 1.0])


def test_chart_roundtrip():
    p = Point(LP1, [0.25])
    assert_allclose(to_chart(p), [np.log(0.25)], rtol=1e-15)
    assert_allclose(from_chart_rows(LP1, to_chart(p)), p.coords, rtol=1e-15)


def test_zero_tangent_is_fixed_point():
    for m in (LP1, E1):
        x = np.array([0.7])
        assert np.array_equal(exp_rows(m, x, np.zeros(1)), x)


# error paths


def test_exp_map_overflow_guard():
    p = Point(LP1, [1.0])
    with pytest.raises(ExpOverflowError):
        exp_map(p, [701.0])
    # 699 stays under the clamp
    exp_map(p, [699.0])


def test_nonpositive_coordinates_rejected():
    for bad in ([0.0], [-1.0], [1e-301]):
        with pytest.raises(InvalidPointError):
            Point(LP1, bad)


def test_nonfinite_coordinates_rejected():
    with pytest.raises(InvalidPointError):
        Point(E1, [np.nan])
    with pytest.raises(InvalidPointError):
        Point(LP1, [np.inf])


def test_tangent_coordinates_are_checked():
    p, q = Point(LP1, [1.0]), Point(LP1, [2.0])
    for bad in ([np.nan], [np.inf], [1.0, 2.0], [[1.0]]):
        with pytest.raises(InvalidPointError, match="tangent coordinates"):
            exp_map(p, bad)
        with pytest.raises(InvalidPointError, match="tangent coordinates"):
            transport(p, q, bad)


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


def test_dist_rows_matches_closed_form(rng):
    # d(x, y) = |ln x - ln y| on the orthant, |x - y| on the line, per row
    X = np.exp(rng.uniform(-3.0, 3.0, (200, 1)))
    Y = X[::-1].copy()
    assert_allclose(dist_rows(LP1, X, Y), np.abs(np.log(X) - np.log(Y))[:, 0], rtol=1e-13)
    assert_allclose(dist_rows(E1, X, Y), np.abs(X - Y)[:, 0], rtol=1e-15)
    # rows against one point broadcast
    assert_allclose(dist_rows(LP1, X, [0.3]), np.abs(np.log(X[:, 0] / 0.3)), rtol=1e-13)
    m3 = log_positive(3)
    X3 = np.exp(rng.uniform(-3.0, 3.0, (200, 3)))
    q = np.array([0.5, 1.0, 2.0])
    want = np.sqrt(((np.log(X3) - np.log(q)) ** 2).sum(axis=1))
    assert_allclose(dist_rows(m3, X3, q), want, rtol=1e-13)


@pytest.mark.parametrize(
    "m",
    [LP1, E1, log_positive(3), euclidean(3)],
    ids=["log_positive1", "euclidean1", "log_positive3", "euclidean3"],
)
def test_row_kernels_match_closed_forms(m, rng):
    # in the chart z = ln x a geodesic is a straight line, so on the orthant
    # exp_x(v) = x e^(v/x), log_x(y) = x ln(y/x), transport scales by y/x and
    # <u, v>_x = sum u_i v_i / x_i^2; on Euclidean space all four are affine
    P = from_chart_rows(m, rng.uniform(-2.0, 2.0, (100, m.dim)))
    Q = from_chart_rows(m, rng.uniform(-2.0, 2.0, (100, m.dim)))
    U = rng.uniform(-2.0, 2.0, (100, m.dim)) * P
    V = rng.uniform(-2.0, 2.0, (100, m.dim)) * P
    if m.geometry.value == "log_positive":
        exp_want, log_want, moved = P * np.exp(V / P), P * np.log(Q / P), V * Q / P
        uv = (U * V / P**2).sum(axis=1)
    else:
        exp_want, log_want, moved, uv = P + V, Q - P, V, (U * V).sum(axis=1)
    assert_allclose(exp_rows(m, P, V), exp_want, rtol=1e-15)
    assert_allclose(log_rows(m, P, Q), log_want, rtol=1e-15)
    assert_allclose(transport_rows(m, P, Q, V), moved, rtol=1e-15)
    assert_allclose(inner_rows(m, P, U, V), uv, rtol=1e-12, atol=1e-12)
    assert_allclose(norm_rows(m, P, V) ** 2, inner_rows(m, P, V, V), rtol=1e-14)
    # exp and log invert each other, and the chart is an isometry
    assert_allclose(exp_rows(m, P, log_rows(m, P, Q)), Q, rtol=1e-13)
    scale = P if m.geometry.value == "log_positive" else np.ones_like(P)
    assert_allclose(norm_rows(m, P, V), np.sqrt(((V / scale) ** 2).sum(axis=1)), rtol=1e-14)
    # the same rows stacked as (..., n)
    stacked = exp_rows(m, P.reshape(10, 10, -1), V.reshape(10, 10, -1))
    assert np.array_equal(stacked.reshape(P.shape), exp_rows(m, P, V))


def test_exp_rows_overflow_guard():
    with pytest.raises(ExpOverflowError):
        exp_rows(LP1, np.ones((3, 1)), np.array([[1.0], [701.0], [2.0]]))
    assert np.array_equal(exp_rows(E1, np.ones((1, 1)), np.array([[701.0]])), [[702.0]])


def test_scalar_metric_keeps_its_closed_form_bits(rng):
    # on one row, inner_rows, norm_rows and dist give the bits of the
    # np.dot, np.sum and np.linalg.norm bodies the kernels replaced
    for m in (LP1, E1, log_positive(3), euclidean(3)):
        for _ in range(50):
            p = Point(m, from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim)))
            q = Point(m, from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim)))
            x = p.coords
            u = rng.standard_normal(m.dim) * x
            v = rng.standard_normal(m.dim) * x
            if m.geometry.value == "log_positive":
                uv = float(np.sum(u * v / x**2))
                chord = np.log(x / q.coords)
            else:
                uv = float(np.dot(u, v))
                chord = x - q.coords
            assert float(inner_rows(m, x, u, v)) == uv
            vv = float(inner_rows(m, x, v, v))
            assert float(norm_rows(m, x, v)) == float(np.sqrt(max(vv, 0.0)))
            assert dist(p, q) == float(np.linalg.norm(chord))


def test_mixed_manifolds_rejected():
    p_log = Point(LP1, [1.0])
    p_euc = Point(E1, [1.0])
    with pytest.raises(MismatchError):
        dist(p_log, p_euc)
    with pytest.raises(MismatchError):
        log_map(p_log, p_euc)
    with pytest.raises(MismatchError):
        transport(p_euc, p_log, [1.0])


def test_point_coords_are_immutable():
    p = Point(LP1, [1.0])
    with pytest.raises(ValueError):
        p.coords[0] = 2.0


# property tests on the closed forms

chart2 = st.tuples(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def _lp_coords(z):
    return np.exp(np.asarray(z))


LP2 = log_positive(2)


@given(chart2, chart2)
def test_log_exp_roundtrip(z, w):
    x, v = _lp_coords(z), np.asarray(w)
    back = log_rows(LP2, x, exp_rows(LP2, x, v))
    assert norm_rows(LP2, x, back - v) <= 1e-10 * max(1.0, norm_rows(LP2, x, v))


@given(chart2, chart2)
def test_norm_of_log_matches_dist(z_p, z_q):
    x, y = _lp_coords(z_p), _lp_coords(z_q)
    d = dist_rows(LP2, x, y)
    assert abs(norm_rows(LP2, x, log_rows(LP2, x, y)) - d) <= 1e-10 * max(1.0, d)
    assert abs(d - dist_rows(LP2, y, x)) <= 1e-12


@given(chart2, chart2, chart2)
def test_triangle_inequality(z_p, z_q, z_r):
    x, y, r = _lp_coords(z_p), _lp_coords(z_q), _lp_coords(z_r)
    assert dist_rows(LP2, x, y) <= dist_rows(LP2, x, r) + dist_rows(LP2, r, y) + 1e-10


@given(chart2, chart2, chart2)
def test_transport_preserves_norm(z_p, z_q, w):
    x, y, v = _lp_coords(z_p), _lp_coords(z_q), np.asarray(w)
    speed = norm_rows(LP2, x, v)
    assert abs(norm_rows(LP2, y, transport_rows(LP2, x, y, v)) - speed) <= 1e-10 * max(1.0, speed)


@given(chart2, chart2)
def test_geodesic_reaches_endpoint(z_p, z_q):
    # the geodesic from x towards y is t -> exp_x(t log_x(y))
    x, y = _lp_coords(z_p), _lp_coords(z_q)
    d = dist_rows(LP2, x, y)
    end = exp_rows(LP2, x, log_rows(LP2, x, y))
    assert dist_rows(LP2, end, y) <= 1e-10 * max(1.0, d)
    mid = exp_rows(LP2, x, 0.5 * log_rows(LP2, x, y))
    assert abs(dist_rows(LP2, x, mid) - 0.5 * d) <= 1e-10 * max(1.0, d)


def test_grad_half_sq_dist_matches_finite_differences(rng):
    from proxmax.oracle import fd_gradient

    m = log_positive(3)
    # per row: q, then the center; the gradient of d(., c)^2 / 2 at q is -log_q(c)
    Q, C = (np.exp(z) for z in np.split(rng.uniform(-2, 2, (20, 6)), 2, axis=1))
    exact = -Q * np.log(C / Q)
    approx = fd_gradient(lambda X: 0.5 * np.float_power(dist_rows(m, X, C), 2.0), m, Q)
    bound = 1e-6 * np.maximum(1.0, norm_rows(m, Q, exact))
    assert np.all(norm_rows(m, Q, exact - approx) <= bound)


def test_differential_exp_matches_finite_differences(rng, differential_exp):
    m = log_positive(2)
    for _ in range(20):
        p = Point(m, np.exp(rng.uniform(-1.5, 1.5, 2)))
        w, u = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        _, out = differential_exp(p, w, u)
        h = 1e-6
        # exp_x(v) = x e^(v/x) on the orthant
        plus = p.coords * np.exp((w + h * u) / p.coords)
        minus = p.coords * np.exp((w - h * u) / p.coords)
        assert_allclose(out, (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9)


def test_random_unit_tangent_has_unit_norm(rng):
    # a draw is judged by its own length, so large coordinates draw too
    for dim in (1, 2, 5):
        for scale in (1.0, 1e12, 1e100):
            x = scale * np.exp(rng.uniform(-2, 2, dim))
            v = unit_rows(log_positive(dim), x, normal_draw(dim, rng))
            # |v|_x^2 = sum v_i^2 / x_i^2
            assert np.sqrt(np.sum(v**2 / x**2)) == pytest.approx(1.0, rel=1e-12)
