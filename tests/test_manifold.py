import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from proxmax import (
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
    chart_coords,
    from_chart_rows,
    normal_draw,
    point_coords,
    row_dots,
    row_norms,
    to_chart_rows,
    unit_rows,
)

LP1 = log_positive(1)
E1 = euclidean(1)


# frozen single-value examples, hand-derived from the closed forms; a
# tangent is its chart coordinates, so the x-coordinate tangent at x of the
# chart tangent v is x v on the orthant and v on the line


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
    # transport keeps chart tangents; their x-coordinate forms scale by y / x
    p, q = Point(LP1, [1.0]), Point(LP1, [2.0])
    v = transport(p, q, [3.0])
    assert v.tolist() == [3.0]
    assert_allclose(q.coords * v, p.coords * 3.0 * q.coords / p.coords, rtol=1e-15)


def test_grad_half_sq_dist_example():
    # the gradient of d(., center)^2 / 2 at q is -log_q(center): 1 - 0 in the
    # chart, e * 1 as x coordinates at q = e
    q = Point(LP1, [np.e])
    g = -log_map(q, Point(LP1, [1.0]))
    assert_allclose(g, [1.0], rtol=1e-15)
    assert_allclose(q.coords * g, [np.e], rtol=1e-15)


def test_differential_exp_example(differential_exp):
    p = Point(LP1, [1.0])
    at, out = differential_exp(p, [1.0], [2.0])
    assert_allclose(at.coords, [np.e], rtol=1e-15)
    assert out.tolist() == [2.0]


def test_inner_uses_inverse_square_weights():
    # chart tangents pair by the dot product: for x-coordinate tangents u and
    # v at p those are u / p and v / p, which gives <u, v>_p = sum u v / p^2
    p, u, v = np.array([2.0, 0.5]), np.array([4.0, 1.0]), np.array([2.0, 3.0])
    # 4*2/4 + 1*3/0.25
    assert row_dots(u / p, v / p) == pytest.approx(14.0, rel=1e-15)


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
    # on rows, and the same bits as one point at a time
    X = np.exp(np.linspace(-3.0, 3.0, 50))[:, None]
    Z = to_chart_rows(LP1, X)
    assert Z.tobytes() == np.stack([to_chart(Point(LP1, x)) for x in X]).tobytes()
    assert_allclose(from_chart_rows(LP1, Z), X, rtol=1e-15)
    assert to_chart_rows(euclidean(1), X).tobytes() == X.tobytes()


def test_zero_tangent_is_fixed_point():
    for m in (LP1, E1):
        p = Point(m, [0.7])
        assert np.array_equal(to_chart(exp_map(p, np.zeros(1))), to_chart(p))


# error paths


def test_exp_map_overflow_guard():
    # the chart reaches every point up to the largest float: e^709 is one,
    # e^710 overflows and is no point
    p = Point(LP1, [1.0])
    with pytest.raises(InvalidPointError, match="non-finite"), np.errstate(over="ignore"):
        exp_map(p, [710.0])
    assert exp_map(p, [709.0]).coords[0] == pytest.approx(np.exp(709.0), rel=1e-15)
    assert exp_map(Point(E1, [1.0]), [710.0]).coords.tolist() == [711.0]


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
    # chart rows: any finite row on the line; on the orthant one whose point exists
    assert chart_coords(E1, [[-1e300], [1e300]], rows=True).shape == (2, 1)
    assert chart_coords(LP1, [[-690.0], [709.0]], rows=True).shape == (2, 1)
    for bad in ([[-691.0]], [[710.0]], [[np.nan]], [[1.0, 2.0]], [1.0]):
        with pytest.raises(InvalidPointError):
            chart_coords(LP1, bad, rows=True)


def test_dist_rows_matches_closed_form(rng):
    # d(x, y) = |ln x - ln y| on the orthant, |x - y| on the line: the chart
    # norm of the rows' chart difference, per row
    X = np.exp(rng.uniform(-3.0, 3.0, (200, 1)))
    Y = X[::-1].copy()

    def dist_rows(m, A, B):
        return row_norms(to_chart_rows(m, A) - to_chart_rows(m, B))

    assert_allclose(dist_rows(LP1, X, Y), np.abs(np.log(X) - np.log(Y))[:, 0], rtol=1e-13)
    assert_allclose(dist_rows(E1, X, Y), np.abs(X - Y)[:, 0], rtol=1e-15)
    # rows against one point broadcast
    assert_allclose(dist_rows(LP1, X, [0.3]), np.abs(np.log(X[:, 0]) - np.log(0.3)), rtol=1e-13)
    m3 = log_positive(3)
    X3 = np.exp(rng.uniform(-3.0, 3.0, (200, 3)))
    q = np.array([0.5, 1.0, 2.0])
    want = np.sqrt(((np.log(X3) - np.log(q)) ** 2).sum(axis=1))
    assert_allclose(dist_rows(m3, X3, q), want, rtol=1e-13)
    # and dist takes the same arithmetic on one row
    for x, y in zip(X3[:20], X3[20:40]):
        assert dist(Point(m3, x), Point(m3, y)) == float(dist_rows(m3, x, y))


@pytest.mark.parametrize(
    "m",
    [LP1, E1, log_positive(3), euclidean(3)],
    ids=["log_positive1", "euclidean1", "log_positive3", "euclidean3"],
)
def test_row_kernels_match_closed_forms(m, rng):
    # the chart forms on Points against the x-coordinate closed forms: on the
    # orthant exp_x(w) = x e^(w/x), log_x(y) = x (ln y - ln x) and transport
    # scales by y/x for x-coordinate tangents w = x v; on Euclidean space all
    # are affine
    log = m.geometry.value == "log_positive"
    for _ in range(100):
        p, q = (Point(m, from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim))) for _ in range(2))
        x, y = p.coords, q.coords
        v = rng.uniform(-2.0, 2.0, m.dim)
        w = x * v if log else v  # the x-coordinate form of v at x
        assert_allclose(exp_map(p, v).coords, x * np.exp(w / x) if log else x + w, rtol=1e-15)
        back = x * (np.log(y) - np.log(x)) if log else y - x
        assert_allclose(log_map(p, q), back / x if log else back, rtol=1e-15)
        moved = transport(p, q, v)
        assert_allclose(y * moved if log else moved, w * y / x if log else w, rtol=1e-15)
        # exp and log invert each other, and the chart is an isometry
        assert_allclose(exp_map(p, log_map(p, q)).coords, y, rtol=1e-13)
        chord = np.log(x) - np.log(y) if log else x - y
        assert dist(p, q) == pytest.approx(float(np.sqrt(chord @ chord)), rel=1e-14)


def test_scalar_metric_keeps_its_closed_form_bits(rng):
    # on one row, row_norms and dist give the bits of np.linalg.norm, and on
    # rows each row rounds as that one vector does
    for m in (LP1, E1, log_positive(3), euclidean(3)):
        V = rng.standard_normal((50, m.dim))
        norms = row_norms(V)
        for v, norm in zip(V, norms):
            assert float(row_norms(v)) == float(norm) == float(np.linalg.norm(v))
        for _ in range(50):
            p = Point(m, from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim)))
            q = Point(m, from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim)))
            assert dist(p, q) == float(np.linalg.norm(to_chart(p) - to_chart(q)))


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


# property tests on the chart forms

chart2 = st.tuples(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)

LP2 = log_positive(2)


def _lp_point(z):
    return Point(LP2, np.exp(np.asarray(z)))


@given(chart2, chart2)
def test_log_exp_roundtrip(z, w):
    p, v = _lp_point(z), np.asarray(w)
    back = log_map(p, exp_map(p, v))
    assert row_norms(back - v) <= 1e-10 * max(1.0, row_norms(v))


@given(chart2, chart2)
def test_norm_of_log_matches_dist(z_p, z_q):
    p, q = _lp_point(z_p), _lp_point(z_q)
    d = dist(p, q)
    assert abs(row_norms(log_map(p, q)) - d) <= 1e-10 * max(1.0, d)
    assert abs(d - dist(q, p)) <= 1e-12


@given(chart2, chart2, chart2)
def test_triangle_inequality(z_p, z_q, z_r):
    p, q, r = _lp_point(z_p), _lp_point(z_q), _lp_point(z_r)
    assert dist(p, q) <= dist(p, r) + dist(r, q) + 1e-10


@given(chart2, chart2, chart2)
def test_transport_preserves_norm(z_p, z_q, w):
    p, q, v = _lp_point(z_p), _lp_point(z_q), np.asarray(w)
    speed = row_norms(v)
    assert abs(row_norms(transport(p, q, v)) - speed) <= 1e-10 * max(1.0, speed)


@given(chart2, chart2)
def test_geodesic_reaches_endpoint(z_p, z_q):
    # the geodesic from p towards q is t -> exp_p(t log_p(q))
    p, q = _lp_point(z_p), _lp_point(z_q)
    d = dist(p, q)
    end = exp_map(p, log_map(p, q))
    assert dist(end, q) <= 1e-10 * max(1.0, d)
    mid = exp_map(p, 0.5 * log_map(p, q))
    assert abs(dist(p, mid) - 0.5 * d) <= 1e-10 * max(1.0, d)


def test_grad_half_sq_dist_matches_finite_differences(rng):
    from proxmax.oracle import fd_gradient

    m = log_positive(3)
    # per row: q, then the center; the gradient of |z - c|^2 / 2 at z is z - c
    Z, C = np.split(rng.uniform(-2, 2, (20, 6)), 2, axis=1)
    exact = Z - C
    approx = fd_gradient(lambda Y: 0.5 * np.float_power(row_norms(Y - C), 2.0), m, Z)
    bound = 1e-6 * np.maximum(1.0, row_norms(exact))
    assert np.all(row_norms(exact - approx) <= bound)


def test_differential_exp_matches_finite_differences(rng, differential_exp):
    m = log_positive(2)
    for _ in range(20):
        p = Point(m, np.exp(rng.uniform(-1.5, 1.5, 2)))
        w, u = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        at, out = differential_exp(p, w, u)
        assert_allclose(at.coords, exp_map(p, w).coords, rtol=1e-15)
        h = 1e-6
        plus, minus = (to_chart(exp_map(p, w + s * h * u)) for s in (1.0, -1.0))
        assert_allclose(out, (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9)


def test_random_unit_tangent_has_unit_norm(rng):
    # a chart tangent's length is its metric norm at any point
    for dim in (1, 2, 5):
        for scale in (1.0, 1e-12, 1e12):
            v = unit_rows(scale * normal_draw(dim, rng))
            assert float(row_norms(v)) == pytest.approx(1.0, rel=1e-12)
        rows = unit_rows(rng.standard_normal((7, dim)))
        assert_allclose(row_norms(rows), 1.0, rtol=1e-12)
