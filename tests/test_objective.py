import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from proxmax import (
    DomainError,
    InvalidPointError,
    MaxObjective,
    ParamSet,
    Point,
    SubdiffHull,
    branch_grads,
    clarke_subdiff,
    dist,
    estimate_sup_lipschitz,
    euclidean,
    eval_f,
    eval_f_many,
    gen_dir_derivative,
    log_positive,
    make_problem,
    min_norm_subgradient,
    to_chart,
    with_prox_term,
)
from proxmax.manifold import to_chart_rows
from proxmax.objective import simplex_qp
from proxmax.problems import region_samples

LP1 = log_positive(1)

# branch 2 generator at the kink x = 1 (z = 0), in the chart: x * (-1/x - 2e^(-2x))
G2_AT_ONE = -1.0 - 2.0 * np.exp(-2.0)
# d/dz of the chart gradient of branch 2 peaks at x = (3+sqrt(5))/4
SUP_CHART_SLOPE = 0.3090047859876757


def _pt(x):
    return Point(LP1, [x])


def _z(*xs):
    """Chart rows (N, 1) of the half-line points xs."""
    return np.log(np.array(xs, dtype=float))[:, None]


def _assert_active(obj, x, branches):
    """clarke_subdiff at x holds exactly the gradients of the given branch indices."""
    hull = clarke_subdiff(obj, _pt(x))
    assert hull.generators.tolist() == branch_grads(obj, _z(x))[0][branches].tolist()


# evaluation


def test_eval_at_start_point(log_example):
    f = eval_f(log_example.objective, _pt(0.3125))
    assert f == pytest.approx(1.5630769550880586, rel=1e-15)
    _assert_active(log_example.objective, 0.3125, [1])


def test_eval_at_kink_both_branches_active(log_example):
    f = eval_f(log_example.objective, _pt(1.0))
    assert f == 0.0
    _assert_active(log_example.objective, 1.0, [0, 1])


def test_eval_upper_band_value(log_example):
    f = eval_f(log_example.objective, _pt(0.75))
    assert f == pytest.approx(0.375476949363598, rel=1e-15)
    _assert_active(log_example.objective, 0.75, [1])


def test_eval_right_of_kink_first_branch_wins(log_example):
    f = eval_f(log_example.objective, _pt(2.0))
    assert f == pytest.approx(np.log(2.0), rel=1e-15)
    _assert_active(log_example.objective, 2.0, [0])


def test_eval_outside_domain_raises(log_example):
    with pytest.raises(DomainError):
        eval_f(log_example.objective, _pt(0.1))
    guard = log_example.objective.domain_guard
    assert not guard(np.log([0.1])) and guard(np.log([0.2]))


def _eval_f_rows(obj, X):
    return np.array([eval_f(obj, Point(obj.manifold, x)) for x in X])


def _prox_term_rows(m, X, center, lam):
    """(lam/2) d(p, center)^2 at each row p of X, one Point at a time."""
    c = Point(m, center)
    return np.array([0.5 * lam * dist(Point(m, x), c) ** 2 for x in X])


def _check_prox_rows(obj, X, centers, lams, close):
    """eval_f_many on the chart rows of X matches eval_f on its rows' Points, and
    with_prox_term adds the prox term of each row.

    close compares arrays; the max over branches commutes with adding the
    same term to each, as rounding is monotone.
    """
    m = obj.manifold
    Z = to_chart_rows(m, X)
    assert close(eval_f_many(obj, Z), _eval_f_rows(obj, X))
    raw, f = obj.phi(Z), eval_f_many(obj, Z)
    for c, lam in zip(centers, lams):
        shifted = with_prox_term(obj, to_chart(Point(m, c)), lam)
        term = _prox_term_rows(m, X, c, lam)
        assert close(shifted.phi(Z), raw + term[:, None])
        assert close(eval_f_many(shifted, Z), f + term)
        assert close(eval_f_many(shifted, Z), _eval_f_rows(shifted, X))


@pytest.mark.parametrize(
    "request_",
    [
        {"name": "paper_example", "epsilon": 0.1000001},
        {"name": "paper_example", "epsilon": 0.11},
        {"name": "paper_example", "epsilon": 0.125},
        {"name": "paper_example", "epsilon": 0.31},
        "abs",
        "quadratic",
    ],
    ids=["paper_0.1", "paper_0.11", "paper_0.125", "paper_0.31", "abs", "quadratic"],
)
def test_eval_f_many_matches_eval_f_bit_for_bit(request_):
    prob = make_problem(request_)
    lo, hi = float(prob.region_lower[0]), float(prob.region_upper[0])
    X = np.linspace(lo + 1e-9, hi, 1001)[:, None]
    rng = np.random.default_rng(5)
    centers = rng.uniform(lo + 0.1, hi, (3, 1))
    _check_prox_rows(prob.objective, X, centers, rng.uniform(0.4, 3.0, 3), np.array_equal)


@pytest.mark.parametrize("n", [2, 3])
def test_eval_f_many_within_ulps_on_product(n):
    # exact on numpy 2.4, where row_norms takes the BLAS dot that dist takes;
    # a numpy whose stacked matmul rounds otherwise may differ by a few ulp
    prob = make_problem({"name": "paper_example_product", "n": n})
    rng = np.random.default_rng(n)
    X = np.exp(rng.uniform(np.log(0.13), np.log(4.0), (300, n)))
    centers = np.exp(rng.uniform(np.log(0.2), np.log(3.0), (2, n)))

    def close(got, want):
        return np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))

    _check_prox_rows(prob.objective, X, centers, [0.6, 2.5], close)


def test_eval_f_many_rejects_bad_rows(log_example):
    obj = log_example.objective
    with pytest.raises(DomainError, match="-2.30258"):
        eval_f_many(obj, _z(1.0, 0.1, 2.0))
    # chart rows whose point e^z is not a valid one: beyond float range or below 1e-300
    for bad in ([[1.0], [np.nan]], [[1.0], [np.inf]], [[-800.0]], [[710.0]], [[1.0, 2.0]], [1.0]):
        with pytest.raises(InvalidPointError):
            eval_f_many(obj, bad)
    blowup = MaxObjective(
        manifold=euclidean(1),
        params=ParamSet([0.0]),
        phi=lambda X: np.where(X > 0.0, X, np.inf),
        grad_phi=lambda X: np.zeros((len(X), 1, 1)),
    )
    with pytest.raises(DomainError, match="non-finite"):
        eval_f_many(blowup, [[1.0], [-1.0]])
    assert eval_f_many(obj, np.empty((0, 1))).shape == (0,)


def test_domain_guard_maps_rows_to_flags(log_example):
    guard = log_example.objective.domain_guard
    assert guard(_z(0.1, 0.2, 0.125)).tolist() == [False, True, False]
    assert guard(np.log([0.2])) == np.True_


# branch gradients as rows


@pytest.mark.parametrize(
    "request_",
    [
        {"name": "paper_example", "epsilon": 0.1000001},
        {"name": "paper_example", "epsilon": 0.125},
        {"name": "paper_example", "epsilon": 0.31},
        "abs",
        "quadratic",
        {"name": "paper_example_product", "n": 2},
        {"name": "paper_example_product", "n": 4},
        {"name": "paper_example_product", "n": 8},
    ],
    ids=["paper_0.1", "paper_0.125", "paper_0.31", "abs", "quadratic", "prod2", "prod4", "prod8"],
)
def test_branch_grads_match_stacked_grad_phi_bit_for_bit(request_):
    # grad_phi taken one row at a time, plus lam times the gradient of
    # |z - c|^2 / 2 at each chart row z for the shifted objectives: z - c
    prob = make_problem(request_)
    obj = prob.objective
    m = obj.manifold
    rng = np.random.default_rng(9)
    X = region_samples(prob, 16, rng)
    raw = np.stack([obj.grad_phi(x[None])[0] for x in X])
    got = branch_grads(obj, X)
    assert got.shape == (len(X), len(obj.params), m.dim)
    assert got.tobytes() == raw.tobytes()
    for c, lam in zip(region_samples(prob, 2, rng), [0.6, 2.5]):
        pull = np.stack([lam * (z - c) for z in X])
        got = branch_grads(with_prox_term(obj, c, lam), X)
        assert got.tobytes() == (raw + pull[:, None, :]).tobytes()


def test_branch_grads_checks_rows_shape_and_finiteness(log_example):
    obj = log_example.objective
    with pytest.raises(DomainError, match="outside"):
        branch_grads(obj, _z(1.0, 0.1))
    for bad in ([[np.nan]], [[-800.0]], [[1.0, 2.0]], [1.0]):
        with pytest.raises(InvalidPointError):
            branch_grads(obj, bad)
    m = euclidean(1)
    blowup = MaxObjective(
        manifold=m,
        params=ParamSet([0.0, 1.0]),
        phi=lambda X: np.zeros((len(X), 2)),
        grad_phi=lambda X: np.where(X > 0.0, X, np.inf)[:, None, :].repeat(2, axis=1),
    )
    assert branch_grads(blowup, [[1.0], [2.0]]).tolist() == [[[1.0], [1.0]], [[2.0], [2.0]]]
    assert branch_grads(blowup, np.empty((0, 1))).shape == (0, 2, 1)
    with pytest.raises(DomainError, match=r"branch gradient is non-finite at chart point \[-1.0\]"):
        branch_grads(blowup, [[1.0], [-1.0]])
    flat = dataclasses.replace(blowup, grad_phi=lambda X: np.zeros((len(X), 2)))
    with pytest.raises(ValueError, match="shape"):
        branch_grads(flat, [[1.0]])


def test_param_set_must_increase():
    with pytest.raises(ValueError):
        ParamSet([1.0, 0.0])
    with pytest.raises(ValueError):
        ParamSet([])


# active sets and the subdifferential hull


def test_active_set_away_from_kink(log_example):
    _assert_active(log_example.objective, 0.5, [1])
    _assert_active(log_example.objective, 2.0, [0])


def test_clarke_hull_at_kink(log_example):
    hull = clarke_subdiff(log_example.objective, _pt(1.0))
    assert len(hull.generators) == 2
    assert hull.generators.shape == (2, 1) and not hull.generators.flags.writeable
    assert_allclose(hull.generators[0], [1.0], rtol=1e-15)
    assert_allclose(hull.generators[1], [G2_AT_ONE], rtol=1e-15)


def test_subdiff_hull_checks_generator_rows():
    p = Point(euclidean(2), [0.0, 0.0])
    for bad in (np.empty((0, 2)), np.ones((2, 3)), np.ones(2), [[1.0]]):
        with pytest.raises(ValueError, match="generator rows"):
            SubdiffHull(base=p, generators=bad)
    # the hull holds a read-only view: the caller's array stays writeable
    raw = np.array([[1.0, 2.0]])
    hull = SubdiffHull(base=p, generators=raw)
    assert raw.flags.writeable and not hull.generators.flags.writeable
    assert np.shares_memory(hull.generators, raw)


# generalized directional derivative


def _gdd(obj, p, v):
    """gen_dir_derivative at one Point along the chart tangent v (n,), as a float."""
    return float(gen_dir_derivative(obj, to_chart(p)[None], np.asarray(v, dtype=float)[None])[0])


def test_gdd_at_kink_both_directions(log_example):
    got = gen_dir_derivative(log_example.objective, _z(1.0, 1.0), [[1.0], [-1.0]])
    assert got.shape == (2,)
    assert got[0] == pytest.approx(1.0)
    assert got[1] == pytest.approx(-G2_AT_ONE)


def test_gdd_at_smooth_point(log_example):
    # the x-coordinate tangent 1 at x is the chart tangent 1 / x
    got = _gdd(log_example.objective, _pt(0.3125), [1.0 / 0.3125])
    assert got == pytest.approx(-4.270522857037981, rel=1e-14)


def test_gdd_checks_tangent_rows(log_example):
    obj = log_example.objective
    for bad in ([[1.0]], [[1.0], [np.nan]], [1.0, 2.0]):
        with pytest.raises(ValueError, match="tangent rows"):
            gen_dir_derivative(obj, _z(0.5, 2.0), bad)
    with pytest.raises(DomainError):
        gen_dir_derivative(obj, _z(0.5, 0.05), [[1.0], [1.0]])


def test_gdd_default_tolerance_is_per_row():
    # branch 1 trails branch 0 by 1e-7: within 1e-12 * |f| at f = 1e6, not at f = 1
    obj = MaxObjective(
        manifold=euclidean(1),
        params=ParamSet([0.0, 1.0]),
        phi=lambda X: np.hstack([X, X - 1e-7]),
        grad_phi=lambda X: np.broadcast_to([[1.0], [-1.0]], (len(X), 2, 1)),
    )
    got = gen_dir_derivative(obj, [[1e6], [1.0]], [[-1.0], [-1.0]])
    assert got.tolist() == [1.0, -1.0]


@pytest.mark.parametrize(
    "request_",
    ["paper_example", "abs", {"name": "paper_example_product", "n": 2},
     {"name": "paper_example_product", "n": 4}],
    ids=["paper", "abs", "prod2", "prod4"],
)
def test_gdd_rows_equal_per_point_reference(request_, reference_gen_dir_derivative):
    prob = make_problem(request_)
    obj = prob.objective
    m = obj.manifold
    rng = np.random.default_rng(7)
    Z = region_samples(prob, 40, rng)
    # kinks too: the start, and every chart coordinate at 0 (x = 1, or 0 on abs),
    # where branches tie
    Z = np.vstack([Z, to_chart(prob.start), np.zeros(m.dim)])
    V = rng.uniform(-2.0, 2.0, Z.shape)
    shifted = with_prox_term(obj, to_chart(prob.start), 1.7)
    for o in (obj, shifted):
        got = gen_dir_derivative(o, Z, V)
        want = [reference_gen_dir_derivative(o, z, v) for z, v in zip(Z, V)]
        assert got.tolist() == want


@given(st.floats(-1.8, 1.3), st.floats(-2.0, 2.0), st.floats(0.1, 5.0))
def test_gdd_positively_homogeneous(z, a, t):
    prob = make_problem("paper_example")
    lhs, unscaled = gen_dir_derivative(prob.objective, [[z], [z]], [[t * a], [a]])
    rhs = t * unscaled
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@given(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_gdd_subadditive(z, a, b):
    prob = make_problem({"name": "paper_example_product", "n": 2})
    u, v = np.asarray(a), np.asarray(b)
    lhs, gu, gv = gen_dir_derivative(prob.objective, [z, z, z], [u + v, u, v])
    assert lhs <= gu + gv + 1e-10


def _draw_rows(rng, count):
    """count chart rows z ~ U[-1.8, 1.3], each drawn before its tangent v ~ U[-2, 2]."""
    Z, V = np.empty((count, 1)), np.empty((count, 1))
    for i in range(count):
        Z[i] = rng.uniform(-1.8, 1.3)
        V[i] = rng.uniform(-2, 2, 1)
    return Z, V


def test_gdd_dominates_every_generator(log_example, rng):
    obj = log_example.objective
    X, V = _draw_rows(rng, 50)
    got = gen_dir_derivative(obj, X, V)
    for z, v, g_x in zip(X, V, got):
        hull = clarke_subdiff(obj, Point(LP1, np.exp(z)))
        # chart tangents pair by the dot product
        pairings = [float(g[0] * v[0]) for g in hull.generators]
        assert g_x >= max(pairings) - 1e-12
        assert g_x == pytest.approx(max(pairings), abs=1e-12)


# minimum-norm element


def test_min_norm_single_generator():
    m = euclidean(2)
    p = Point(m, [0.0, 0.0])
    hull = SubdiffHull(base=p, generators=np.array([[3.0, 4.0]]))
    g, n = min_norm_subgradient(hull)
    assert_allclose(g, [3.0, 4.0])
    assert n == pytest.approx(5.0)


def test_min_norm_interval_straddles_zero(log_example):
    hull = clarke_subdiff(log_example.objective, _pt(1.0))
    g, n = min_norm_subgradient(hull)
    assert n == 0.0
    assert_allclose(g, [0.0])


def test_min_norm_one_sided_interval():
    m = euclidean(1)
    p = Point(m, [0.0])
    hull = SubdiffHull(base=p, generators=np.array([[5.0], [2.0]]))
    g, n = min_norm_subgradient(hull)
    assert_allclose(g, [2.0])
    assert n == pytest.approx(2.0)


def test_min_norm_two_generators_closed_form():
    m = euclidean(2)
    p = Point(m, [0.0, 0.0])
    hull = SubdiffHull(base=p, generators=np.array([[1.0, 0.0], [0.0, 1.0]]))
    g, n = min_norm_subgradient(hull)
    assert_allclose(g, [0.5, 0.5], atol=1e-14)
    assert n == pytest.approx(np.sqrt(0.5), rel=1e-14)

    hull = SubdiffHull(base=p, generators=np.array([[2.0, 0.0], [0.0, 4.0]]))
    g, n = min_norm_subgradient(hull)
    assert_allclose(g, [1.6, 0.8], rtol=1e-12)
    assert n == pytest.approx(1.788854381999832, rel=1e-12)


def test_min_norm_metric_weighted_interval():
    # the x-coordinate gradients 4 and 2 at x = 2 have the chart components
    # 4 / 2 and 2 / 2, which carry the metric norm
    p = Point(LP1, [2.0])
    hull = SubdiffHull(base=p, generators=np.array([[4.0], [2.0]]) / p.coords)
    g, n = min_norm_subgradient(hull)
    assert_allclose(g, [1.0])
    assert n == pytest.approx(1.0)  # ambient 2 over coordinate 2


def _exact_min_norm_3(gens):
    """Face enumeration oracle for three Euclidean generators."""
    gens = [np.asarray(g, float) for g in gens]
    best = min(np.linalg.norm(g) for g in gens)
    for i in range(3):
        for j in range(i + 1, 3):
            d = gens[i] - gens[j]
            denom = d @ d
            if denom > 0:
                t = np.clip((gens[i] @ d) / denom, 0.0, 1.0)
                best = min(best, np.linalg.norm(gens[i] - t * d))
    G = np.array(gens)
    K = np.zeros((4, 4))
    K[:3, :3] = 2 * (G @ G.T)
    K[3, :3] = 1.0
    K[:3, 3] = 1.0
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    try:
        sol = np.linalg.solve(K, rhs)
        w = sol[:3]
        if np.all(w >= -1e-12):
            best = min(best, np.linalg.norm(w @ G))
    except np.linalg.LinAlgError:
        pass
    return best


def test_min_norm_matches_face_enumeration(rng):
    m = euclidean(3)
    p = Point(m, np.zeros(3))
    for _ in range(50):
        raw = rng.uniform(-2, 2, (3, 3))
        hull = SubdiffHull(base=p, generators=raw)
        _, n = min_norm_subgradient(hull)
        assert n == pytest.approx(_exact_min_norm_3(raw), abs=1e-8)


def test_min_norm_result_stays_in_hull(rng, hull_distance):
    m = euclidean(4)
    p = Point(m, np.zeros(4))
    for _ in range(20):
        raw = rng.uniform(-1, 1, (5, 4))
        hull = SubdiffHull(base=p, generators=raw)
        g, n = min_norm_subgradient(hull)
        # distance from g back to the hull must vanish
        assert hull_distance(hull, g) <= 1e-8
        for row in raw:
            assert n <= np.linalg.norm(row) + 1e-10


def _enumerated_simplex_qp(G, h, c):
    """Least |w @ G|^2 / (2c) - w @ h over the simplex, from the KKT point of every support."""
    m = len(h)
    best = np.inf
    for k in range(1, m + 1):
        for support in itertools.combinations(range(m), k):
            S = list(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = G[S] @ G[S].T / c
            kkt[:k, k] = kkt[k, :k] = 1.0
            w = np.linalg.lstsq(kkt, np.append(h[S], 1.0), rcond=None)[0][:k]
            if np.all(w >= -1e-12):
                u = w @ G[S]
                best = min(best, u @ u / (2.0 * c) - w @ h[S])
    return best


def _qp_value(G, h, c, w):
    u = w @ G
    return u @ u / (2.0 * c) - w @ h


@pytest.mark.parametrize("m, n", [(2, 1), (4, 1), (3, 2), (6, 2), (5, 3), (7, 4)])
def test_simplex_qp_matches_support_enumeration(rng, m, n):
    for _ in range(30):
        G = rng.uniform(-2.0, 2.0, (m, n))
        h = rng.uniform(-1.0, 1.0, m)
        c = float(rng.uniform(0.3, 3.0))
        w = simplex_qp(G, h, c)
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.count_nonzero(w) <= n + 1
        assert _qp_value(G, h, c, w) == pytest.approx(_enumerated_simplex_qp(G, h, c), abs=1e-12)


def test_simplex_qp_handles_repeated_and_dependent_rows():
    # equal gradients: only the largest value can carry weight
    G = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    h = np.array([0.0, 0.5, 0.2])
    assert_allclose(simplex_qp(G, h, 1.0), [0.0, 1.0, 0.0])
    # three collinear rows in the plane, the middle one on the segment but lower
    G = np.array([[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    h = np.array([0.0, -0.1, 0.0])
    w = simplex_qp(G, h, 1.0)
    assert_allclose(w, [0.5, 0.0, 0.5], atol=1e-15)
    assert _qp_value(G, h, 1.0, w) == pytest.approx(_enumerated_simplex_qp(G, h, 1.0), abs=1e-15)


def test_min_norm_of_box_vertices_is_the_origin():
    # all 2^n branches of the product problem are active at its minimizer
    for n in (2, 3, 5):
        prob = make_problem({"name": "paper_example_product", "n": n})
        p = Point(prob.objective.manifold, np.ones(n))
        hull = clarke_subdiff(prob.objective, p)
        assert len(hull.generators) == 2**n
        _, d = min_norm_subgradient(hull)
        assert d <= 1e-14


def test_hull_distance_examples(log_example, hull_distance):
    p = _pt(1.0)
    hull = clarke_subdiff(log_example.objective, p)
    assert hull_distance(hull, [1.0]) <= 1e-12
    assert hull_distance(hull, [2.0]) == pytest.approx(1.0, abs=1e-8)
    inside = [0.5 * (1.0 + G2_AT_ONE)]
    assert hull_distance(hull, inside) <= 1e-10


# Lipschitz estimation


def _single_branch(manifold, value, grad):
    """One-branch objective from value (N, n) -> (N,) and grad (N, n) -> (N, n) on rows."""
    return MaxObjective(
        manifold=manifold,
        params=ParamSet([0.0]),
        phi=lambda X: value(X)[:, None],
        grad_phi=lambda X: grad(X)[:, None, :],
        lipschitz_bound=None,
    )


def _rows(pts):
    """Chart rows (N, n) of a list of Points, as estimate_sup_lipschitz takes them."""
    return np.stack([to_chart(p) for p in pts])


def _reference_sup_lipschitz(obj, region_samples, safety_factor=1.1):
    """The scalar pair loop the library estimate must reproduce, on chart rows.

    In the chart the distance is |z_i - z_j|, transport is the identity and
    the norm the Euclidean one.
    """
    if obj.lipschitz_bound is not None:
        return float(obj.lipschitz_bound)
    samples = list(region_samples)
    if len(samples) < 2:
        raise ValueError("need at least two region samples to estimate a Lipschitz bound")
    for z in samples:
        if obj.domain_guard is not None and not obj.domain_guard(z):
            raise DomainError(f"chart point {z.tolist()} is outside the admissible region")
    best = 0.0
    for b in range(len(obj.params)):
        grads = [obj.grad_phi(z[None])[0, b] for z in samples]
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                chord = samples[i] - samples[j]
                d = float(np.sqrt(np.dot(chord, chord)))
                if d <= 1e-14:
                    continue
                gap = grads[j] - grads[i]
                best = max(best, float(np.sqrt(np.dot(gap, gap))) / d)
    return safety_factor * best


def test_estimate_zero_for_affine():
    m = euclidean(1)
    obj = _single_branch(m, lambda X: 3.0 * X[:, 0], lambda X: np.full_like(X, 3.0))
    pts = [Point(m, [x]) for x in np.linspace(-2, 2, 9)]
    assert estimate_sup_lipschitz(obj, _rows(pts)) == pytest.approx(0.0, abs=1e-14)


def test_estimate_quadratic_hits_curvature_with_safety():
    m = euclidean(1)
    obj = _single_branch(m, lambda X: 0.5 * X[:, 0] ** 2, lambda X: X.copy())
    pts = [Point(m, [x]) for x in np.linspace(-2, 2, 9)]
    assert estimate_sup_lipschitz(obj, _rows(pts)) == pytest.approx(1.1, rel=1e-12)


def test_estimate_respects_declared_bound():
    m = euclidean(1)
    obj = MaxObjective(
        manifold=m,
        params=ParamSet([0.0]),
        phi=np.abs,
        grad_phi=lambda X: np.sign(X)[:, None, :],
        lipschitz_bound=0.25,
    )
    pts = [Point(m, [x]) for x in np.linspace(-2, 2, 9)]
    assert estimate_sup_lipschitz(obj, _rows(pts)) == 0.25


def test_estimate_needs_two_samples(log_example):
    with pytest.raises(ValueError):
        estimate_sup_lipschitz(log_example.objective, _rows([_pt(1.0)]))


def test_estimate_on_log_example_tracks_analytic_slope(log_example):
    pts = region_samples(log_example, 64, np.random.default_rng(42))
    est = estimate_sup_lipschitz(log_example.objective, pts)
    # sampling can only undershoot the true sup of the transported quotient
    assert est <= 1.1 * SUP_CHART_SLOPE + 1e-9
    assert est >= 1.1 * 0.95 * SUP_CHART_SLOPE
    # dense chart grid closes the gap to the analytic stationary value
    dense = [_pt(float(x)) for x in np.exp(np.linspace(np.log(0.13), np.log(3.99), 600))]
    est_dense = estimate_sup_lipschitz(log_example.objective, _rows(dense))
    assert est_dense == pytest.approx(1.1 * SUP_CHART_SLOPE, rel=1e-4)


@pytest.mark.parametrize("epsilon", [0.1000001, 0.11, 0.125, 0.2, 0.31])
def test_estimate_matches_reference_loop_on_paper_example(epsilon):
    prob = make_problem({"name": "paper_example", "epsilon": epsilon})
    pts = region_samples(prob, 64)
    got = estimate_sup_lipschitz(prob.objective, pts)
    assert got == _reference_sup_lipschitz(prob.objective, pts)


def _wavy(manifold):
    """Single branch with a nonlinear gradient in the chart."""
    return _single_branch(manifold, lambda Z: np.zeros(len(Z)), lambda Z: np.sin(3.0 * Z) + Z**2)


@pytest.mark.parametrize("manifold", [euclidean(1), LP1], ids=["euclidean", "log_positive"])
def test_estimate_matches_reference_loop_in_one_dimension(manifold, rng):
    obj = _wavy(manifold)
    pts = rng.uniform(-1.5, 1.5, 40)[:, None]
    got = estimate_sup_lipschitz(obj, pts)
    assert got > 0.0
    assert got == _reference_sup_lipschitz(obj, pts)


def test_estimate_within_ulps_of_reference_loop_in_higher_dimensions():
    eps = np.finfo(float).eps
    for n in (2, 3):
        prob = make_problem({"name": "paper_example_product", "n": n})
        pts = region_samples(prob, 24, np.random.default_rng(7 + n))
        got = estimate_sup_lipschitz(prob.objective, pts)
        ref = _reference_sup_lipschitz(prob.objective, pts)
        assert abs(got - ref) <= 4 * eps * abs(ref)
    m = euclidean(3)
    obj = _wavy(m)
    pts = _rows([Point(m, row) for row in np.random.default_rng(3).uniform(-1.5, 1.5, (40, 3))])
    got = estimate_sup_lipschitz(obj, pts)
    ref = _reference_sup_lipschitz(obj, pts)
    assert ref > 0.0
    assert abs(got - ref) <= 4 * eps * abs(ref)


def test_estimate_skips_repeated_samples():
    obj = _wavy(LP1)
    distinct = _rows([_pt(x) for x in (0.5, 0.9, 1.7)])
    # every pair here has zero distance or repeats a pair of distinct, in order
    repeated = _rows([_pt(x) for x in (0.5, 0.5, 0.9, 0.9, 0.9, 1.7)])
    want = estimate_sup_lipschitz(obj, distinct)
    assert want > 0.0
    assert estimate_sup_lipschitz(obj, repeated) == want
    assert _reference_sup_lipschitz(obj, repeated) == want
    same = _rows([_pt(0.9)] * 5)
    assert estimate_sup_lipschitz(obj, same) == 0.0
    assert _reference_sup_lipschitz(obj, same) == 0.0
    # a gradient jump between points 1e-15 apart would give a 1e15 quotient
    m = euclidean(1)
    step = _single_branch(m, lambda X: np.zeros(len(X)), lambda X: (X > 0.0).astype(float))
    near = _rows([Point(m, [x]) for x in (0.0, 1e-15, 1.0)])
    assert estimate_sup_lipschitz(step, near) == pytest.approx(1.1, rel=1e-12)
    assert estimate_sup_lipschitz(step, near) == _reference_sup_lipschitz(step, near)


def test_estimate_ignores_nan_quotient_from_underflow():
    # the metric weight 1 / p_j**2 underflowed at p_j = 1e-200 and gave 0/0;
    # in the chart that point is the row ln 1e-200, and no quotient is NaN
    obj = _single_branch(LP1, lambda Z: np.zeros(len(Z)), np.zeros_like)
    pts = _rows([_pt(1.0), _pt(1e-200)])
    with np.errstate(all="raise"):
        assert estimate_sup_lipschitz(obj, pts) == 0.0
        assert _reference_sup_lipschitz(obj, pts) == 0.0


def test_estimate_rejects_out_of_domain_sample(log_example):
    pts = _rows([_pt(0.5), _pt(1.0), _pt(0.1)])
    with pytest.raises(DomainError):
        estimate_sup_lipschitz(log_example.objective, pts)


# sampling estimate of the directional derivative


def test_gd_sampling_near_kink(log_example, gd_sampling_estimate):
    p = _pt(1.0)
    got = gd_sampling_estimate(
        log_example.objective,
        p,
        [1.0],
        radius_seq=[1e-3, 1e-4],
        step_seq=[1e-4, 1e-5],
    )
    assert got == pytest.approx(1.0, abs=5e-3)


def test_gd_sampling_smooth_point(log_example, gd_sampling_estimate):
    p = _pt(0.3125)
    # the x-coordinate tangent 1 at x is the chart tangent 1 / x
    got = gd_sampling_estimate(
        log_example.objective,
        p,
        [1.0 / 0.3125],
        radius_seq=[1e-3, 1e-4],
        step_seq=[1e-4, 1e-5],
    )
    assert got == pytest.approx(-4.270522857037981, abs=5e-3)


def test_gd_sampling_warns_on_partial_discard(log_example, gd_sampling_estimate):
    p = _pt(0.14)
    with pytest.warns(UserWarning):
        gd_sampling_estimate(
            log_example.objective,
            p,
            [0.01],
            radius_seq=[2.0],
            step_seq=[1e-5],
        )


def test_gd_sampling_raises_when_all_samples_leave_domain(log_example, gd_sampling_estimate):
    p = _pt(0.14)
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        gd_sampling_estimate(
            log_example.objective,
            p,
            [-10.0],
            radius_seq=[1e-3],
            step_seq=[1.0],
        )


# shifted objective (prox term)


def test_with_prox_term_value_and_derivative(log_example):
    center = _pt(1.0)
    shifted = with_prox_term(log_example.objective, to_chart(center), 2.0)
    p = _pt(np.e)
    h = eval_f(shifted, p)
    assert h == pytest.approx(2.0, rel=1e-14)  # f(e)=1 plus (2/2)*1^2
    # the chart tangent 1: the x-coordinate tangent e at e
    assert _gdd(shifted, p, [1.0]) == pytest.approx(3.0, rel=1e-13)


def test_with_prox_term_sum_rule(log_example, rng):
    obj = log_example.objective
    center = np.log([0.7])
    lam = 1.7
    shifted = with_prox_term(obj, center, lam)
    X, V = _draw_rows(rng, 40)
    lhs = gen_dir_derivative(shifted, X, V)
    for z, v, lhs_x, f_x in zip(X, V, lhs, gen_dir_derivative(obj, X, V)):
        # the gradient of |z - c|^2 / 2 at z is z - c, paired with v by the dot product
        pull = (z[0] - center[0]) * v[0]
        rhs = f_x + lam * pull
        assert lhs_x == pytest.approx(rhs, abs=1e-10)


def test_with_prox_term_is_minimized_off_center_kink(log_example):
    # the shifted objective at its own center equals f there
    center = _pt(0.5)
    shifted = with_prox_term(log_example.objective, to_chart(center), 3.0)
    h = eval_f(shifted, center)
    f = eval_f(log_example.objective, center)
    assert h == f
    away = _pt(1.5)
    h_away = eval_f(shifted, away)
    f_away = eval_f(log_example.objective, away)
    assert h_away == pytest.approx(f_away + 1.5 * dist(away, center) ** 2, rel=1e-14)


def test_norm_helper_consistency(log_example):
    p = _pt(0.3125)
    hull = clarke_subdiff(log_example.objective, p)
    g, n = min_norm_subgradient(hull)
    # a chart gradient's length is its metric norm: |x g|_x = |x g| / x
    assert n == abs(g[0])
    assert n == pytest.approx(abs(p.coords[0] * g[0]) / p.coords[0], rel=1e-14)
