import numpy as np
import pytest
from numpy.testing import assert_allclose

from proxmax import Point, eval_f, make_problem
from proxmax.manifold import norm_rows
from proxmax.oracle import fd_gradient
from proxmax.problems import BUILTIN_NAMES, region_samples


def test_builtin_registry():
    assert BUILTIN_NAMES == ("abs", "paper_example", "paper_example_product", "quadratic")
    for name in BUILTIN_NAMES:
        prob = make_problem(name)
        assert prob.name == name
        prob.objective.check_domain(prob.start)


def test_make_problem_accepts_dict_with_params():
    prob = make_problem({"name": "paper_example", "epsilon": 0.25})
    assert prob.metadata["epsilon"] == 0.25
    assert not prob.objective.domain_guard(np.array([0.2]))


def test_make_problem_unknown_name_lists_builtins():
    with pytest.raises(ValueError, match="abs.*quadratic"):
        make_problem("nope")
    with pytest.raises(ValueError):
        make_problem({"no_name": True})
    with pytest.raises(ValueError):
        make_problem(42)


def test_make_problem_rejects_bad_params():
    with pytest.raises(ValueError):
        make_problem({"name": "paper_example", "epsilon": 0.5})
    with pytest.raises(ValueError):
        make_problem({"name": "paper_example", "epsilon": 0.0})
    with pytest.raises(ValueError):
        make_problem({"name": "paper_example", "bogus": 1.0})


def test_log_example_shape(log_example):
    obj = log_example.objective
    assert obj.manifold.dim == 1
    assert_allclose(obj.params.values, [0.0, 1.0])
    assert_allclose(log_example.start.coords, [0.3125])
    assert log_example.region_lower[0] == 0.125
    assert log_example.region_upper[0] == 4.0
    meta = log_example.metadata
    assert meta["q"] == 0.3125
    assert meta["delta"] == 0.4
    assert meta["c"] == pytest.approx(0.375476949363598, rel=1e-15)
    assert_allclose(meta["minimizer"], [1.0])


def test_log_example_interpolates_branches(log_example):
    # the two columns are the branches ln x and -ln x + e^(-2x) - e^(-2); the
    # parameter mixes them affinely, so interior values never exceed the
    # endpoint maximum
    x = 2.0
    v0, v1 = log_example.objective.phi(np.array([[x]]))[0]
    f1 = np.log(x)
    f2 = -np.log(x) + np.exp(-2.0 * x) - np.exp(-2.0)
    assert v0 == pytest.approx(f1, rel=1e-14)
    assert v1 == pytest.approx(f2, rel=1e-14)
    mix = 0.75 * v0 + 0.25 * v1
    assert mix == pytest.approx(0.75 * f1 + 0.25 * f2, rel=1e-14)
    assert mix <= max(v0, v1)


def test_product_problem_sums_coordinates():
    prob1 = make_problem("paper_example")
    prob2 = make_problem({"name": "paper_example_product", "n": 2})
    assert len(prob2.objective.params.values) == 4
    rng = np.random.default_rng(3)
    m1 = prob1.objective.manifold
    for _ in range(20):
        x, y = np.exp(rng.uniform(-1.5, 1.2, 2))
        f2, _ = eval_f(prob2.objective, Point(prob2.objective.manifold, [x, y]))
        fx, _ = eval_f(prob1.objective, Point(m1, [x]))
        fy, _ = eval_f(prob1.objective, Point(m1, [y]))
        assert f2 == pytest.approx(fx + fy, rel=1e-13)


def test_product_problem_guards():
    with pytest.raises(ValueError):
        make_problem({"name": "paper_example_product", "n": 0})
    with pytest.raises(ValueError):
        make_problem({"name": "paper_example_product", "n": 13})


def test_abs_problem_values():
    prob = make_problem("abs")
    obj = prob.objective
    m = obj.manifold
    assert obj.declared_sup_lipschitz() == 0.0
    for x in (-2.5, 0.0, 3.0):
        f, _ = eval_f(obj, Point(m, [x]))
        assert f == pytest.approx(abs(x))


def test_quadratic_problem_values():
    prob = make_problem("quadratic")
    obj = prob.objective
    m = obj.manifold
    assert obj.declared_sup_lipschitz() == 0.0
    f, _ = eval_f(obj, Point(m, [3.0]))
    assert f == pytest.approx(4.5)


def test_builtin_gradients_match_finite_differences(rng):
    for name in BUILTIN_NAMES:
        prob = make_problem(name)
        obj = prob.objective
        m = obj.manifold
        X = region_samples(prob, 12, rng)
        if name == "abs":
            X = X[np.abs(X[:, 0]) >= 0.05]  # kink of the branch itself
        exact = obj.grad_phi(X)
        approx = fd_gradient(obj.phi, m, X)
        base = X[:, None, :]
        bound = 1e-5 * np.maximum(1.0, norm_rows(m, base, exact))
        assert np.all(norm_rows(m, base, exact - approx) <= bound)


def test_region_samples_one_dim(log_example):
    pts = region_samples(log_example, 10)
    assert len(pts) == 10
    xs = [x[0] for x in pts]
    assert all(0.125 < x < 4.0 for x in xs)
    assert xs == sorted(xs)


def test_region_samples_multi_dim_needs_rng():
    prob = make_problem({"name": "paper_example_product", "n": 2})
    with pytest.raises(ValueError):
        region_samples(prob, 10)
    pts = region_samples(prob, 10, np.random.default_rng(0))
    assert len(pts) == 10
    assert prob.objective.domain_guard(pts).all()


@pytest.mark.parametrize(
    "request_",
    ["paper_example", "abs", {"name": "paper_example_product", "n": 2},
     {"name": "paper_example_product", "n": 4}],
    ids=["paper", "abs", "prod2", "prod4"],
)
def test_region_samples_match_per_sample_points(request_, reference_region_samples):
    prob = make_problem(request_)
    m = prob.objective.manifold
    for seed in (0, 7):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        X = region_samples(prob, 64, rng)
        ref = reference_region_samples(prob, 64, ref_rng)
        assert X.shape == (64, m.dim)
        assert not X.flags.writeable
        assert X.tobytes() == np.stack([p.coords for p in ref]).tobytes()
        # the row draw leaves the generator where the per-sample draws did
        assert rng.random() == ref_rng.random()
