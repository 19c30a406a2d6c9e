import concurrent.futures
import csv
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from proxmax import Point, euclidean, eval_f, log_positive, make_problem
from proxmax import checks, cli
from proxmax.cli import (
    ConfigError,
    exit_code_for,
    load_config,
    main,
    parse_config,
    run,
    verify,
)
from proxmax.problems import region_samples


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def _read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# config parsing


def test_minimal_config_defaults():
    cfg = parse_config({"problem": "paper_example"})
    assert cfg.lam == "auto"
    assert cfg.lambda_bar == 1e6
    assert cfg.outer_tol == 1e-8
    assert cfg.inner_tol == 1e-10
    assert cfg.max_outer == 10_000
    assert cfg.max_inner == 1_000
    assert cfg.seed == 42
    assert cfg.start_point is None
    assert cfg.level_ref is None


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config({"problem": "abs", "bogus_key": 1})


def test_missing_problem_rejected():
    with pytest.raises(ConfigError, match="problem"):
        parse_config({})


def test_bad_field_values_name_the_field():
    with pytest.raises(ConfigError, match="outer_tol"):
        parse_config({"problem": "abs", "outer_tol": -1.0})
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({"problem": "abs", "lambda": "fast"})
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({"problem": "abs", "lambda": -2})
    with pytest.raises(ConfigError, match="max_outer"):
        parse_config({"problem": "abs", "max_outer": 0})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"problem": "abs", "seed": 1.5})
    with pytest.raises(ConfigError, match="start_point"):
        parse_config({"problem": "abs", "start_point": []})
    with pytest.raises(ConfigError, match="start_point"):
        parse_config({"problem": "abs", "start_point": ["x"]})


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": "abs",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_wrong_start_dimension_rejected(tmp_path):
    cfg = parse_config({"problem": "abs", "start_point": [1.0, 2.0]})
    with pytest.raises(ConfigError, match="start_point"):
        run(cfg, out_dir=tmp_path / "o")


# run artifacts


def test_run_writes_consistent_artifacts(tmp_path):
    cfg = parse_config({"problem": "paper_example"})
    summary = run(cfg, out_dir=tmp_path / "out")
    assert exit_code_for(summary) == 0
    assert summary.termination.kind == "stationary"

    rows = _read_trace(tmp_path / "out" / "trace.csv")
    assert rows, "trace must contain at least one row"
    assert list(rows[0]) == [
        "k",
        "x0",
        "f",
        "step_dist",
        "residual",
        "lambda",
        "inner_iters",
        "subgrad_norm",
    ]
    with open(tmp_path / "out" / "summary.json") as fh:
        data = json.load(fh)
    last = rows[-1]
    assert float(last["f"]) == data["final_f"]
    assert float(last["x0"]) == data["final_point"][0]
    assert float(last["residual"]) == data["final_residual"]
    assert int(last["k"]) == data["iterations"] - 1
    assert data["final_point"][0] == pytest.approx(1.0, abs=1e-6)
    assert data["lipschitz_estimate"] > 0
    assert data["settings"]["lambda"] == "auto"


@pytest.mark.parametrize("n", [2, 4, 8])
def test_product_problem_reaches_all_ones(tmp_path, n):
    cfg = parse_config({"problem": {"name": "paper_example_product", "n": n}})
    summary = run(cfg, out_dir=tmp_path / "out")
    assert summary.termination.kind == "stationary"
    # chart distance to the minimizer (1, ..., 1)
    assert np.linalg.norm(np.log(summary.final_point)) <= 1e-6
    assert summary.best_point is None and summary.best_residual is None


def test_failed_run_reports_best_point(tmp_path):
    cfg = parse_config({"problem": {"name": "paper_example_product", "n": 2}, "max_inner": 2})
    summary = run(cfg, out_dir=tmp_path / "out")
    assert exit_code_for(summary) == 1
    assert "InnerCapError" in summary.termination.message
    with open(tmp_path / "out" / "summary.json") as fh:
        data = json.load(fh)
    assert data["iterations"] == 0
    assert data["final_point"] == data["start_point"]
    assert data["best_point"] != data["start_point"]
    assert data["best_residual"] > data["settings"]["inner_tol"]
    obj = make_problem(cfg.problem).objective
    f_best, _ = eval_f(obj, Point(obj.manifold, data["best_point"]))
    f_start, _ = eval_f(obj, Point(obj.manifold, data["start_point"]))
    assert f_best < f_start
    # the best point lives in summary.json only
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines == ["k,x0,x1,f,step_dist,residual,lambda,inner_iters,subgrad_norm"]


def test_run_abs_walks_integers(tmp_path):
    cfg = parse_config({"problem": "abs", "lambda": 1.0})
    run(cfg, out_dir=tmp_path / "out")
    rows = _read_trace(tmp_path / "out" / "trace.csv")
    xs = [float(r["x0"]) for r in rows]
    np.testing.assert_allclose(xs, [4.0, 3.0, 2.0, 1.0, 0.0, 0.0], atol=1e-8)


def test_run_is_byte_deterministic(tmp_path):
    cfg = parse_config({"problem": "paper_example", "seed": 7})
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    assert b"\r" not in a


def test_run_max_outer_exit_code(tmp_path):
    cfg = parse_config({"problem": "quadratic", "lambda": 1.0, "max_outer": 3})
    summary = run(cfg, out_dir=tmp_path / "out")
    assert summary.termination.kind == "max_iters"
    assert exit_code_for(summary) == 2


def test_run_honors_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PROXMAX_OUTPUT_ROOT", str(tmp_path / "root"))
    code = main(["run", "--config", str(_write(tmp_path, "r.json", {"problem": "abs"}))])
    assert code == 0
    assert (tmp_path / "root" / "r" / "trace.csv").exists()


def test_run_respects_config_output_dir(tmp_path):
    target = tmp_path / "placed"
    cfg_path = _write(tmp_path, "r.json", {"problem": "abs", "output_dir": str(target)})
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (target / "summary.json").exists()


# command line entry


def test_main_run_and_errors(tmp_path):
    good = _write(tmp_path, "good.json", {"problem": "paper_example"})
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "o1")]) == 0

    bad = _write(tmp_path, "bad.json", {"problem": "nope"})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 1

    unknown = _write(tmp_path, "unk.json", {"problem": "abs", "zzz": 1})
    assert main(["run", "--config", str(unknown), "--out", str(tmp_path / "o3")]) == 1

    low = _write(tmp_path, "low.json", {"problem": "paper_example", "lambda": 0.17})
    assert main(["run", "--config", str(low), "--out", str(tmp_path / "o4")]) == 1


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # np.random.default_rng rejects it, so it must not get past the config check
    cfg = _write(tmp_path, "neg.json", {"problem": "paper_example", "seed": -1})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: field 'seed' must be a non-negative integer" in err
    assert not (tmp_path / "o").exists()


def test_main_capped_run_returns_two(tmp_path):
    capped = _write(
        tmp_path, "cap.json", {"problem": "quadratic", "lambda": 1.0, "max_outer": 2}
    )
    assert main(["run", "--config", str(capped), "--out", str(tmp_path / "o")]) == 2


def test_verify_passes_and_writes_report(tmp_path):
    cfg = parse_config({"problem": "paper_example"})
    code = verify(cfg, out_dir=tmp_path / "v")
    assert code == 0
    with open(tmp_path / "v" / "verify.json") as fh:
        report = json.load(fh)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "geometry_roundtrip",
        "fd_gradient",
        "strong_convexity",
        "sum_rule",
        "usc_sampler",
        "prox_vs_grid",
        "dist_convexity",
        "subgrad_floor",
        "solve_stationary",
    } <= names
    assert all(c["passed"] for c in report["checks"])
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_reports_skipped_check_as_skipped(tmp_path, capsys):
    cfg = parse_config({"problem": {"name": "paper_example_product", "n": 2}})
    verify(cfg, out_dir=tmp_path / "v")
    with open(tmp_path / "v" / "verify.json") as fh:
        report = json.load(fh)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["prox_vs_grid"]["status"] == "skipped"
    assert by_name["subgrad_floor"]["status"] == "skipped"
    assert "[skip] prox_vs_grid:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "problem",
    ["paper_example", {"name": "paper_example_product", "n": 2}],
    ids=["paper_example", "product_n2"],
)
def test_verify_solve_check_agrees_with_run(tmp_path, problem):
    cfg_path = _write(tmp_path, "c.json", {"problem": problem})
    run_ok = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    verify(load_config(cfg_path), out_dir=tmp_path / "v")
    with open(tmp_path / "v" / "verify.json") as fh:
        report = json.load(fh)
    check = report["checks"][-1]
    assert check["name"] == "solve_stationary"
    assert (check["status"] == "pass") == run_ok
    if not run_ok:  # a config that cannot run does not pass verify
        assert report["passed"] is False


def test_verify_flags_weight_below_curvature(tmp_path):
    cfg = parse_config({"problem": "paper_example", "lambda": 0.17})
    code = verify(cfg, out_dir=tmp_path / "v")
    assert code == 3
    with open(tmp_path / "v" / "verify.json") as fh:
        report = json.load(fh)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "strong_convexity" in failed
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["solve_stationary"]["detail"] == by_name["strong_convexity"]["detail"]


def _geometry_prep(m):
    return SimpleNamespace(problem=SimpleNamespace(objective=SimpleNamespace(manifold=m)))


@pytest.mark.parametrize("m", [log_positive(1), euclidean(1)], ids=["log_positive1", "euclidean1"])
def test_geometry_check_matches_reference_in_one_dimension(m, reference_checks):
    for seed in (0, 1):
        want = reference_checks["geometry_roundtrip"](_geometry_prep(m), np.random.default_rng(seed))
        got = cli._check_geometry(_geometry_prep(m), np.random.default_rng(seed))
        assert got == want


@pytest.mark.parametrize("m", [log_positive(3), euclidean(3)], ids=["log_positive3", "euclidean3"])
def test_geometry_check_within_ulps_of_reference_in_three_dimensions(m, reference_checks):
    want = reference_checks["geometry_roundtrip"](_geometry_prep(m), np.random.default_rng(3))
    got = cli._check_geometry(_geometry_prep(m), np.random.default_rng(3))
    assert got[0] == want[0]
    worst = [float(detail.split()[2]) for _, detail in (got, want)]
    # deviations are relative to scales >= 1, so a few ulp of 1.0 bound the
    # rounding that dist's BLAS dot may do differently on a row
    assert abs(worst[0] - worst[1]) <= 8 * np.finfo(float).eps


def test_geometry_check_fails_on_a_nan_deviation(monkeypatch):
    # the per-point loop skipped a NaN term: max(worst, nan) keeps worst
    rows = checks.norm_rows

    def norm_rows_with_a_nan(*args):
        out = rows(*args).copy()
        out[17] = np.nan
        return out

    monkeypatch.setattr(checks, "norm_rows", norm_rows_with_a_nan)
    passed, detail = cli._check_geometry(_geometry_prep(log_positive(1)), np.random.default_rng(0))
    assert not passed
    assert detail == "worst deviation nan (bound 1e-10)"


def test_sum_rule_check_fails_on_a_nan_mismatch(monkeypatch):
    # Python's max(0.0, nan) is 0.0 and would drop the NaN row; np.max keeps it
    mismatch = checks.sum_rule_mismatch

    def mismatch_with_a_nan(*args):
        out = mismatch(*args).copy()
        out[42] = np.nan
        return out

    monkeypatch.setattr(checks, "sum_rule_mismatch", mismatch_with_a_nan)
    prep = cli._prepare(parse_config({"problem": "paper_example"}), validate_schedule=False)
    passed, detail = cli._check_sum_rule(prep, np.random.default_rng(3))
    assert not passed
    assert detail == "worst mismatch nan (bound 1e-8)"


def test_fd_gradient_check_fails_on_a_nan_error(tmp_path, monkeypatch):
    # fd_gradient passes a NaN field value on to the error; Python's
    # max(0.0, nan) is 0.0 and would drop it, np.max keeps it
    build = cli.make_problem
    x0 = float(region_samples(make_problem("paper_example"), 100)[50, 0])

    def problem_with_a_nan(request):
        problem = build(request)
        obj = problem.objective
        phi = obj.phi

        def nan_above_x0(X):
            # NaN at the upward shift of sample x0, which only the fd check evaluates
            vals = phi(X)
            vals[(X[:, 0] > x0) & (X[:, 0] < x0 * (1.0 + 1e-6))] = np.nan
            return vals

        return dataclasses.replace(
            problem, objective=dataclasses.replace(obj, phi=nan_above_x0)
        )

    monkeypatch.setattr(cli, "make_problem", problem_with_a_nan)
    assert verify(parse_config({"problem": "paper_example"}), out_dir=tmp_path / "v") == 3
    with open(tmp_path / "v" / "verify.json") as fh:
        by_name = {c["name"]: c for c in json.load(fh)["checks"]}
    assert by_name["fd_gradient"]["status"] == "fail"
    assert by_name["fd_gradient"]["detail"] == "worst relative error nan (bound 1e-6)"


def test_verify_is_byte_deterministic(tmp_path):
    cfg = parse_config({"problem": "paper_example"})
    verify(cfg, out_dir=tmp_path / "a")
    verify(cfg, out_dir=tmp_path / "b")
    first = (tmp_path / "a" / "verify.json").read_bytes()
    assert first == (tmp_path / "b" / "verify.json").read_bytes()


@pytest.mark.parametrize(
    "raw",
    [
        {"problem": "paper_example"},
        {"problem": "paper_example", "seed": 7, "start_point": [0.4]},
        {"problem": {"name": "paper_example", "epsilon": 0.11}, "seed": 19},
        {"problem": "abs"},
    ],
    ids=["paper-default", "paper-seed7", "paper-eps-seed19", "abs"],
)
def test_verify_report_matches_reference_checks(tmp_path, monkeypatch, raw, reference_checks):
    cfg = parse_config(raw)
    verify(cfg, out_dir=tmp_path / "new")
    reference = [(name, reference_checks.get(name, fn)) for name, fn in cli._CHECKS]
    monkeypatch.setattr(cli, "_CHECKS", reference)
    verify(cfg, out_dir=tmp_path / "ref")
    got = (tmp_path / "new" / "verify.json").read_bytes()
    assert got == (tmp_path / "ref" / "verify.json").read_bytes()


def test_sweep_runs_each_config(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    _write(configs, "one.json", {"problem": "abs", "lambda": 1.0})
    _write(configs, "two.json", {"problem": "quadratic", "lambda": 1.0})
    out = tmp_path / "sweeps"
    code = main(["sweep", "--configs", str(configs), "--out", str(out)])
    assert code == 0
    assert (out / "one" / "trace.csv").exists()
    assert (out / "two" / "summary.json").exists()
    with open(out / "sweep_summary.json") as fh:
        index = json.load(fh)
    assert [e["config"] for e in index] == ["one", "two"]
    assert all(e["exit_code"] == 0 for e in index)


def test_sweep_propagates_worst_exit(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    _write(configs, "ok.json", {"problem": "abs", "lambda": 1.0})
    _write(configs, "bad.json", {"problem": "nope"})
    assert main(["sweep", "--configs", str(configs), "--out", str(tmp_path / "s")]) == 1
    assert main(["sweep", "--configs", str(tmp_path / "empty"), "--out", str(tmp_path)]) == 1


def _two_configs(tmp_path):
    configs = tmp_path / "configs"
    configs.mkdir()
    _write(configs, "one.json", {"problem": "abs", "lambda": 1.0})
    _write(configs, "two.json", {"problem": "quadratic", "lambda": 1.0})
    return configs


def test_sweep_asks_for_no_more_workers_than_configs(tmp_path, monkeypatch):
    # a stand-in pool that runs the tasks in this process and records its size
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    argv = ["sweep", "--configs", str(_two_configs(tmp_path)), "--out", str(tmp_path / "s")]
    assert main(argv + ["--jobs", "64"]) == 0
    assert asked == [2]


def test_sweep_in_two_workers_matches_one(tmp_path):
    configs = _two_configs(tmp_path)
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--configs", str(configs), "--out", str(out), "--jobs", jobs]) == 0
    one = (tmp_path / "jobs1" / "sweep_summary.json").read_bytes()
    assert (tmp_path / "jobs2" / "sweep_summary.json").read_bytes() == one
