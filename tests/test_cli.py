import csv
import dataclasses
import json
import re
import sys
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
    # an integer beyond float range reads as infinite, as the literal 1e400 does
    huge = 10**400
    for key in ("lambda", "lambda_bar", "outer_tol", "inner_tol"):
        for value in (huge, -huge):
            with pytest.raises(ConfigError, match=f"^field '{key}' must be (positive and )?finite"):
                parse_config({"problem": "abs", key: value})
    for key in ("start_point", "level_ref"):
        with pytest.raises(ConfigError, match=f"^field '{key}' must be a non-empty array"):
            parse_config({"problem": "abs", key: [huge]})


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": "abs",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    # json refuses an integer literal past the interpreter's digit limit
    # (sys.get_int_max_str_digits, 4300 by default, in Python 3.10.7 and later)
    path.write_text('{"problem": "abs", "lambda": 1' + "0" * 5000 + "}")
    message = "parse error in .*digits" if hasattr(sys, "get_int_max_str_digits") else "lambda"
    with pytest.raises(ConfigError, match=message):
        load_config(path)


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
    f_best = eval_f(obj, Point(obj.manifold, data["best_point"]))
    f_start = eval_f(obj, Point(obj.manifold, data["start_point"]))
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
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # np.random.default_rng rejects it, so it must not get past the config check
    cfg = _write(tmp_path, "neg.json", {"problem": "paper_example", "seed": -1})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: field 'seed' must be a non-negative integer" in err
    assert not (tmp_path / "o").exists()
    # an empty output_dir would write into the current directory
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "empty.json", {"problem": "paper_example", "output_dir": ""})
    assert main([command, "--config", str(cfg)]) == 1
    assert "config error: field 'output_dir' must not be empty" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json", "neg.json"]


@pytest.mark.parametrize(
    "problem, message",
    [
        ({"name": "paper_example_product", "n": 2.7}, "n must be an integer, got 2.7"),
        ({"name": "paper_example_product", "n": True}, "n must be an integer, got True"),
        ({"name": "paper_example", "epsilon": "0.2"}, "epsilon must be a real number"),
        # an integer beyond float range reads as infinite, as the literal 1e400 does
        ({"name": "paper_example", "epsilon": 10**400}, "epsilon must lie in (0, 0.3125), got inf"),
    ],
)
def test_mistyped_problem_parameter_is_a_config_error(tmp_path, capsys, problem, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(parse_config({"problem": problem}), out_dir=tmp_path / "direct")
    cfg = _write(tmp_path, "bad.json", {"problem": problem})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("key", ["start_point", "level_ref"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1.0", "0.0"])
def test_non_finite_point_is_a_config_error(tmp_path, capsys, command, key, literal):
    # Python's json reads these literals, and 1e400 overflows to inf; -1.0
    # and 0.0 are finite but not points of paper_example's half-line
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(f'{{"problem": "paper_example", "{key}": [{literal}]}}')
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    if np.isfinite(float(literal)):  # numpy prints -1.0 as -1.
        message = f"field '{key}': log-positive coordinates must exceed 1e-300: [{literal[:-1]}]"
    else:
        message = f"field '{key}' must be a non-empty array of finite numbers"
    assert f"config error: {message}" in err
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
        "subgrad_floor",
        "solve_stationary",
    } <= names
    assert all(c["passed"] for c in report["checks"])
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("x0", [1e12, 1e20, 1e100, 1e155, 1e200])
def test_verify_passes_from_large_starts(tmp_path, x0):
    # draws are chart tangents judged by their own length; from 1e155 on the
    # x**2 of a metric gradient overflowed, and from 1e200 run and verify failed
    cfg = parse_config({"problem": "paper_example", "start_point": [x0]})
    assert verify(cfg, out_dir=tmp_path / "v") == 0


def test_run_and_verify_from_1e200_exit_zero(tmp_path):
    config = _write(tmp_path, "big.json", {"problem": "paper_example", "start_point": [1e200]})
    for command in ("run", "verify"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    with open(tmp_path / "run" / "summary.json") as fh:
        assert json.load(fh)["final_point"][0] == pytest.approx(1.0, abs=1e-10)


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


@pytest.mark.parametrize(
    "weight",
    [{"lambda": 0.25}, {"lambda": 2.0, "lambda_bar": 1.0}, {"lambda_bar": 0.1}],
    ids=["below-estimate", "above-cap", "auto-clipped-below-estimate"],
)
def test_verify_flags_weight_below_curvature(tmp_path, capsys, weight):
    # every weight the schedule rejects: run refuses it, and verify fails the
    # three checks that use it with the message run prints
    cfg = _write(tmp_path, "c.json", {"problem": "paper_example", **weight})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert not (tmp_path / "r").exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: LambdaBoundError: ")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 3
    with open(tmp_path / "v" / "verify.json") as fh:
        report = json.load(fh)
    assert isinstance(report["lambda"], float)
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("strong_convexity", "prox_vs_grid", "solve_stationary"):
        assert by_name[name]["status"] == "fail"
        assert by_name[name]["detail"] == err.removeprefix("error: ")


def _geometry_prep(m):
    return SimpleNamespace(problem=SimpleNamespace(objective=SimpleNamespace(manifold=m)))


@pytest.mark.parametrize("m", [log_positive(1), euclidean(1)], ids=["log_positive1", "euclidean1"])
def test_geometry_check_matches_reference_in_one_dimension(
    m, reference_checks, zero_row_generator
):
    # the last stream's normal row 7 is zero, so that draw is redrawn
    for make_rng in (
        lambda: np.random.default_rng(0),
        lambda: np.random.default_rng(1),
        lambda: zero_row_generator(4, 1, 7),
    ):
        want = reference_checks["geometry_roundtrip"](_geometry_prep(m), make_rng())
        got = cli._check_geometry(_geometry_prep(m), make_rng())
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
    rows = checks.row_norms

    def row_norms_with_a_nan(*args):
        out = rows(*args).copy()
        out[17] = np.nan
        return out

    monkeypatch.setattr(checks, "row_norms", row_norms_with_a_nan)
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
    prep = cli._prepare(parse_config({"problem": "paper_example"}))
    passed, detail = cli._check_sum_rule(prep, np.random.default_rng(3))
    assert not passed
    assert detail == "worst mismatch nan (bound 1e-8)"


def test_fd_gradient_check_fails_on_a_nan_error(tmp_path, monkeypatch):
    # fd_gradient passes a NaN field value on to the error; Python's
    # max(0.0, nan) is 0.0 and would drop it, np.max keeps it
    build = cli.make_problem
    z0 = float(region_samples(make_problem("paper_example"), 100)[50, 0])

    def problem_with_a_nan(request):
        problem = build(request)
        obj = problem.objective
        phi = obj.phi

        def nan_above_z0(Z):
            # NaN at the upward shift of the chart sample z0, which only the fd check evaluates
            vals = phi(Z)
            vals[(Z[:, 0] > z0) & (Z[:, 0] < z0 + 1e-6)] = np.nan
            return vals

        return dataclasses.replace(
            problem, objective=dataclasses.replace(obj, phi=nan_above_z0)
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
    # sweep takes no worker count: argparse rejects the option with exit 2
    with pytest.raises(SystemExit) as rejected:
        main(["sweep", "--configs", str(configs), "--jobs", "2"])
    assert rejected.value.code == 2
