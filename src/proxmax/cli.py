"""Command line front end: run, verify, sweep.

Configs are JSON.  A run writes trace.csv and summary.json into its output
directory; verify writes verify.json.  Exit codes: 0 for a stationary run
or a clean verification, 2 when the outer iteration cap is hit, 3 when a
verification check fails, 1 for any error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import checks, oracle
from .manifold import (
    Point,
    dist_rows,
    from_chart_rows,
    random_unit_coords,
    to_chart,
)
from .objective import (
    branch_grads,
    clarke_subdiff,
    estimate_sup_lipschitz,
    eval_f,
    eval_f_many,
    min_norm_subgradient,
    with_prox_term,
)
from .problems import BUILTIN_NAMES, BuiltinProblem, make_problem, region_samples
from .prox import LambdaSchedule, ProxConfig, Termination, Trace, solve

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunSummary",
    "load_config",
    "run",
    "verify",
    "sweep",
    "main",
]

OUTPUT_ROOT_ENV = "PROXMAX_OUTPUT_ROOT"
_EXIT_BY_TERMINATION = {
    Termination.STATIONARY: 0,
    Termination.ERROR: 1,
    Termination.MAX_ITERS: 2,
}


class ConfigError(ValueError):
    """A configuration file failed validation."""


@dataclass
class RunConfig:
    problem: object
    start_point: Optional[list] = None
    lam: object = "auto"
    lambda_bar: float = 1e6
    outer_tol: float = 1e-8
    inner_tol: float = 1e-10
    max_outer: int = 10_000
    max_inner: int = 1_000
    seed: int = 42
    level_ref: Optional[list] = None
    output_dir: Optional[str] = None
    source_path: Optional[Path] = None

    def label(self) -> str:
        if self.source_path is not None:
            return self.source_path.stem
        if isinstance(self.problem, str):
            return self.problem
        return str(self.problem.get("name", "run"))


@dataclass
class RunSummary:
    problem: str
    termination: Termination
    iterations: int
    start_point: list
    final_point: list
    final_f: Optional[float]
    final_residual: Optional[float]
    # a failed inner solve's last iterate and its certificate; null otherwise
    best_point: Optional[list]
    best_residual: Optional[float]
    wall_time_ms: float
    lambda_used: float
    lipschitz_estimate: float
    settings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_number(raw: dict, key: str, default):
    value = raw.get(key, default)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"field '{key}' must be a number",
    )
    value = float(value)
    _require(np.isfinite(value), f"field '{key}' must be finite")
    _require(value > 0, f"field '{key}' must be positive")
    return value


def _check_int(raw: dict, key: str, default) -> int:
    value = raw.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"field '{key}' must be an integer",
    )
    return value


def _check_point_list(raw: dict, key: str) -> Optional[list]:
    value = raw.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, list)
        and value
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value),
        f"field '{key}' must be a non-empty array of numbers",
    )
    return [float(x) for x in value]


_KNOWN_KEYS = {
    "problem",
    "start_point",
    "lambda",
    "lambda_bar",
    "outer_tol",
    "inner_tol",
    "max_outer",
    "max_inner",
    "seed",
    "level_ref",
    "output_dir",
}


def parse_config(raw: dict, source_path: Optional[Path] = None) -> RunConfig:
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"unknown config keys: {', '.join(sorted(unknown))}")
    _require("problem" in raw, "field 'problem' is required")
    problem = raw["problem"]
    _require(
        isinstance(problem, (str, dict)),
        "field 'problem' must be a builtin name or an object with a 'name' entry",
    )

    lam = raw.get("lambda", "auto")
    if lam != "auto":
        _require(
            isinstance(lam, (int, float)) and not isinstance(lam, bool),
            "field 'lambda' must be a positive number or the string 'auto'",
        )
        lam = float(lam)
        _require(np.isfinite(lam) and lam > 0, "field 'lambda' must be positive and finite")

    cfg = RunConfig(
        problem=problem,
        start_point=_check_point_list(raw, "start_point"),
        lam=lam,
        lambda_bar=_check_number(raw, "lambda_bar", 1e6),
        outer_tol=_check_number(raw, "outer_tol", 1e-8),
        inner_tol=_check_number(raw, "inner_tol", 1e-10),
        max_outer=_check_int(raw, "max_outer", 10_000),
        max_inner=_check_int(raw, "max_inner", 1_000),
        seed=_check_int(raw, "seed", 42),
        level_ref=_check_point_list(raw, "level_ref"),
        output_dir=raw.get("output_dir"),
        source_path=source_path,
    )
    _require(cfg.max_outer >= 1, "field 'max_outer' must be at least 1")
    _require(cfg.max_inner >= 1, "field 'max_inner' must be at least 1")
    # np.random.default_rng rejects a negative seed
    _require(cfg.seed >= 0, "field 'seed' must be a non-negative integer")
    _require(
        cfg.output_dir is None or isinstance(cfg.output_dir, str),
        "field 'output_dir' must be a string",
    )
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from None
    return parse_config(raw, source_path=path)


def _resolve_out_dir(cfg: RunConfig, out_dir) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if cfg.output_dir is not None:
        return Path(cfg.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV, "proxmax_runs")
    return Path(root) / cfg.label()


@dataclass
class _Prepared:
    problem: BuiltinProblem
    start: Point
    sched: Optional[LambdaSchedule]
    pcfg: ProxConfig
    level_ref: Optional[Point]
    lipschitz: float
    lam: float


def _prepare(cfg: RunConfig, validate_schedule: bool = True) -> _Prepared:
    try:
        problem = make_problem(cfg.problem)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    obj = problem.objective
    m = obj.manifold

    if cfg.start_point is not None:
        _require(
            len(cfg.start_point) == m.dim,
            f"field 'start_point' must have {m.dim} coordinates",
        )
        start = Point(m, cfg.start_point)
    else:
        start = problem.start

    rng = np.random.default_rng(cfg.seed)
    samples = region_samples(problem, 64, rng)
    lipschitz = estimate_sup_lipschitz(obj, samples)

    if cfg.lam == "auto":
        sched = LambdaSchedule.default(lipschitz, cfg.lambda_bar)
    elif validate_schedule:
        sched = LambdaSchedule(lower=lipschitz, upper=cfg.lambda_bar, constant=cfg.lam)
    else:
        # verify must still exercise an out-of-range lambda and report it
        try:
            sched = LambdaSchedule(lower=lipschitz, upper=cfg.lambda_bar, constant=cfg.lam)
        except ValueError:
            sched = None

    level = None
    if cfg.level_ref is not None:
        _require(
            len(cfg.level_ref) == m.dim,
            f"field 'level_ref' must have {m.dim} coordinates",
        )
        level = Point(m, cfg.level_ref)

    pcfg = ProxConfig(
        outer_tol=cfg.outer_tol,
        inner_tol=cfg.inner_tol,
        max_outer=cfg.max_outer,
        max_inner=cfg.max_inner,
    )
    lam = sched.at(0) if sched is not None else float(cfg.lam)
    return _Prepared(problem, start, sched, pcfg, level, lipschitz, lam)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_trace_csv(path: Path, trace: Trace, dim: int) -> None:
    header = (
        ["k"]
        + [f"x{i}" for i in range(dim)]
        + ["f", "step_dist", "residual", "lambda", "inner_iters", "subgrad_norm"]
    )
    lines = [",".join(header)]
    for rec in trace.records:
        row = [str(rec.k)]
        row += [_format_float(c) for c in rec.point.coords]
        row += [
            _format_float(rec.f_value),
            _format_float(rec.step_dist),
            _format_float(rec.residual),
            _format_float(rec.lam),
            str(rec.inner_iters),
            _format_float(rec.subgrad_norm),
        ]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def run(cfg: RunConfig, out_dir=None) -> RunSummary:
    """Execute a configured run and write trace.csv plus summary.json."""
    prep = _prepare(cfg)
    out = _resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    trace = solve(prep.problem.objective, prep.start, prep.sched, prep.pcfg, prep.level_ref)
    wall_ms = (time.perf_counter() - t0) * 1e3

    last = trace.records[-1] if trace.records else None
    summary = RunSummary(
        problem=prep.problem.name,
        termination=trace.termination,
        iterations=trace.iterations,
        start_point=prep.start.coords.tolist(),
        final_point=trace.final_point().coords.tolist(),
        final_f=last.f_value if last else None,
        final_residual=last.residual if last else None,
        best_point=trace.best.coords.tolist() if trace.best is not None else None,
        best_residual=trace.best_residual,
        wall_time_ms=wall_ms,
        lambda_used=last.lam if last else prep.lam,
        lipschitz_estimate=prep.lipschitz,
        settings={
            "lambda": cfg.lam,
            "lambda_bar": cfg.lambda_bar,
            "outer_tol": cfg.outer_tol,
            "inner_tol": cfg.inner_tol,
            "max_outer": cfg.max_outer,
            "max_inner": cfg.max_inner,
            "seed": cfg.seed,
            "level_ref": cfg.level_ref,
        },
    )
    _write_trace_csv(out / "trace.csv", trace, prep.start.manifold.dim)
    (out / "summary.json").write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    return summary


def exit_code_for(summary: RunSummary) -> int:
    return _EXIT_BY_TERMINATION[summary.termination.kind]


# ---------------------------------------------------------------------------
# verification battery
#
# Each check returns (passed, detail); passed is None when the check does not
# apply to the problem, and the report lists it as skipped.


def _chord_detail(report: oracle.ConvexityReport) -> str:
    return (
        f"{report.n_violations} violations in {report.n_checks} checks, "
        f"worst {report.worst_violation:.3e}"
    )


def _check_geometry(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    m = prep.problem.objective.manifold
    count = 2000
    p, zq, zr, v = (np.empty((count, m.dim)) for _ in range(4))
    for i in range(count):
        # one round trip at a time, drawing p, q, the speed and direction of
        # v at p, then r: this order fixes the samples and so the report
        p[i] = from_chart_rows(m, rng.uniform(-2.0, 2.0, m.dim))
        zq[i] = rng.uniform(-2.0, 2.0, m.dim)
        v[i] = rng.uniform(0.1, 3.0) * random_unit_coords(m, p[i], rng)
        zr[i] = rng.uniform(-2.0, 2.0, m.dim)
    worst = checks.geometry_deviation(m, p, from_chart_rows(m, zq), from_chart_rows(m, zr), v)
    return worst <= 1e-10, f"worst deviation {worst:.3e} (bound 1e-10)"


def _check_fd_gradient(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    obj = prep.problem.objective
    X = region_samples(prep.problem, 100, rng)
    errors = checks.gradient_error(obj.phi, obj.manifold, X, branch_grads(obj, X))
    # np.max keeps a NaN, which fails the bound
    worst = float(np.max(errors))
    return worst <= 1e-6, f"worst relative error {worst:.3e} (bound 1e-6)"


def _check_strong_convexity(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    reason = checks.weight_too_small(prep.lam, prep.lipschitz)
    if reason:
        return False, reason
    modulus = prep.lam - prep.lipschitz
    report = checks.shifted_convexity(
        prep.problem, prep.start, prep.lam, modulus, samples=300, seed=int(rng.integers(2**31))
    )
    return report.passed, _chord_detail(report)


def _check_sum_rule(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    obj = prep.problem.objective
    lam = max(prep.lam, 1.0)
    shifted = with_prox_term(obj, prep.start, lam)
    X = region_samples(prep.problem, 100, rng)
    # speed, then direction, one sample at a time: this order fixes the draws and so the report
    V = np.array([rng.uniform(0.5, 2.0) * random_unit_coords(obj.manifold, x, rng) for x in X])
    # np.max keeps a NaN, which fails the bound
    worst = float(np.max(checks.sum_rule_mismatch(obj, shifted, prep.start, lam, X, V)))
    return worst <= 1e-8, f"worst mismatch {worst:.3e} (bound 1e-8)"


def _check_usc(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    obj = prep.problem.objective
    v = random_unit_coords(obj.manifold, prep.start.coords, rng)
    # the 1e-3 bound is calibrated to the 1/k approach scale at n=1000
    report = oracle.usc_sampler(obj, prep.start, v, n=1000, seed=int(rng.integers(2**31)))
    return report.passed, f"tail gap {report.gap:.3e} (bound {report.tolerance})"


def _check_prox_vs_grid(
    prep: _Prepared, rng: np.random.Generator
) -> tuple[Optional[bool], str]:
    obj = prep.problem.objective
    m = obj.manifold
    if m.dim != 1:
        return None, "grid cross-check runs on one-dimensional problems only"
    reason = checks.weight_too_small(prep.lam, prep.lipschitz)
    if reason:
        return False, reason
    lower, upper = prep.problem.region_lower, prep.problem.region_upper
    lo, hi = float(lower[0]), float(upper[0])
    z_lo, z_hi = to_chart(Point(m, lower)), to_chart(Point(m, upper))
    grid = oracle.GridSpec(lower=np.array([lo + 1e-9]), upper=np.array([hi]), points_per_dim=5001)
    worst_pt, worst_val = 0.0, 0.0
    for _ in range(10):
        coords = from_chart_rows(m, rng.uniform(z_lo, z_hi))
        # keep the subproblem minimizer well inside the search box
        coords = np.clip(coords, lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        gap_pt, gap_val = checks.prox_grid_gaps(
            obj, Point(m, coords), prep.lam, prep.lipschitz, prep.pcfg, grid
        )
        worst_pt, worst_val = max(worst_pt, gap_pt), max(worst_val, gap_val)
    ok = worst_pt <= 1e-4 and worst_val <= 1e-8
    return ok, f"worst point gap {worst_pt:.3e} (1e-4), value gap {worst_val:.3e} (1e-8)"


def _check_dist_convexity(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    m = prep.problem.objective.manifold
    center = prep.start.coords
    report = oracle.geodesic_convexity_test(
        # float_power is the C pow of a float's ** 2
        lambda X: 0.5 * np.float_power(dist_rows(m, X, center), 2.0),
        m,
        samples=200,
        modulus=1.0,
        lower=prep.problem.region_lower,
        upper=prep.problem.region_upper,
        seed=int(rng.integers(2**31)),
    )
    return report.passed, _chord_detail(report)


def _check_subgrad_floor(
    prep: _Prepared, rng: np.random.Generator
) -> tuple[Optional[bool], str]:
    meta = prep.problem.metadata
    if not {"q", "c", "delta"} <= set(meta):
        return None, "no level-band metadata on this problem"
    obj = prep.problem.objective
    m = obj.manifold
    f_q, _ = eval_f(obj, Point(m, [meta["q"]]))
    c, delta = meta["c"], meta["delta"]
    X = region_samples(prep.problem, 400)
    f = eval_f_many(obj, X)
    band = X[(c < f) & (f <= f_q)]
    if len(band) == 0:
        return False, "no grid point landed in the level band"
    floor = min(min_norm_subgradient(clarke_subdiff(obj, Point(m, x)))[1] for x in band)
    return floor > delta, (
        f"min subgradient norm {floor:.6f} over {len(band)} band points (must exceed {delta})"
    )


def _check_solve_stationary(prep: _Prepared, rng: np.random.Generator) -> tuple[bool, str]:
    # the run the config describes: verify passes only configs that run passes
    if prep.sched is None:
        # the schedule rejected lambda: at or below the estimate, or above lambda_bar
        reason = checks.weight_too_small(prep.lam, prep.lipschitz)
        return False, reason or f"lambda {prep.lam} exceeds lambda_bar"
    trace = solve(prep.problem.objective, prep.start, prep.sched, prep.pcfg, prep.level_ref)
    term = trace.termination
    detail = f"{term.kind} after {trace.iterations} iterations"
    if term.message:
        detail += f": {term.message}"
    return term.kind == "stationary", detail


_CHECKS = [
    ("geometry_roundtrip", _check_geometry),
    ("fd_gradient", _check_fd_gradient),
    ("strong_convexity", _check_strong_convexity),
    ("sum_rule", _check_sum_rule),
    ("usc_sampler", _check_usc),
    ("prox_vs_grid", _check_prox_vs_grid),
    ("dist_convexity", _check_dist_convexity),
    ("subgrad_floor", _check_subgrad_floor),
    ("solve_stationary", _check_solve_stationary),
]


_STATUS_TAGS = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}


def verify(cfg: RunConfig, out_dir=None) -> int:
    """Run the verification battery for a config; returns 0 or 3."""
    prep = _prepare(cfg, validate_schedule=False)
    out = _resolve_out_dir(cfg, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    failed = []
    for i, (name, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng(cfg.seed + i)
        try:
            passed, detail = fn(prep, rng)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        status = "skipped" if passed is None else "pass" if passed else "fail"
        passed = status != "fail"
        results.append({"name": name, "passed": passed, "status": status, "detail": detail})
        if not passed:
            failed.append(name)
        print(f"[{_STATUS_TAGS[status]}] {name}: {detail}")
    payload = {
        "problem": prep.problem.name,
        "seed": cfg.seed,
        "lambda": prep.lam,
        "lipschitz_estimate": prep.lipschitz,
        "passed": not failed,
        "checks": results,
        "note": "sampled checks are evidence, not proofs",
    }
    (out / "verify.json").write_text(json.dumps(payload, indent=2) + "\n")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(args: tuple[str, str]) -> tuple[str, int, str]:
    config_path, out_dir = args
    try:
        cfg = load_config(config_path)
        summary = run(cfg, out_dir=out_dir)
        return Path(config_path).stem, exit_code_for(summary), summary.termination.kind
    except Exception as exc:
        return Path(config_path).stem, 1, f"{type(exc).__name__}: {exc}"


def sweep(configs_dir, out_root=None, jobs: int = 1) -> int:
    """Run every *.json config in a directory, each into its own subdirectory."""
    configs_dir = Path(configs_dir)
    paths = sorted(configs_dir.glob("*.json"))
    if not paths:
        print(f"no *.json configs found in {configs_dir}", file=sys.stderr)
        return 1
    root = Path(out_root) if out_root is not None else Path(
        os.environ.get(OUTPUT_ROOT_ENV, "proxmax_runs")
    ) / "sweep"
    root.mkdir(parents=True, exist_ok=True)
    tasks = [(str(p), str(root / p.stem)) for p in paths]
    if jobs > 1:
        # the pool starts all its workers at the first submit: no more than one per config
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    index = []
    for name, code, detail in results:
        print(f"{name}: exit {code} ({detail})")
        index.append({"config": name, "exit_code": code, "detail": detail})
    (root / "sweep_summary.json").write_text(json.dumps(index, indent=2) + "\n")
    codes = [code for _, code, _ in results]
    if any(c == 1 for c in codes):
        return 1
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxmax",
        description=(
            "Proximal point method for pointwise-maximum objectives. "
            f"Builtin problems: {', '.join(BUILTIN_NAMES)}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_verify = sub.add_parser("verify", help="run the verification battery")
    p_verify.add_argument("--config", required=True, help="path to a JSON run config")
    p_verify.add_argument("--out", default=None, help="output directory override")

    p_sweep = sub.add_parser("sweep", help="run every config in a directory")
    p_sweep.add_argument("--configs", required=True, help="directory of JSON configs")
    p_sweep.add_argument("--out", default=None, help="output root override")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            summary = run(load_config(args.config), out_dir=args.out)
            code = exit_code_for(summary)
            print(
                f"{summary.problem}: {summary.termination.kind} after "
                f"{summary.iterations} iterations, final point {summary.final_point}"
            )
            if summary.termination.message:
                print(summary.termination.message, file=sys.stderr)
            return code
        if args.command == "verify":
            return verify(load_config(args.config), out_dir=args.out)
        return sweep(args.configs, out_root=args.out, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
