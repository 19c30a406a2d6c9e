"""Benchmark for proxmax: closed-loop ``proxmax run`` / ``proxmax verify`` ops.

One process, one caller, in a closed loop: each op writes its own generated
config (own ``seed``, own start point, on ``paper_example`` its own
``epsilon``) and calls the public entry point
``proxmax.cli.main([cmd, "--config", cfg, "--out", fresh_dir])`` in-process,
then the next op starts.  Op ``i`` of a workload draws its inputs from
``seed`` and ``i`` alone (see ``op_config``), so they do not depend on timing.

    python3 perfbench/run.py --workload half_line --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

``--trace 0`` times the ops with nothing patched and prints the end-to-end
metrics; ``--trace 1`` times them with span wrappers installed (see
spans.py) and prints the per-layer metrics.  ``--workload all`` runs every
workload, ``product_n4`` included, each in its own process, and prints the
metrics of each.  Human-readable lines come first; the last stdout line is
one JSON object with keys correct, attempted, failed and metrics.  Op
outputs, span dumps and a detailed result file go under ``.perfbench_out/``
in the checkout.  Exit status is non-zero only for the benchmark's own
errors: a failed op is timed, counted and reported, not raised.

Times are reported at reference speed.  On shared VMs, speed drifts by up
to 1.5x over seconds to minutes, which no run length averages out.  So a fixed calibration loop (``calibration_ms``, no
proxmax code) is timed between consecutive ops and, in untraced runs, every
``PROBE_INTERVAL_S`` inside an op (from a SIGALRM handler, its own time
taken out of the op's).  Each op's wall time is scaled by ``CALIB_REF_MS``
over the mean of the calibrations around and inside it.  Wall times are
printed and saved alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

CALIB_ITERS = 1000
CALIB_REF_MS = 10.0
PROBE_INTERVAL_S = 0.25
# set-up phase: at least SETUP_MIN_REPS set-ups and SETUP_MIN_SECONDS
SETUP_MIN_REPS = 9
SETUP_MIN_SECONDS = 1.0
TAIL_MIN_BEYOND = 10
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_proxmax():
    """Import proxmax from this checkout's src/, never from anywhere else."""
    if not (SRC / "proxmax" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no proxmax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxmax.cli

    if SRC not in Path(proxmax.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: proxmax imported from {proxmax.cli.__file__}, not {SRC}")
    return proxmax


def calibration_ms() -> float:
    """Wall ms of a fixed loop of small NumPy and interpreter work.

    The mix (tiny arrays, frozen copies, float conversions, dict churn)
    resembles proxmax's per-call overhead, so machine slowdowns hit both
    alike.  It must never change: every reported time is scaled by it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_ITERS):
        a = np.atleast_1d(np.asarray([1.0 + i * 1e-6], dtype=float)).copy()
        a.flags.writeable = False
        b = np.log(a / 0.5) * 2.0
        acc += float(np.sqrt(max(float(np.sum(b * b)), 0.0)))
        acc += {"k": i, "v": acc}["v"] * 1e-9 + math.exp(-i)
    return (time.perf_counter() - t0) * 1e3


class SpeedProbe:
    """Calibrations taken inside an op by a SIGALRM handler, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused_ms = 0.0

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_ms())
        self.paused_ms += (time.perf_counter() - t0) * 1e3

    @contextlib.contextmanager
    def armed(self):
        self.samples, self.paused_ms = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# workloads


# Each start_point is drawn from q in [0, 1): op i's q is the fractional part
# of u + i * GOLDEN, u drawn from the workload seed.  The ops of any run then
# cover the start range evenly, so a median over a few hundred ops does not
# wander with the draw.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_uniform(lo: float, hi: float, q: float) -> float:
    return float(np.exp(np.log(lo) + q * (np.log(hi) - np.log(lo))))


def _half_line_start(rng, q: float) -> list[float]:
    return [_log_uniform(0.13, 4.0, q)]


def _signed_abs_start(rng, q: float) -> list[float]:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return [sign * (50.0 + 250.0 * q)]


def _product_n4_start(rng, q: float) -> list[float]:
    return [_log_uniform(0.13, 4.0, v) for v in (q, *rng.random(3))]


def _no_params(rng) -> dict:
    return {}


def _paper_epsilon(rng) -> dict:
    # One-dimensional region samples are an even grid over (epsilon, 4) that
    # ignores the config seed, so epsilon is what gives each op its own
    # Lipschitz-estimate inputs.  (0.10, 0.125] stays below every start.
    return {"epsilon": 0.125 - 0.025 * rng.random()}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "verify"
    problem: dict  # the fixed part of the config's problem mapping
    draw_start: Callable  # (rng, q) -> start_point
    # op_ms_tail's percentile, fixed per workload so that a run's op count
    # cannot flip it.  It leaves >= 10 samples beyond it at 30 s runs, except
    # on verify_half_line.  half_line uses p75: its p90 is set by machine
    # hiccups, not inputs, and spread 9% across seeds
    tail_pct: float
    draw_params: Callable = _no_params  # rng -> drawn problem parameters
    listed: bool = True  # False: kept out of BENCHMARK.json (see README.md)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("half_line", "run", {"name": "paper_example"}, _half_line_start, 75.0, _paper_epsilon),
        Workload("abs_walk", "run", {"name": "abs"}, _signed_abs_start, 95.0),
        # about 7 ops in a 30 s run: too few for any tail, so p50 is reported
        Workload("verify_half_line", "verify", {"name": "paper_example"}, _half_line_start, 50.0,
                 _paper_epsilon),
        Workload(
            "product_n4",
            "run",
            {"name": "paper_example_product", "n": 4},
            _product_n4_start,
            50.0,
            listed=False,
        ),
    )
}


def op_config(workload: Workload, seed: int, i: int) -> dict:
    q = (np.random.default_rng(seed).random() + i * GOLDEN) % 1.0
    rng = np.random.default_rng([seed, i])
    start = workload.draw_start(rng, q)
    config_seed = int(rng.integers(2**31 - 1))
    return {
        "problem": {**workload.problem, **workload.draw_params(rng)},
        "start_point": start,
        "seed": config_seed,
    }


# ---------------------------------------------------------------------------
# ops and their checks


@dataclass
class OpResult:
    index: int
    tag: str
    ms: float
    code: int
    out: Path
    # calibration ms inside the op, then the loop adds the ones before and after
    calibrations: list[float] = field(default_factory=list)
    failure: str = ""
    trace_rows: int = 0
    bytes_written: int = 0

    @property
    def scale(self) -> float:
        return CALIB_REF_MS / statistics.fmean(self.calibrations) if self.calibrations else 1.0

    @property
    def ref_ms(self) -> float:
        return self.ms * self.scale


class OpRunner:
    """Writes each op's config and calls proxmax.cli.main on it."""

    def __init__(self, px, workload: Workload, seed: int, work_dir: Path) -> None:
        self.probe: SpeedProbe | None = SpeedProbe()  # None: no calibration inside ops
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        problem = px.problems.make_problem(workload.problem)
        self.minimizer = np.asarray(problem.metadata["minimizer"], dtype=float)
        self.log_chart = problem.objective.manifold.geometry.value == "log_positive"
        self.main = px.cli.main

    def run(self, i: int, tag: str) -> OpResult:
        cfg_path = self.work_dir / f"op{tag}{i}.json"
        out = self.work_dir / f"op{tag}{i}"
        cfg_path.write_text(json.dumps(op_config(self.workload, self.seed, i)))
        argv = [self.workload.command, "--config", str(cfg_path), "--out", str(out)]
        sink = io.StringIO()
        armed = self.probe.armed() if self.probe else contextlib.nullcontext()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), armed:
            t0 = time.perf_counter()
            code = self.main(argv)
            ms = (time.perf_counter() - t0) * 1e3
        res = OpResult(i, tag, ms, code, out)
        if self.probe:
            res.ms -= self.probe.paused_ms
            res.calibrations = self.probe.samples
        if code != 0:
            lines = sink.getvalue().strip().splitlines()
            res.failure = f"exit {code}: {lines[-1] if lines else ''}"
        return res

    def loop(self, tag: str, seconds: float = math.inf, count: int | None = None) -> list[OpResult]:
        """Ops 0, 1, 2, ... back to back, a calibration between each two.

        Stops after count ops, or once seconds have passed (at least one op).
        """
        ops: list[OpResult] = []
        deadline = time.perf_counter() + seconds
        before = calibration_ms()
        while not ops or (len(ops) < count if count is not None else time.perf_counter() < deadline):
            res = self.run(len(ops), tag)
            after = calibration_ms()
            res.calibrations = [before, *res.calibrations, after]
            before = after
            ops.append(res)
        return ops

    def _chart(self, x: np.ndarray) -> np.ndarray:
        return np.log(x) if self.log_chart else x

    def check(self, res: OpResult) -> None:
        """Per-op correctness check; records the first reason it fails."""
        files = [p for p in res.out.glob("*") if p.is_file()]
        res.bytes_written = sum(p.stat().st_size for p in files)
        wanted = ("verify.json",) if self.workload.command == "verify" else ("summary.json", "trace.csv")
        missing = [name for name in wanted if not (res.out / name).is_file()]
        if missing:
            res.failure = res.failure or f"no {', '.join(missing)} written"
            return
        if self.workload.command == "verify":
            report = json.loads((res.out / "verify.json").read_text())
            if not res.failure and report.get("passed") is not True:
                res.failure = "verify.json: passed is not true"
            return
        summary = json.loads((res.out / "summary.json").read_text())
        rows = (res.out / "trace.csv").read_text().splitlines()[1:]
        res.trace_rows = len(rows)
        if res.failure:
            return
        kind = summary["termination"]["kind"]
        final = np.asarray(summary["final_point"], dtype=float)
        gap = float(np.linalg.norm(self._chart(final) - self._chart(self.minimizer)))
        if kind != "stationary":
            res.failure = f"termination {kind}: {summary['termination']['message']}"
        elif not gap <= 1e-6:
            res.failure = f"final point {summary['final_point']} is {gap:.3e} from the minimizer"
        elif len(rows) != summary["iterations"]:
            res.failure = f"trace.csv has {len(rows)} rows for {summary['iterations']} iterations"


def setup_phase(px, workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """(reference s, wall s) per set-up: the calls run/verify make before their first step.

    Set-up k uses op k's config; a calibration runs between each two.
    """
    ref, wall = [], []
    deadline = time.perf_counter() + SETUP_MIN_SECONDS
    before = calibration_ms()
    while len(wall) < SETUP_MIN_REPS or time.perf_counter() < deadline:
        cfg = op_config(workload, seed, len(wall))
        t0 = time.perf_counter()
        problem = px.problems.make_problem(cfg["problem"])
        samples = px.problems.region_samples(problem, 64, np.random.default_rng(cfg["seed"]))
        px.objective.estimate_sup_lipschitz(problem.objective, samples)
        wall.append(time.perf_counter() - t0)
        after = calibration_ms()
        ref.append(wall[-1] * CALIB_REF_MS / (0.5 * (before + after)))
        before = after
    return ref, wall


# ---------------------------------------------------------------------------
# reporting


def tail(ms: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile and the number of samples strictly beyond it."""
    value = float(np.percentile(ms, pct))
    return value, sum(1 for m in ms if m > value)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "workload_seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (not a git checkout)"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, ops: list[OpResult], setup: tuple[list[float], list[float]]):
    """(metrics, printed lines, tail record) of an untraced run.

    ops_per_s is completed (not failed) ops over the summed scaled op time:
    the calibrations between ops are left out of the loop's time.
    """
    ref = [o.ref_ms for o in ops]
    wall = [o.ms for o in ops]
    failed = sum(1 for o in ops if o.failure)
    completed = len(ops) - failed
    tail_ms, beyond = tail(ref, workload.tail_pct)
    metrics = {
        "op_ms_p50": _metric(float(np.median(ref)), "ms"),
        "op_ms_tail": _metric(tail_ms, "ms"),
        "ops_per_s": _metric(1e3 * completed / sum(ref), "1/s"),
        "setup_s": _metric(statistics.median(setup[0]), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    few = "" if beyond >= TAIL_MIN_BEYOND else f"; fewer than {TAIL_MIN_BEYOND}"
    notes = {
        "op_ms_p50": f"wall {np.median(wall):.6g} ms",
        "op_ms_tail": f"p{workload.tail_pct:g}, {beyond} of {len(ref)} beyond it{few}; "
                      f"wall {np.percentile(wall, workload.tail_pct):.6g} ms",
        "ops_per_s": f"{completed} completed; wall {1e3 * completed / sum(wall):.6g} 1/s",
        "setup_s": f"median of {len(setup[0])}; wall {statistics.median(setup[1]):.6g} s",
    }
    lines = [f"  {k:<14} {v['value']:.6g} {v['unit']}" + (f"  ({notes[k]})" if k in notes else "")
             for k, v in metrics.items()]
    lines.append(f"  {'failed_share':<14} {failed / len(ops):.6g} ratio  ({failed} of {len(ops)} ops)")
    return metrics, lines, {"percentile": workload.tail_pct, "beyond": beyond, "ops": len(ops)}


def per_layer(bd, ops: list[OpResult], plain: list[OpResult], cap_errors: int, counters) -> dict:
    n = len(ops)
    m: dict = {}

    def add(name: str, value: float, unit: str) -> None:
        m[name] = _metric(float(value), unit)

    add("problems.make_problem.ms", bd.incl_ms("problems.make_problem") / n, "ms/op")
    add("problems.region_samples.ms", bd.incl_ms("problems.region_samples") / n, "ms/op")
    add("objective.estimate_sup_lipschitz.ms", bd.incl_ms("objective.estimate_sup_lipschitz") / n, "ms/op")
    for fn in ("eval_f", "clarke_subdiff", "min_norm_subgradient"):
        add(f"objective.{fn}.calls", bd.calls_of(f"objective.{fn}") / n, "calls/op")
        add(f"objective.{fn}.ms", bd.incl_ms(f"objective.{fn}") / n, "ms/op")
    qp = bd.calls_of("objective.min_norm_subgradient")
    add("objective.hull_size.mean", counters["hull_size_sum"] / qp if qp else 0.0, "generators")
    branch = bd.calls_of("objective.branch")
    add("objective.branch.calls", branch / n, "calls/op")
    add("objective.branch_grad.calls", bd.calls_of("objective.branch_grad") / n, "calls/op")
    add("objective.branch.us_per_call", bd.incl_ms("objective.branch") * 1e3 / branch if branch else 0.0, "us")
    scanned = counters["branches_scanned"]
    add("objective.active_share", counters["active_generators"] / scanned if scanned else 0.0, "ratio")

    outer = bd.calls_of("prox.prox_step")
    add("prox.solve.ms", bd.self_of("prox.solve") / n, "ms/op")
    add("prox.prox_step.calls", outer / n, "calls/op")
    add("prox.prox_step.ms", bd.incl_ms("prox.prox_step") / n, "ms/op")
    add("prox.inner_solve.ms", bd.incl_ms("prox.inner_solve") / n, "ms/op")
    add("prox.inner_steps", bd.inner_steps / n, "steps/op")
    add("prox.inner_per_outer", bd.inner_steps / outer if outer else 0.0, "steps")
    add("prox.inner_cap_errors", cap_errors, "count")

    for fn in ("exp_map", "log_map", "dist", "transport"):
        add(f"manifold.{fn}.calls", bd.calls_of(f"manifold.{fn}") / n, "calls/op")
    add("manifold.ms", bd.layer_ms.get("manifold", 0.0) / n, "ms/op")
    for fn in ("grid_minimize", "geodesic_convexity_test", "usc_sampler", "fd_gradient"):
        add(f"oracle.{fn}.calls", bd.calls_of(f"oracle.{fn}") / n, "calls/op")
        add(f"oracle.{fn}.ms", bd.incl_ms(f"oracle.{fn}") / n, "ms/op")

    cli_self = sum(bd.self_of(f"cli.{fn}") for fn in ("main", "run", "verify"))
    add("cli.self.ms", cli_self / n, "ms/op")
    add("cli.trace_rows", sum(o.trace_rows for o in ops) / n, "rows/op")
    add("cli.bytes_written", sum(o.bytes_written for o in ops) / n, "bytes/op")

    traced_p50 = float(np.median([o.ref_ms for o in ops]))
    add("trace.ops", n, "count")
    add("trace.spans", bd.spans / n, "spans/op")
    add("trace.op_ms_p50", traced_p50, "ms")
    add("trace.overhead_ms", traced_p50 - float(np.median([o.ref_ms for o in plain])), "ms")
    return m


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> int:
    px = _import_proxmax()
    env = environment(seed)
    print("env: " + json.dumps(env, sort_keys=True))
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = OUT_ROOT / f"ops-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    runner = OpRunner(px, workload, seed, work_dir)
    tail_record = None
    calibration_ms()  # warm-up, discarded
    try:
        if not traced:
            setup = setup_phase(px, workload, seed)
            ops = runner.loop("", seconds)
            for o in ops:
                runner.check(o)
            metrics, lines, tail_record = end_to_end(workload, ops, setup)
            all_ops = ops
        else:
            from spans import Tracer

            tracer = Tracer()
            runner.probe = None  # a handler inside an op would land in its spans
            tracer.install()
            runner.main = tracer.wrap("cli.main", px.cli.main)
            try:
                ops = runner.loop("", seconds / 2)
            finally:
                tracer.uninstall()
                runner.main = px.cli.main
            # the same ops again, untraced, for the tracing overhead
            plain = runner.loop("plain", count=len(ops))
            for o in ops + plain:
                runner.check(o)
            bd = tracer.breakdown([o.scale for o in ops])
            cap = tracer.errors[("prox.prox_step", "InnerCapError")]
            metrics = per_layer(bd, ops, plain, cap, tracer.counters)
            lines = [f"  {k:<40} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
            lines.append("  top self time (ms/op): " + ", ".join(
                f"{name} {ms / len(ops):.3g}" for name, ms in bd.top_self(8)))
            tracer.save(OUT_ROOT / f"spans_{workload.name}_seed{seed}.npz")
            all_ops = ops + plain
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [o for o in all_ops if o.failure]
    print(f"workload {workload.name}: {workload.command} {json.dumps(workload.problem)}, "
          f"{len(all_ops)} ops, {len(failed)} failed" + (" (traced run)" if traced else ""))
    for line in lines:
        print(line)
    for o in failed[:3]:
        print(f"  op {o.tag}{o.index} failed: {o.failure}")
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "trace": int(traced),
        "seconds": seconds,
        "env": env,
        **({"op_ms_tail": tail_record} if tail_record else {}),
        "ops": [{"op": f"{o.tag}{o.index}", "wall_ms": o.ms, "ref_ms": o.ref_ms,
                 "calibration_ms": o.calibrations, "failure": o.failure} for o in all_ops],
        **result,
    }
    (OUT_ROOT / f"result_{workload.name}_seed{seed}_trace{int(traced)}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(seed: int, seconds: float, traced: bool) -> int:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
