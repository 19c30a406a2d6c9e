"""Smoke self-test of the benchmark, with tiny op counts (about a minute).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every listed workload, that a product_n4 failure is counted rather than
dropped, and that the benchmark refuses to report from a directory that
holds only BENCHMARK.json and perfbench/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(HERE))
from run import OUT_ROOT, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(workload: str, trace: int, seconds: str = "0.5") -> tuple[dict, list[str]]:
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


def check_metrics(result: dict, spec: list[dict], where: str, problems: list[str]) -> None:
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted is {result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
    for k, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: metric {k} is {v!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    listed = [w["name"] for w in spec["workloads"]]
    expected = [w.name for w in WORKLOADS.values() if w.listed]
    if listed != expected:
        problems.append(f"BENCHMARK.json lists {listed}, run.py marks {expected} as listed")

    for name in listed:
        res, _ = result_of(name, 0)
        check_metrics(res, spec["end_to_end"], f"{name} trace 0", problems)
        if not (res["correct"] and res["failed"] == 0):
            problems.append(f"{name}: {res['failed']} of {res['attempted']} ops failed")
        if any(v["value"] <= 0 for v in res["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive: {res['metrics']}")
        res, _ = result_of(name, 1)
        check_metrics(res, spec["per_layer"], f"{name} trace 1", problems)
        print(f"checked {name}: {len(problems)} problems so far")

    # the known product_n4 defect must show up as counted failures
    res, lines = result_of("product_n4", 0)
    if not (res["attempted"] >= 1 and res["failed"] == res["attempted"] and res["correct"] is False):
        problems.append(f"product_n4: failures not counted: {res}")
    share = [ln.split() for ln in lines if ln.strip().startswith("failed_share")]
    if not share or float(share[0][1]) != 1.0:
        problems.append(f"product_n4: failed_share line reads {share}")
    res, _ = result_of("product_n4", 1)
    m = res["metrics"]
    if m["prox.inner_cap_errors"]["value"] != m["trace.ops"]["value"]:
        problems.append(f"product_n4: {m['prox.inner_cap_errors']} cap errors for {m['trace.ops']} ops")
    print(f"checked product_n4: {len(problems)} problems so far")

    # a directory without the program must not produce a result
    bare = OUT_ROOT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = bench("--workload", listed[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                            cwd=bare, script=bare / HERE.name / "run.py")
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            problems.append(f"bare directory: exit {proc.returncode}, last line {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
