"""A traced run and verify through the benchmark's span tracer end cleanly and count hull work."""

import importlib.util
import json
from pathlib import Path

from proxmax import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_traced_run_and_verify_on_paper_example(tmp_path):
    config = tmp_path / "paper.json"
    config.write_text(json.dumps({"problem": "paper_example"}))
    tracer = _tracer()
    tracer.install()
    try:
        codes = [
            cli.main([command, "--config", str(config), "--out", str(tmp_path / command)])
            for command in ("run", "verify")
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.counters["active_generators"] > 0
    assert tracer.counters["hull_size_sum"] > 0
