"""The benchmark's span tracer patches proxmax functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("layer", sorted(_traced()))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"proxmax.{layer}")
    missing = [name for name in _traced()[layer] if not callable(getattr(module, name, None))]
    assert not missing, f"perfbench/spans.py traces proxmax.{layer}.{missing}, which do not exist"
