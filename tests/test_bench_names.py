"""The benchmark's tracer wraps cayleysort functions by module and name;
every name it wraps must exist, or a traced run fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _boundaries()])
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(f"cayleysort.{module}"), attr)
