"""The benchmark's tracer wraps cayleysort functions by module and name;
every name it wraps must exist, or a traced run fails at start-up."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _boundaries()])
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(f"cayleysort.{module}"), attr)


def _pinned_imports():
    """(module, name) for every name a cayleysort module imports under
    `# noqa: F401`, that is, without using it."""
    pinned = []
    for path in sorted((ROOT / "src" / "cayleysort").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.end_lineno - 1]:
                pinned += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return pinned


def test_pinned_imports_are_traced():
    # a name is imported unused only so that the tracer can wrap it there;
    # one the tracer does not wrap is dead, and one it wraps must stay
    pinned = _pinned_imports()
    traced = {(module, attr) for module, attr, _, _ in _boundaries()}
    assert pinned
    assert [name for name in pinned if name not in traced] == []


MACHINE_INTERNALS = {"_pops", "_accept"}


def test_only_stack_knows_how_a_machine_pops():
    # how a machine pops and what sorted means live in stack alone; other
    # modules reach them through Machine, _run_word or the walks' one _step
    reached = []
    for path in sorted((ROOT / "src" / "cayleysort").glob("*.py")):
        if path.name == "stack.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                reached += [(path.stem, a.name) for a in node.names if a.name in MACHINE_INTERNALS]
            elif isinstance(node, ast.Attribute) and node.attr in MACHINE_INTERNALS:
                reached.append((path.stem, node.attr))
    assert reached == []
