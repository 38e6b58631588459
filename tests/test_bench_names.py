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


def test_only_core_and_stack_walk_the_prefix_tree():
    # generation and the output sweep yield words in lexicographic order
    # and so descend the prefix table `_children`; the census and law walks
    # descend the insertion tree (`census._edges`) and never read it
    reached = []
    for path in sorted((ROOT / "src" / "cayleysort").glob("*.py")):
        if path.stem in ("core", "stack"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                reached += [(path.stem, a.name) for a in node.names if a.name == "_children"]
            elif isinstance(node, ast.Attribute) and node.attr == "_children":
                reached.append((path.stem, node.attr))
    assert reached == []


def test_no_module_lists_patterns_by_index_subsets():
    # the package lists the proper patterns a word's member set rejects by
    # one-point deletions alone; `subpatterns`, the 2^n index-subset
    # enumeration, is public API and the tests' oracle, never a code path
    calls = []
    for path in sorted((ROOT / "src" / "cayleysort").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "subpatterns":
                    calls.append((path.stem, node.lineno))
    assert calls == []


def _private_definitions(stmt):
    """The module-level private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmt):
    """Names and attributes a statement reads (an import reads nothing)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_no_private_name_outlives_its_last_caller():
    # a private helper is there for the package; once no other statement
    # of the package reads it (tests and its own recursion do not count),
    # it is dead code
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "cayleysort").glob("*.py"))
    }
    statements = [(stem, stmt) for stem, tree in modules.items() for stmt in tree.body]
    unread = []
    for stem, stmt in statements:
        for name in _private_definitions(stmt):
            readers = [
                other for other_stem, other in statements
                if other is not stmt and name in _reads(other)
                and (other_stem == stem or _imports(modules[other_stem], stem, name))
            ]
            if not readers:
                unread.append((stem, name))
    assert unread == []


def _imports(tree, module, name):
    """Does `tree` import `name` from the sibling module `module`, or the
    module itself (and so may read `module.name`)?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module and any(a.name == name for a in node.names):
                return True
            if node.module is None and any(a.name == module for a in node.names):
                return True
    return False
