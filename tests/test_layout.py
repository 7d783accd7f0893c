"""The package's import structure, read from its source with ``ast``.

Every import sits at module level, the package-relative imports between the
modules of ``src/hmdft`` form no cycle, and no JSON text is written with an
``indent``, which sends CPython's encoder down its pure-Python path.  Every
name the benchmark's span tracer (``perfbench/tracing.py``) wraps is bound in
the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import hmdft

SRC = Path(hmdft.__file__).parent
TRACING = SRC.parents[1] / "perfbench" / "tracing.py"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _relative_imports(tree):
    """Modules named by the module-level ``from .x import`` and ``from . import x``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _cycle(edges):
    """One cycle of the graph as a list of nodes, or None."""
    state = {}  # absent: unvisited, 1: on the current path, 2: done

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(edges.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = 2
        return None

    for node in sorted(edges):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_imports_form_no_cycle():
    edges = {name: _relative_imports(tree) for name, tree in _trees().items()}
    assert edges["spectral"] >= {"cyclic", "gf", "numtheory"}  # the walk sees the edges
    assert _cycle(edges) is None


def test_cycle_finder():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
    assert _cycle({"a": {"a"}}) == ["a", "a"]


def test_no_indented_json_encoding():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
                func = node.func
                fname = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if fname in ("dumps", "dump", "JSONEncoder"):
                    found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_traced_names_resolve():
    # Tracer.install() looks each name up and fails on the first missing one
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mod, fname) for mod, fname, _ in tracing.TRACED]
    names.append(("harness", "element_degree"))  # the witness-candidate counter
    assert len(names) > 10
    missing = [f"{mod}.{fname}" for mod, fname in names
               if not callable(getattr(importlib.import_module(f"hmdft.{mod}"), fname, None))]
    assert missing == []
