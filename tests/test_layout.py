"""The package's import structure, read from its source with ``ast``.

Every import sits at module level, but ``csv``'s in ``cli._to_csv``, and
names the standard library or the package itself, the package-relative
imports between the modules of ``src/hmdft`` form no cycle, no JSON text is
written with an ``indent``, which sends CPython's encoder down its
pure-Python path, and no module reads the environment.  Every name the
benchmark's span tracer (``perfbench/tracing.py``) wraps is bound in the
package, and the benchmark's own self-test (``perfbench/check_smoke.py``)
passes.  The records are immutable ``collections.namedtuple`` subclasses
(``SupportSet`` a slotted class), and the CLI takes its string encoder from
``_json``, so importing it loads no ``dataclasses``, ``typing`` or ``json``
and none of the modules ``dataclasses`` imports; it reads argv against its
own table and imports ``csv`` for csv output alone, so it loads no
``argparse``, ``gettext``, ``locale`` or ``csv`` either.  The ``FieldCtx``
constructor sets every slot, and the field holds its Zech table exactly
where its adder reads one.  Every name the package exports is used by some
other module of it, and every public method and property of its classes is
read by some code outside its own def, or is allow-listed with the reason it
stays; every module-level private function and class is read somewhere in
the package outside its own def, so no private helper outlives its callers.
The package defines one exception class, ``gf.SizeCapError``, a
direct subclass of ValueError, and every ``raise`` names it or a builtin
exception.
"""

import ast
import builtins
import importlib
import importlib.util
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import hmdft
from hmdft import (
    FieldCtx,
    PolyFq,
    SupportSet,
    SweepConfig,
    Verdict,
    build_root_indicator,
    make_field,
    support_degree_test,
    sweep,
    verify_period_claims,
)

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


# (module, function, imported module): an import only one output format needs
DEFERRED_IMPORTS = {("cli", "_to_csv", "csv")}  # csv imports re; --format csv alone uses it


def test_no_import_inside_a_function():
    found = set()
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Import):
                        found.update((name, fn.name, a.name) for a in node.names)
                    elif isinstance(node, ast.ImportFrom):
                        found.add((name, fn.name, node.module))
    assert found == DEFERRED_IMPORTS


def test_imports_name_the_standard_library_alone():
    # the package has no runtime dependency: every absolute import is stdlib
    seen, found = set(), []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            seen.update(modules)
            found += [f"{name}.py:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert {"array", "itertools", "math"} <= seen  # the walk sees the imports
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


def test_grid_rule_lives_in_the_harness_alone():
    # the CLI hands its grid to harness.sweep, whose one check decides which
    # (q, n, w, c) it holds: no size limit named and no fits/weights call
    found = []
    for node in ast.walk(_trees()["cli"]):
        name = node.id if isinstance(node, ast.Name) else \
            node.name if isinstance(node, ast.alias) else \
            node.attr if isinstance(node, ast.Attribute) else None
        called = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("weights", "fits")
        if name in ("MODULUS_GUARD", "FIELD_ORDER_CAP") or called:
            found.append(f"cli.py:{node.lineno}")
    assert found == []


def _emit_sites(tree):
    """Each read of cli's ``_emit``: (its top-level def, whether a try body holds it)."""
    owner, guarded = {}, set()
    for top in tree.body:
        for node in ast.walk(top):
            owner[id(node)] = getattr(top, "name", None)
            if isinstance(node, ast.Try):
                guarded.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return sorted((owner[id(node)], id(node) in guarded) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_emit")


def test_output_is_written_by_main_alone():
    # handlers return (payload, exit code); main writes the payload once, in
    # the try that turns a failed --out write into exit 2
    assert _emit_sites(_trees()["cli"]) == [("main", True)]


def test_emit_site_check_catches_a_planted_call():
    tree = _trees()["cli"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs["_cmd_delta"].body.insert(0, ast.parse("_emit({}, 'text', None)").body[0])
    assert _emit_sites(tree) == [("_cmd_delta", False), ("main", True)]
    # a second write in main, outside its try, is caught too
    tree = _trees()["cli"]
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    main.body.insert(-1, ast.parse("_emit({}, 'text', None)").body[0])
    assert _emit_sites(tree) == [("main", False), ("main", True)]


ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_environment_reads():
    # every report is a function of argv alone: no module reads os.environ,
    # calls os.getenv or imports either from os
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and ENV_NAMES & {alias.name for alias in node.names}):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def _name_of(node):
    """The name an expression ends in (``x`` or ``m.x``), or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _builtin_exception(name):
    obj = getattr(builtins, name or "", None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _exception_classes(trees):
    """{module.Class: base names} of each class in the package whose bases
    name a builtin exception or another such class of the package."""
    classes = {f"{name}.{node.name}": [_name_of(b) for b in node.bases]
               for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    found = {}
    while True:
        own = {key.rpartition(".")[2] for key in found}
        more = {key: bases for key, bases in classes.items() if key not in found
                and any(_builtin_exception(b) or b in own for b in bases)}
        if not more:
            return found
        found.update(more)


def _foreign_raises(trees):
    """Each ``raise`` in the package that names neither a builtin exception
    nor ``SizeCapError``, as module.py:line name."""
    return [f"{name}.py:{node.lineno} {_name_of(node.exc)}"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and not (_builtin_exception(_name_of(node.exc))
                     or _name_of(node.exc) == "SizeCapError")]


def test_one_exception_class_and_builtin_raises():
    # a refusal is a plain ValueError named by its message; the one subclass
    # marks a size refusal, which a sweep turns into a skipped row
    trees = _trees()
    assert _exception_classes(trees) == {"gf.SizeCapError": ["ValueError"]}
    assert hmdft.gf.SizeCapError.__bases__ == (ValueError,)
    assert _foreign_raises(trees) == []
    # no module is left for refusal types, and numtheory imports no package module
    assert "errors" not in trees
    assert _relative_imports(trees["numtheory"]) == set()


def test_exception_rule_catches_a_planted_class():
    trees = _trees()
    trees["cyclic"].body += ast.parse(
        "class Foo(ValueError):\n    pass\n"
        "class Bar(gf.SizeCapError):\n    pass\n"
        "def f(x):\n    if x:\n        raise Foo('x')\n    raise Bar").body
    assert _exception_classes(trees) == {"gf.SizeCapError": ["ValueError"],
                                         "cyclic.Foo": ["ValueError"],
                                         "cyclic.Bar": ["SizeCapError"]}
    assert sorted(found.split()[1] for found in _foreign_raises(trees)) == ["Bar", "Foo"]


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


def test_benchmark_smoke_check_passes():
    # the benchmark's self-test on its tiny workload: a changed smoke digest or
    # a traced name that no longer resolves fails here, not only in the
    # benchmark run; it writes to the git-ignored perfbench/out/ alone
    proc = subprocess.run([sys.executable, str(TRACING.with_name("check_smoke.py"))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke check passed")


def test_cli_import_loads_no_dataclasses():
    # -S too: no site hook may preload a module and hide the package's own imports
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hmdft.cli; "
            "print(*sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "hmdft.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                     "json", "argparse", "gettext", "locale", "csv", "hmdft.errors"} == set()


RECORDS = {
    "SupportSet": (lambda: SupportSet(15, (3, 5)), "members"),
    "PeriodReport": (lambda: verify_period_claims(2, 4, 1, 1), "r"),
    "SweepConfig": (lambda: SweepConfig(q_list=(2,), n_range=(2, 3)), "size_cap"),
    "SweepResult": (lambda: sweep(SweepConfig(q_list=(2,), n_range=(2, 2),
                                              with_witness=False)), "summary"),
    "Verdict": (lambda: Verdict("Proven", 3), "status"),
    "RootIndicator": (lambda: build_root_indicator(PolyFq(make_field(2, 1), [1, 1, 1]),
                                                             2, 2), "poly"),
    "SupportDegreeReport": (lambda: support_degree_test(SupportSet(15, (3, 5)), 2, 4),
                            "sufficient"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, field) == before


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 8), (2, 9), (2, 10), (2, 16),
                                 (2, 17), (7, 1), (3, 4)])
def test_field_constructor_sets_every_slot(p, m):
    # one field per adder: XOR, mod p and Zech, and characteristic 2 on both
    # sides of the walked and the doubled exp build and of the "H" and "I"
    # packings; no slot is ever left unset
    ctx = make_field(p, m)
    assert [slot for slot in FieldCtx.__slots__ if not hasattr(ctx, slot)] == []
    # characteristic 2 keeps the exp table packed as well, code for code
    if p == 2:
        assert type(ctx.packed_exp) is array
        assert ctx.packed_exp.typecode == ("H" if m <= 16 else "I")
        assert ctx.packed_exp.tolist() == list(ctx.exp)
    else:
        assert ctx.packed_exp is None
    # the Zech adder is the one whose closure holds the field's table
    cells = getattr(ctx.add_codes, "__closure__", None) or ()
    zech_adder = any(cell.cell_contents is ctx.zech for cell in cells)
    assert zech_adder == (p > 2 and m > 1)
    if zech_adder:
        assert type(ctx.zech) is tuple and len(ctx.zech) == ctx.order - 1
    else:
        assert ctx.zech is None


# exports no module of the package uses, each with the reason it stays
UNUSED_EXPORTS = {
    "compose_perm": "kept by a ROADMAP decision: period-invariance map of acceptance C6",
    "conv_power": "kept public by a ROADMAP decision: the tests' convolution-power oracle",
    "least_period": "pinned by name in perfbench/tracing.py's TRACED list",
    "pointwise_mul": "kept by a ROADMAP decision: the convolution theorem of acceptance C6",
    "reversal": "kept by a ROADMAP decision: period-invariance map of acceptance C6",
    "shift": "kept by a ROADMAP decision: period-invariance map of acceptance C6",
    "phi_rho": "kept by a ROADMAP decision: the digit permutations of acceptance C7",
    "support_degree_test": "kept by a ROADMAP decision: the support tests of acceptance C8",
    "sigma_eval": "the sigma_w values that acceptance C2 compares transforms with",
    "is_q_symmetric": "pinned by perfbench/tracing.py's TRACED list; the tests' dense "
                      "oracle for acceptance C7",
    "build_root_indicator": "pinned by perfbench/tracing.py (ROADMAP item 5 moves it)",
    "oracle_factor_degrees": "pinned by perfbench/checks.py (ROADMAP item 5 moves it)",
    "oracle_irreducible": "the Rabin oracle of the tests and of perfbench/checks.py",
}


def _package_exports(tree):
    """The names ``hmdft/__init__.py`` imports from the package's modules."""
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _package_uses(tree):
    """The package names one module uses.

    A bare name counts when the module binds it at top level, by a relative
    import or a def or class of its own, and reads it outside that name's own
    def; ``mod.name`` counts when ``mod`` is a package module it imports.  A
    local variable or an attribute of some other object that happens to share
    an export's name does not count.
    """
    modules, bound = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.asname or alias.name for alias in node.names}
            (bound if node.module else modules).update(names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id in bound and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _unused_exports(trees):
    used = set().union(*(_package_uses(tree) for name, tree in trees.items()
                         if name != "__init__"))
    return sorted(set(_package_exports(trees["__init__"])) - used)


def test_every_export_is_used_or_allow_listed():
    trees = _trees()
    assert len(_package_exports(trees["__init__"])) > 40  # the walk sees the exports
    assert _unused_exports(trees) == sorted(UNUSED_EXPORTS)


def test_unused_export_check_catches_a_planted_name():
    trees = _trees()
    trees["cyclic"].body.append(ast.parse("def planted(f):\n    return planted(f)").body[0])
    trees["__init__"].body.append(ast.parse("from .cyclic import planted").body[0])
    # its own recursive call is no use, nor a local or an attribute of that name
    trees["gf"].body.append(ast.parse("def g(x):\n    planted = x.planted\n    return planted").body[0])
    assert _unused_exports(trees) == sorted([*UNUSED_EXPORTS, "planted"])
    # a use from another module, bare or through the module, clears it
    for use in ("from .cyclic import planted\nplanted(1)",
                "from . import cyclic\ncyclic.planted(1)"):
        used = _trees()
        used["cyclic"].body += trees["cyclic"].body[-1:]
        used["__init__"].body += trees["__init__"].body[-1:]
        used["spectral"].body += ast.parse(use).body
        assert _unused_exports(used) == sorted(UNUSED_EXPORTS)


# public methods and properties no other code of the package reads, each with
# the reason it stays
UNUSED_METHODS = {
    "FieldCtx.element": "the range-checked constructor for codes from outside the "
                        "package; FieldElement(ctx, code) checks nothing",
    "FieldCtx.nth_root_of_unity": "the canonical root of exact order N for transforms "
                                  "on Z_N with N < order - 1; the CLI transforms only "
                                  "at N = order - 1",
    "Embedding.lift": "pinned by perfbench/checks.py",
}


def _unused_methods(trees):
    """Class.name of every public method or property no code outside its def reads.

    Public means no leading underscore, so dunders are out too.  A read is any
    ``obj.name`` load in the package, whatever ``obj`` is: an attribute of
    another object that shares the name counts as a use.
    """
    methods, reads = [], []

    def visit(node, cls, defs):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            if cls is not None and not node.name.startswith("_"):
                methods.append((f"{cls}.{node.name}", node.name, id(node)))
            cls, defs = None, defs | {id(node)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, defs))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, defs)

    for tree in trees.values():
        visit(tree, None, frozenset())
    return sorted(key for key, name, own in methods
                  if not any(attr == name and own not in defs for attr, defs in reads))


def test_every_public_method_is_used_or_allow_listed():
    assert _unused_methods(_trees()) == sorted(UNUSED_METHODS)


def test_unused_method_check_catches_a_planted_name():
    trees = _trees()
    field_ctx = next(node for node in trees["gf"].body
                     if getattr(node, "name", None) == "FieldCtx")
    # its own recursive call is no use, and neither is a store of that name
    field_ctx.body.append(ast.parse(
        "def planted(self):\n    self.x.planted = 1\n    return self.planted()").body[0])
    assert _unused_methods(trees) == sorted([*UNUSED_METHODS, "FieldCtx.planted"])
    # a read anywhere else clears it, even through another object
    trees["cli"].body += ast.parse("def g(args):\n    return args.planted").body
    assert _unused_methods(trees) == sorted(UNUSED_METHODS)


def _unread_private_defs(trees):
    """module.name of every module-level private function or class no code reads.

    A read is a load of the bare name, or of an attribute of that name, in any
    module of the package, outside the def of that name itself, so a recursive
    call is no read.
    """
    private = [(f"{module}.{node.name}", node.name, id(node))
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    reads = []

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs = defs | {id(node)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, defs))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, defs))
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    for tree in trees.values():
        visit(tree, frozenset())
    return sorted(key for key, name, own in private
                  if not any(read == name and own not in defs for read, defs in reads))


def test_every_private_def_is_read():
    trees = _trees()
    assert sum(node.name.startswith("_") for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)) > 30  # the walk sees the helpers
    assert _unread_private_defs(trees) == []


def test_unread_private_def_check_catches_a_planted_name():
    trees = _trees()
    # its own recursive call is no read, nor a store of that name
    trees["cyclic"].body += ast.parse(
        "def _planted(f):\n    f._planted = 1\n    return _planted(f)\n"
        "class _Planted:\n    pass").body
    assert _unread_private_defs(trees) == ["cyclic._Planted", "cyclic._planted"]
    # a read from another def, bare or through the module, clears it
    for use in ("def g(f):\n    return _planted(f), _Planted",
                "def g(f):\n    return cyclic._planted(f), cyclic._Planted"):
        used = _trees()
        used["cyclic"].body += trees["cyclic"].body[-2:]
        used["spectral"].body += ast.parse(use).body
        assert _unread_private_defs(used) == []
