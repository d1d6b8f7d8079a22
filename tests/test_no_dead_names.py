"""Every top-level name and public method in ``src/carlab`` has a reader,
every record field is read, and every setting has a caller that sets it.

A module-level function, class or constant is kept only when another
definition in the package refers to it, or when the benchmark's tracer
wraps it by name (`bench/tracing.py`'s ``TARGETS``).  A public method of a
top-level class is kept only when a definition in the package other than
its own, or a file under ``bench/``, reads its name, or when the tracer
wraps it.  A name that nothing reads is dead code: delete it, or give it a
caller.  Likewise a defaulted parameter, or a defaulted dataclass field,
that no call in the package or under ``bench/`` passes is a setting only
tests set: make it a constant, or delete it.  And a field of a dataclass or
``NamedTuple`` that no file under ``src/``, ``bench/`` or ``tests/`` reads
as an attribute is stored for nobody: delete it.
"""
import ast
import importlib.util
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "carlab"
_BENCH = _ROOT / "bench"
_TRACING = _BENCH / "tracing.py"


def _traced_attrs() -> set[str]:
    """``TARGETS``' attributes: ``"name"`` or ``"Class.method"``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return {target.attr for target in module.TARGETS}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _read(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, bare or as a module attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_top_level_name_has_a_reader():
    defs = []      # (module, name, index of the defining statement)
    reads = []     # (module, index, names read)
    for path in sorted(_SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for i, stmt in enumerate(body):
            reads.append((path.stem, i, _read(stmt)))
            defs.extend((path.stem, name, i) for name in _defined(stmt)
                        if not (name.startswith("__") and name.endswith("__")))
    traced = {attr.split(".")[0] for attr in _traced_attrs()}
    dead = sorted(
        f"{module}.{name}" for module, name, at in defs
        if name not in traced
        and not any(name in names for mod, i, names in reads
                    if (mod, i) != (module, at)))
    assert not dead, f"top-level names nothing reads: {dead}"


def test_every_public_method_has_a_reader():
    methods = []   # (module.Class.method, the defining node)
    units = []     # (node, names read): top-level statements and the
    #                statements of top-level class bodies, one unit each
    for path in sorted(_SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                units.append((stmt, _read(stmt)))
                continue
            for item in stmt.body:
                units.append((item, _read(item)))
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    methods.append((f"{path.stem}.{stmt.name}.{item.name}",
                                    item))
    bench_reads = set()
    for path in sorted(_BENCH.glob("*.py")):
        bench_reads |= _read(ast.parse(path.read_text(encoding="utf-8")))
    traced = _traced_attrs()
    dead = sorted(
        qual for qual, node in methods
        if node.name not in bench_reads
        and qual.split(".", 1)[1] not in traced
        and not any(node.name in names for unit, names in units
                    if unit is not node))
    assert not dead, f"public methods nothing reads: {dead}"


# Record fields kept without a reader: the two routes' second value and
# their distance, beside which ROADMAP item 9 puts the quadrature error.
_KEEP_FIELDS = {"PairingResult.rhs", "PairingResult.abs_err"}


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in node.bases)


def test_every_record_field_is_read():
    fields = []    # Class.field of each dataclass and NamedTuple in src
    for path in sorted(_SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef) and (_is_dataclass(stmt)
                                                   or _is_named_tuple(stmt)):
                fields.extend(f"{stmt.name}.{item.target.id}"
                              for item in stmt.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    attrs = set()
    for path in sorted(_SRC.glob("*.py")) + sorted(_BENCH.glob("*.py")) \
            + sorted((_ROOT / "tests").glob("*.py")):
        attrs |= {node.attr for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    stale = _KEEP_FIELDS - set(fields)
    assert not stale, f"kept fields that no longer exist: {stale}"
    unread = sorted(f for f in fields if f not in _KEEP_FIELDS
                    and f.split(".")[1] not in attrs)
    assert not unread, f"record fields nothing reads: {unread}"


# Defaulted settings kept without a caller that sets them, with the reason.
_KEEP_SETTINGS = {
    # the n = 64/128 agreement behind ROADMAP item 4's sweep, which runs
    # the witness at n = 64
    "knapp_witness.n",
    # the sphere rule's exactness degree, which the pairing tests raise
    "sphere_integral.level",
    # the lattice window and the half-cell shift off the degenerate set,
    # which the symbol and norm tests choose per case
    "default_grid.freq_span",
    "default_grid.for_full_symbol",
    # the command line itself when None; tests pass their own
    "main.argv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settings(path: pathlib.Path):
    """``(label, callee, index, name)`` per defaulted parameter of a
    top-level function or non-dunder method, and per defaulted init field
    of a top-level dataclass; ``index`` is the position a call fills it at
    (after ``self``/``cls``), None for a keyword-only parameter."""
    def of_function(fn: ast.FunctionDef, owner: str | None):
        args = fn.args.posonlyargs + fn.args.args
        if owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list):
            args = args[1:]
        prefix = f"{owner}.{fn.name}" if owner else fn.name
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first:], start=first):
            yield f"{prefix}.{arg.arg}", fn.name, i, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{prefix}.{arg.arg}", fn.name, None, arg.arg

    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.FunctionDef):
            yield from of_function(stmt, None)
        elif isinstance(stmt, ast.ClassDef):
            fields = [item for item in stmt.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and "ClassVar" not in ast.unparse(item.annotation)]
            if _is_dataclass(stmt):
                for i, item in enumerate(fields):
                    if item.value is not None:
                        yield (f"{stmt.name}.{item.target.id}", stmt.name, i,
                               item.target.id)
            for item in stmt.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield from of_function(item, stmt.name)


def _calls(tree: ast.AST):
    """``(callee, positional count, keywords, splats)`` per call; a call
    through ``cls`` names its class, and ``splats`` says whether it
    unpacks ``*args`` or ``**kwargs``."""
    def walk(node, cls_name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) \
                else cls_name
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    callee = cls_name if func.id == "cls" else func.id
                elif isinstance(func, ast.Attribute):
                    callee = func.attr
                else:
                    callee = None
                keywords = {kw.arg for kw in child.keywords if kw.arg}
                splats = (any(isinstance(a, ast.Starred) for a in child.args)
                          or any(kw.arg is None for kw in child.keywords))
                yield callee, len(child.args), keywords, splats
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_every_defaulted_parameter_is_passed():
    calls = []
    for path in sorted(_SRC.glob("*.py")) + sorted(_BENCH.glob("*.py")):
        calls.extend(_calls(ast.parse(path.read_text(encoding="utf-8"))))
    # dataclasses.replace sets fields by keyword on any dataclass
    replaced = {kw for callee, _, kws, _ in calls if callee == "replace"
                for kw in kws}
    settings = [s for path in sorted(_SRC.glob("*.py"))
                for s in _settings(path)]
    stale = _KEEP_SETTINGS - {label for label, *_ in settings}
    assert not stale, f"kept settings that no longer exist: {stale}"
    unset = sorted(
        label for label, callee, index, name in settings
        if label not in _KEEP_SETTINGS and name not in replaced
        and not any(c == callee and (name in kws or splat
                                     or (index is not None and n > index))
                    for c, n, kws, splat in calls))
    assert not unset, f"settings no src or bench call sets: {unset}"
