"""Every top-level name and public method in ``src/carlab`` has a reader.

A module-level function, class or constant is kept only when another
definition in the package refers to it, or when the benchmark's tracer
wraps it by name (`bench/tracing.py`'s ``TARGETS``).  A public method of a
top-level class is kept only when a definition in the package other than
its own, or a file under ``bench/``, reads its name, or when the tracer
wraps it.  A name that nothing reads is dead code: delete it, or give it a
caller.
"""
import ast
import importlib.util
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "carlab"
_BENCH = _ROOT / "bench"
_TRACING = _BENCH / "tracing.py"

# Test oracles without a caller in the package: the sphere-area closed form
# is what the pullback pairing tests compare against, and conjugate
# reflection is the exact lattice duality the normest and spectral duality
# tests apply.
_KEEP = {"sphere_area", "conjugate_reflect"}


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
        if name not in _KEEP and name not in traced
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
