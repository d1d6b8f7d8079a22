"""No reduction on carlab's product path calls a threaded BLAS kernel.

OpenBLAS splits a long ``ddot``, ``dgemv`` or ``dgemm`` across worker
threads (a ``ddot`` above 10,000 elements).  The split sum rounds
differently from the serial one, so a result would depend on the core
count and ``OPENBLAS_NUM_THREADS``; and after each call the worker spins
on a second core, burning CPU time that buys no wall time.  So carlab
reduces with ``np.einsum`` (numpy's own loops, as long as it is not asked
to ``optimize``), ``np.sum`` and ``math``.  This scan finds every
BLAS-backed call in ``src/carlab`` and fails on any outside `_ALLOWED`,
each of whose entries names the size that keeps OpenBLAS on one thread.
"""
import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "carlab"

#: numpy functions (or array methods) that reach BLAS; every name under
#: ``linalg`` does too
_BLAS_FUNCS = {"dot", "vdot", "vecdot", "inner", "matmul", "tensordot",
               "polyfit"}

#: (module file, top-level definition, call) -> why it stays on one thread
_ALLOWED = {
    ("identities.py", "sphere_integral", "@"):
        "a ddot over the sphere nodes: at most 3,456 at the default level 12",
    ("normest.py", "fit_scaling", "polyfit"):
        "a least-squares line through a dozen points at most",
    ("acceptance.py", "_a7_moment_bounds", "polyfit"):
        "a least-squares line through one point per eps of A7",
    ("identities.py", "eval_field_at_points", "@"):
        "test-only, off the product path (ROADMAP item 8)",
}


def _call_name(node: ast.AST) -> str | None:
    """The BLAS-backed call ``node`` makes, if any: ``"@"``, a name of
    `_BLAS_FUNCS`, ``"linalg.<name>"`` or ``"einsum(optimize)"``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) \
            and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.ImportFrom) and node.module \
            and node.module.startswith("numpy"):
        names = {alias.name for alias in node.names}
        if "linalg" in node.module or "linalg" in names \
                or names & _BLAS_FUNCS:
            return "import"
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return None
    attr, owner = node.func.attr, node.func.value
    if isinstance(owner, ast.Attribute) and owner.attr == "linalg":
        return f"linalg.{attr}"
    if attr in _BLAS_FUNCS:
        return attr
    if attr == "einsum" and any(
            kw.arg == "optimize" and not (isinstance(kw.value, ast.Constant)
                                          and kw.value.value is False)
            for kw in node.keywords):
        return "einsum(optimize)"
    return None


def _blas_calls(source: str) -> dict[tuple[str, str], list[int]]:
    """Per (top-level definition, ``""`` outside any; call), the lines on
    which ``source`` makes a BLAS-backed call."""
    found: dict[tuple[str, str], list[int]] = {}
    for top in ast.parse(source).body:
        name = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            call = _call_name(node)
            if call is not None:
                found.setdefault((name, call), []).append(node.lineno)
    return found


def test_the_scan_finds_every_blas_call_and_where_it_is():
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "def a(x):\n"
              "    return float(np.linalg.norm(x)) + x @ x\n"
              "class B:\n"
              "    def f(self, x):\n"
              "        x @= x\n"
              "        return x.dot(x) + np.vdot(x, x) + np.inner(x, x)\n"
              "def c(x, y):\n"
              "    return (np.einsum('i,i->', x, y, optimize=True)\n"
              "            + np.einsum('i,i->', x, y, optimize=False)\n"
              "            + np.einsum('i,i->', x, y) + np.sum(x * y))\n"
              "d = np.polyfit([0, 1], [1, 2], 1) + np.matmul(1, 1)\n")
    assert _blas_calls(source) == {
        ("", "import"): [2], ("a", "linalg.norm"): [4], ("a", "@"): [4],
        ("B", "@"): [7], ("B", "dot"): [8], ("B", "vdot"): [8],
        ("B", "inner"): [8], ("c", "einsum(optimize)"): [10],
        ("", "polyfit"): [13], ("", "matmul"): [13]}


def test_the_product_path_calls_blas_only_where_allowed():
    found = {(path.name, name, call): lines
             for path in sorted(_SRC.glob("*.py"))
             for (name, call), lines in _blas_calls(
                 path.read_text(encoding="utf-8")).items()}
    assert set(found) <= set(_ALLOWED), {
        site: lines for site, lines in found.items() if site not in _ALLOWED}
    # an entry whose call has gone is stale
    assert set(_ALLOWED) <= set(found), set(_ALLOWED) - set(found)
