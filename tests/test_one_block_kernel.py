"""Both lattice norm paths share one blocked transform-and-sum kernel.

In ``normest``, `_space_pass` is the only function that transforms blocks
of cross-sections.  The power iteration (`power_method`) transforms its
live τ-lines around it; a Knapp witness's norm (`_radial_norm`) maps its
coefficients to one cross-section per radius by a matrix product and
transforms nothing itself.  A function outside these two that calls,
names or imports ``np.fft`` has started a second kernel, with its own
block loop, size guard and power sum.
"""
import ast
import pathlib

_NORMEST = (pathlib.Path(__file__).resolve().parents[1] / "src" / "carlab"
            / "normest.py")

#: the functions that may reach ``np.fft``
_TRANSFORMERS = {"_space_pass", "power_method"}
#: the per-axis padding kernel the hull norm used to run on, and the
#: Cartesian hull norm that `_radial_norm` replaced
_GONE = ("_pad_ifft", "_hull_norm")


def _reaches_fft(node: ast.AST) -> bool:
    """``node`` names a function of ``np.fft`` (called or not: a conditional
    callee or an alias counts) or imports ``numpy.fft`` or a name from it."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Attribute) \
            and node.value.attr == "fft"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["numpy", "fft"]
                   for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.fft" or (
            node.module == "numpy" and any(a.name == "fft"
                                           for a in node.names))
    return False


def _fft_callers(source: str) -> dict[str, list[int]]:
    """Per top-level function (``""`` outside any), the sorted lines of
    ``source``'s references to ``np.fft``, one entry per reference."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if _reaches_fft(node):
                found.setdefault(name, []).append(node.lineno)
    return {name: sorted(lines) for name, lines in found.items()}


def _defines(source: str, name: str) -> bool:
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(ast.parse(source)))


def test_the_scan_finds_every_fft_call_and_where_it_is():
    source = ("import numpy as np\n"
              "def a(x):\n"
              "    return np.fft.ifft(x)\n"
              "def b(x):\n"
              "    def inner(y):\n"
              "        return np.fft.fftn(y, axes=(1,))\n"
              "    return inner(x)\n"
              "c = np.fft.fftfreq(4)\n"
              "d = np.abs(c)\n"
              "def e(x, inv):\n"
              "    return (np.fft.ifft if inv else np.fft.fft)(x)\n"
              "def g(x):\n"
              "    f = np.fft.fft\n"
              "    return f(x)\n"
              "def h(x):\n"
              "    import numpy.fft\n"
              "    from numpy.fft import rfft\n"
              "    from numpy import fft\n"
              "    return rfft(x)\n"
              "import numpy.fft as npfft\n")
    assert _fft_callers(source) == {"a": [3], "b": [6], "": [8, 20],
                                    "e": [11, 11], "g": [13],
                                    "h": [16, 17, 18]}
    assert _defines(source, "inner") and not _defines(source, "c")


def test_normest_transforms_blocks_in_one_kernel():
    source = _NORMEST.read_text(encoding="utf-8")
    callers = _fft_callers(source)
    assert "_space_pass" in callers
    assert set(callers) <= _TRANSFORMERS, callers
    assert not any(_defines(source, name) for name in _GONE)
