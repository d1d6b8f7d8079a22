"""Both lattice norm paths share one blocked transform-and-sum kernel.

In ``normest``, `_space_pass` is the only function that transforms blocks
of cross-sections.  The power iteration (`power_method`) transforms its
live τ-lines around it; a Knapp witness's norm (`_radial_norm`) maps its
coefficients to one cross-section per radius by a matrix product and
transforms nothing itself.  A function outside these two that calls
``np.fft`` has started a second kernel, with its own block loop, size
guard and power sum.
"""
import ast
import pathlib

_NORMEST = (pathlib.Path(__file__).resolve().parents[1] / "src" / "carlab"
            / "normest.py")

#: the functions that may call ``np.fft``
_TRANSFORMERS = {"_space_pass", "power_method"}
#: the per-axis padding kernel the hull norm used to run on, and the
#: Cartesian hull norm that `_radial_norm` replaced
_GONE = ("_pad_ifft", "_hull_norm")


def _fft_callers(source: str) -> dict[str, list[int]]:
    """Per top-level function (``""`` outside any), the lines on which
    ``source`` calls a function of ``np.fft``."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "fft":
                found.setdefault(name, []).append(node.lineno)
    return found


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
              "d = np.abs(c)\n")
    assert _fft_callers(source) == {"a": [3], "b": [6], "": [8]}
    assert _defines(source, "inner") and not _defines(source, "c")


def test_normest_transforms_blocks_in_one_kernel():
    source = _NORMEST.read_text(encoding="utf-8")
    callers = _fft_callers(source)
    assert "_space_pass" in callers
    assert set(callers) <= _TRANSFORMERS, callers
    assert not any(_defines(source, name) for name in _GONE)
