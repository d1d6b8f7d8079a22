"""In-place transforms in ``src/carlab`` go through numpy FFTs that honour
``out``.

numpy 2.4's ``ifft2`` and ``irfft2`` accept ``out`` but pass ``out=None``
on to the transform: the result is a new array and ``out`` is left
unwritten, so code that relies on the in-place write silently reads stale
data.  ``fftn``, ``ifftn``, ``fft`` and ``ifft`` honour ``out``.
"""
import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "carlab"

#: transforms that drop ``out``, and the position of ``out`` among their
#: positional parameters
_DROPS_OUT = {"ifft2": 4, "irfft2": 4}


def _calls_with_out(source: str) -> list[str]:
    """``name:line`` of each call of a `_DROPS_OUT` transform given ``out``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name in _DROPS_OUT and (
                any(k.arg == "out" for k in node.keywords)
                or len(node.args) > _DROPS_OUT[name]):
            found.append(f"{name}:{node.lineno}")
    return found


def test_the_scan_finds_a_transform_given_out():
    source = ("import numpy as np\n"
              "np.fft.ifft2(a, out=a)\n"
              "np.fft.irfft2(a, None, (-2, -1), None, b)\n"
              "np.fft.ifftn(a, out=a)\n"
              "ifft2(a)\n")
    assert _calls_with_out(source) == ["ifft2:2", "irfft2:3"]


def test_no_src_module_calls_a_transform_that_drops_out():
    found = {path.name: _calls_with_out(path.read_text(encoding="utf-8"))
             for path in sorted(_SRC.glob("*.py"))}
    assert not {name: calls for name, calls in found.items() if calls}
