"""The product path never builds a value-carrying lattice.

``normest``, ``acceptance`` and ``cli`` read a lattice's geometry alone: they
take a `spectral.Grid` and build only the arrays they transform (a symbol's
live lines, a witness's hull, the spectral check's noise).  `GridField`, the
dense field, and `sample_symbol`, a symbol's samples on the whole lattice,
are for the reference transforms and the tests; a product module that names
either has started carrying the whole lattice's values again.
"""
import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "carlab"

#: the modules of the product path, and the names none of them may use
_PRODUCT = ("normest.py", "acceptance.py", "cli.py")
_DENSE = ("GridField", "sample_symbol")


def _names_dense_field(source: str) -> list[int]:
    """The lines on which ``source`` names one of `_DENSE`: as a name, an
    attribute, or in an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in _DENSE \
                or isinstance(node, ast.Attribute) and node.attr in _DENSE \
                or isinstance(node, ast.alias) and {
                    node.name, node.asname} & set(_DENSE):
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_every_way_of_naming_the_dense_field():
    source = ("from .spectral import Grid, GridField\n"
              "import carlab.spectral as sp\n"
              "f = sp.GridField(v, p, o)\n"
              "def g(x: GridField): pass\n"
              "grid = Grid(s, p, o)\n"
              "from .spectral import sample_symbol as sampled\n"
              "m = sp.sample_symbol(grid, spec)\n"
              "m = sample_symbol(grid, spec)\n")
    assert _names_dense_field(source) == [1, 3, 4, 6, 7, 8]


def test_no_product_module_names_the_dense_field():
    found = {name: _names_dense_field((_SRC / name).read_text(
        encoding="utf-8")) for name in _PRODUCT}
    assert not {name: lines for name, lines in found.items() if lines}
