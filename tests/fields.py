"""Test helpers that put values on a lattice: a `GridField` on a lattice's
geometry, and the live τ-lines `power_method` runs from."""
from carlab.normest import _live_lines, _on_lines
from carlab.spectral import GridField, Lattice


def field_on(grid: Lattice, values, in_space: bool = True) -> GridField:
    """The field with ``values`` on ``grid``'s lattice."""
    return GridField(values, grid.periods, grid.freq_offsets,
                     in_space=in_space)


def start_lines(field: GridField, symbol):
    """``(live, lines)`` for `power_method` to run from ``field``: the
    symbol's live τ-lines (`_live_lines`) and a new array of the field's
    coefficients on them, which the run takes over."""
    live = _live_lines(field, symbol)
    return live, _on_lines(field.to_freq().values, live[0])
