"""Shared fixtures."""
import pytest

from carlab.spectral import Grid, default_grid


@pytest.fixture(params=["zero_offset", "half_cell", "unit_cell"])
def lattice(request) -> Grid:
    """A 2-d lattice of each kind.

    ``zero_offset`` has no frequency shift, ``half_cell`` shifts every axis
    by half a cell, and ``unit_cell`` has ``cell_volume == 1.0`` with one
    shifted axis.
    """
    if request.param == "unit_cell":
        return Grid((16, 16), (16.0, 16.0), (0.25, 0.0))
    return default_grid(2, n=32, for_full_symbol=request.param == "half_cell")
