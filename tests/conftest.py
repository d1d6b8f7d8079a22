"""Shared fixtures."""
import numpy as np
import pytest

from carlab.spectral import GridField, default_grid


@pytest.fixture(params=["zero_offset", "half_cell", "unit_cell"])
def lattice(request) -> GridField:
    """A zero 2-d field on each kind of lattice.

    ``zero_offset`` has no frequency shift, ``half_cell`` shifts every axis
    by half a cell, and ``unit_cell`` has ``cell_volume == 1.0`` with one
    shifted axis.
    """
    if request.param == "unit_cell":
        return GridField(np.zeros((16, 16), complex), (16.0, 16.0),
                         (0.25, 0.0), in_space=True)
    return default_grid(2, n=32, for_full_symbol=request.param == "half_cell")
