"""Test oracles for fields in hull form: the support hull of a dense array,
and the two conversions between a `GridField` and a `HullField`."""
import numpy as np

from carlab.spectral import GridField, HullField


def support_hull(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the ascending indices at which ``values`` has a nonzero
    entry somewhere in the rest of the array.

    The sets need not be ranges (a support may wrap around the FFT ends),
    and ``values`` vanishes off the sub-lattice they span.
    """
    nonzero = values != 0
    axes = range(values.ndim)
    return tuple(np.flatnonzero(np.any(nonzero, axis=tuple(
        b for b in axes if b != a))) for a in axes)


def hull_of(field: GridField) -> HullField:
    """``field``'s frequency coefficients on their support hull."""
    F = field.to_freq()
    index = support_hull(F.values)
    return HullField(F.shape, F.periods, F.freq_offsets,
                     F.values[np.ix_(*index)], index)


def dense_of(field: HullField) -> GridField:
    """The frequency-side `GridField` that is ``field`` on its hull and zero
    elsewhere."""
    values = np.zeros(field.shape, complex)
    values[np.ix_(*field.index)] = field.coef
    return GridField(values, field.periods, field.freq_offsets,
                     in_space=False)
