"""Test helpers that put values on a lattice: a `GridField` on a lattice's
geometry, its conjugate reflection, a dense symbol's live τ-lines and the
start `power_method` runs from on them, a Knapp witness unfolded onto its
Cartesian lattice, and the support hull of a dense array."""
import numpy as np

from carlab.normest import _on_lines
from carlab.spectral import GridField, KnappField, Lattice, sample_symbol


def field_on(grid: Lattice, values, in_space: bool = True) -> GridField:
    """The field with ``values`` on ``grid``'s lattice."""
    return GridField(values, grid.periods, grid.freq_offsets,
                     in_space=in_space)


def conjugate_reflect(field: GridField) -> GridField:
    """x -> conj(f(-x)), exact on the lattice.

    On the shifted frequency lattice this is plain coefficientwise
    conjugation (the reflection returns every mode to its own frequency), so
    the operation commutes exactly with multiplier application by the
    conjugated symbol.
    """
    F = field.to_freq()
    out = F.with_values(np.conj(F.values), in_space=False)
    return out.to_space() if field.in_space else out


def dense_live_lines(m: np.ndarray):
    """``(live, mk)``, the live τ-lines of a whole sampled symbol ``m`` as
    `normest._live_lines` gives them, found from a full-size mask."""
    lines = m.reshape(-1, m.shape[-1])
    live = np.flatnonzero(np.any(lines != 0, axis=1))
    return live, _on_lines(m, live)


def start_lines(field: GridField, symbol):
    """``(live, lines)`` for `power_method` to run from ``field``: the live
    τ-lines of ``symbol`` (anything `sample_symbol` takes) from its dense
    samples (`dense_live_lines`), and a new array of the field's
    coefficients on them, which the run takes over."""
    live = dense_live_lines(sample_symbol(field, symbol))
    return live, _on_lines(field.to_freq().values, live[0])


def unfold(field: KnappField) -> GridField:
    """The frequency-side `GridField` of a witness whose radial axis is one
    Cartesian axis (d = 3, 4): ``coef`` on the hull, zero elsewhere, and
    the radial axis's index ``j`` at both lattice indices ``j`` and
    ``n - j``."""
    assert field.d + 1 - len(field.shape) == 1, "the radial axis is not 1-d"
    folded = np.zeros(field.shape, complex)
    folded[np.ix_(*field.index)] = field.coef
    k = np.arange(field.shape[-2])
    return field_on(field, folded[..., np.minimum(k, len(k) - k), :],
                    in_space=False)


def support_hull(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the ascending indices at which ``values`` has a nonzero
    entry somewhere in the rest of the array."""
    nonzero = values != 0
    axes = range(values.ndim)
    return tuple(np.flatnonzero(np.any(nonzero, axis=tuple(
        b for b in axes if b != a))) for a in axes)
