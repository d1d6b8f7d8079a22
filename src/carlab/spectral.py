"""Shifted anisotropic lattices, band-limited fields on them, and
multiplier action.

A lattice is a `Grid`: a shape, box lengths ``periods`` and per-axis
frequency shifts ``sigma`` (``freq_offsets``), and no values.  A function
on it is

    f(x) = sum_k  F_k  exp(i (sigma + 2 pi k / L) . x).

The shift buys two things.  First, thin frequency slabs far from the
origin (the Knapp examples live at ``|eta| ~ 1``, ``tau ~ eps``) can be
wrapped in a tight window per axis instead of forcing a huge isotropic
lattice.  Second, offsetting by half a cell keeps every lattice point away
from the degenerate set of the model symbol by a quantifiable margin.

The space side of a field is the lattice samples of
``y(x) = f(x) exp(-i sigma . x)``, and its frequency side the coefficients
``F = fftn(y) * cell_volume`` (continuum normalisation): the transforms are
plain DFTs on every lattice, and ``sigma`` enters only where frequencies are
named (`Lattice.freq_axes`, `sample_symbol`).  Since ``|y| = |f|``, the
norms of ``y`` are those of ``f``: lattice Riemann sums of ``|y|^p``, in
which the cell volume enters only as ``cell_volume ** (1/p)``
(`sample_lp_norm`).  Because every field here is band-limited by
construction and the lattice span exceeds the spectral support severalfold,
these sums agree with the continuum integrals up to the (superpolynomially
small) periodisation tails.  Norms are sums over all samples, so a loop may
also hold ``y`` with its axes reordered.

The norm passes (`normest`) take the `Grid` and build only the arrays they
transform: the symbol's live τ-lines (along the last axis), or a Knapp
witness (`KnappField`), whose cap axes fold into one radial axis.  A
`GridField` holds ``y`` or ``F`` on the whole lattice; it is the dense
form that the reference transforms and norms below work on.

Sampled multiplication implements the multiplier action exactly on the
shifted band: apply ``m`` by sampling ``m(sigma + 2 pi k / L)`` on the
frequency lattice and multiplying coefficientwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .symbols import SingularFrequencyError, SymbolSpec, symbol_on_axes

DEFAULT_GRID_SIZE = {1: 4096, 2: 512, 3: 128}

#: the largest complex array, in bytes, that a lattice or a norm pass may need
MAX_LATTICE_BYTES = 2 ** 31


def check_lattice_size(shape: Sequence[int]) -> None:
    """Reject a complex array of this shape above `MAX_LATTICE_BYTES`.

    Builders call this on their lattice, and norm passes on the arrays
    they allocate, so a config that asks for, say, a 128^5 lattice fails
    at once instead of at the allocator.
    """
    nbytes = 16 * math.prod(shape)
    if nbytes > MAX_LATTICE_BYTES:
        raise ValueError(
            f"a {'x'.join(map(str, shape))} complex array takes "
            f"{nbytes / 2 ** 30:.4g} GiB, above the "
            f"{MAX_LATTICE_BYTES / 2 ** 30:.4g} GiB limit")


class Lattice:
    """The geometry every lattice type shares: a lattice of ``shape`` with
    box lengths ``periods`` and frequency shifts ``freq_offsets``, which
    each subclass provides, and one copy of the checks on them."""

    def _check_geometry(self) -> None:
        """Store ``periods`` and ``freq_offsets`` as float tuples, and refuse
        a rank mismatch, an axis length that is not a power of two >= 2, or
        a period that is not positive."""
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        object.__setattr__(self, "freq_offsets",
                           tuple(float(s) for s in self.freq_offsets))
        if not len(self.shape) == len(self.periods) == len(self.freq_offsets):
            raise ValueError("lattice rank must match periods/freq_offsets length")
        for n in self.shape:
            if n < 2 or n & (n - 1):
                raise ValueError(f"axis length {n} is not a power of two")
        for L in self.periods:
            if not L > 0:
                raise ValueError("periods must be positive")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.periods, self.shape))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    def freq_axes(self) -> list[np.ndarray]:
        """Per axis, the shifted frequency lattice ``sigma_i + (2 pi / L_i)
        * k``, ``k`` the fft integers 0, 1, ..., -1."""
        return [sigma + (2.0 * np.pi / L) * np.fft.fftfreq(n, d=1.0 / n)
                for sigma, L, n in zip(self.freq_offsets, self.periods,
                                       self.shape)]


@dataclass(frozen=True)
class Grid(Lattice):
    """A lattice and nothing on it: what builders return and norm passes
    take, since they read the geometry alone."""

    shape: tuple[int, ...]
    periods: tuple[float, ...]
    freq_offsets: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        self._check_geometry()


@dataclass(frozen=True)
class GridField(Lattice):
    """A band-limited function on a periodic lattice with a shifted
    frequency lattice.

    Parameters
    ----------
    values:
        Complex array, one axis per dimension; each length a power of two.
    periods:
        Physical box lengths per axis.
    freq_offsets:
        Frequency shift sigma per axis; the frequency lattice is
        ``sigma_i + (2 pi / L_i) * (fft integers)``.
    in_space:
        Whether ``values`` holds the space samples ``y = f exp(-i sigma . x)``
        or the frequency coefficients ``F = fftn(y) * cell_volume``
        (continuum normalisation: coefficients approximate the integral
        transform of f, not the raw DFT sum).
    """

    values: np.ndarray
    periods: tuple[float, ...]
    freq_offsets: tuple[float, ...]
    in_space: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=complex))
        self._check_geometry()

    # --- geometry -----------------------------------------------------------

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    # --- representation changes ---------------------------------------------

    def to_freq(self) -> "GridField":
        if not self.in_space:
            return self
        work = np.fft.fftn(self.values)
        work *= self.cell_volume
        return replace(self, values=work, in_space=False)

    def to_space(self) -> "GridField":
        if self.in_space:
            return self
        work = self.values / self.cell_volume
        np.fft.ifftn(work, out=work)
        return replace(self, values=work, in_space=True)

    def with_values(self, values, in_space: bool | None = None) -> "GridField":
        return replace(self, values=np.asarray(values, dtype=complex),
                       in_space=self.in_space if in_space is None else in_space)


@dataclass(frozen=True)
class KnappField(Grid):
    """A Knapp witness in R^d: its coefficients ``F`` (as in `GridField`) on
    its hull, the sub-lattice spanned by ``index``, one ascending array of
    indices per axis, off which ``F`` vanishes.  The axes are (a0, [η1], ρ,
    τ), η1 at even d only; ρ is the radius of the other ``m = d + 1 -
    len(shape)`` transverse axes, so m is odd, and its indices ``j =
    0..n/2`` name the frequencies ``j 2 pi / L`` (zero offset)."""

    d: int
    coef: np.ndarray
    index: tuple[np.ndarray, ...]


def default_grid(d: int, n: int | None = None, freq_span: float = 7.0,
                 for_full_symbol: bool = False) -> Grid:
    """An isotropic lattice spanning |xi_i| <= freq_span / 2.

    With ``for_full_symbol`` every axis is offset by half a frequency cell, so
    no lattice point can sit on the degenerate set of the model symbol (the
    last coordinate never vanishes), at distance >= dxi/2 from it.
    """
    if d < 1:
        raise ValueError(f"a lattice needs d >= 1 axes, got d = {d}")
    n = n or DEFAULT_GRID_SIZE.get(d, 64)
    check_lattice_size((n,) * d)
    dxi = freq_span / n
    period = 2.0 * np.pi / dxi
    offset = 0.5 * dxi if for_full_symbol else 0.0
    return Grid((n,) * d, (period,) * d, (offset,) * d)


def _dct1(values: np.ndarray, axis: int) -> np.ndarray:
    """The unnormalised DCT-I of ``values`` along ``axis``: the real part
    of ``rfft`` of its even extension, of length ``2 (m - 1)`` for m
    points (Makhoul 1980).  The extension and the complex spectrum are
    freed before the call returns."""
    back = [slice(None)] * values.ndim
    back[axis] = slice(-2, 0, -1)
    return np.fft.rfft(np.concatenate([values, values[tuple(back)]],
                                      axis=axis), axis=axis).real.copy()


# --- norms -------------------------------------------------------------------

def lp_norm(field: GridField, p: float) -> float:
    """Lebesgue p-norm of the space samples (0 < p <= inf)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    f = field.to_space()
    return sample_lp_norm(f.values, p, f.cell_volume)


def sample_lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """Lebesgue p-norm of raw space samples with cell weight ``cell_volume``.

    Only ``|values|`` enters, so a `GridField`'s space samples ``y`` give
    the norm of its function f.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    mags = np.abs(values)
    if np.isinf(p):
        return float(mags.max())
    mags **= p
    return float((np.sum(mags) * cell_volume) ** (1.0 / p))


def lorentz_norm(field: GridField, p: float, flavor: str) -> float:
    """Lorentz norms on the lattice: flavor "pinf" (weak) or "p1".

    Exact layer-cake evaluation for the simple function given by the samples:
    weak norm is ``max_j v_j (j w)^(1/p)`` over the decreasing rearrangement
    ``v`` with cell weight ``w``; the (p, 1) norm is
    ``sum_j (j w)^(1/p) (v_j - v_{j+1})``, i.e. ``int_0^inf mu(s)^(1/p) ds``.
    """
    if not 0 < p < np.inf:
        raise ValueError(f"p must be finite positive, got {p}")
    if flavor not in ("pinf", "p1"):
        raise ValueError(f"flavor must be 'pinf' or 'p1', got {flavor!r}")
    f = field.to_space()
    v = np.sort(np.abs(f.values).ravel())[::-1]
    w = f.cell_volume
    meas = (np.arange(1, v.size + 1) * w) ** (1.0 / p)
    if flavor == "pinf":
        return float(np.max(v * meas))
    drops = v - np.concatenate([v[1:], [0.0]])
    return float(np.sum(meas * drops))


# --- multiplier action ---------------------------------------------------------

Symbol = Union[SymbolSpec, Callable[..., np.ndarray], np.ndarray]


def sample_symbol(grid: Lattice, symbol: Symbol) -> np.ndarray:
    """A multiplier's samples on a field's frequency lattice, lattice-shaped.

    ``symbol`` is a `SymbolSpec`, a callable receiving the sparse frequency
    meshgrid (one broadcastable array per axis), or an array already sampled
    on this lattice, which comes back as it is once its shape checks out;
    any other symbol's samples come back as a read-only broadcast view.
    """
    if isinstance(symbol, np.ndarray):
        if symbol.shape != grid.shape:
            raise ValueError("precomputed symbol shape does not match grid")
        return symbol
    axes = grid.freq_axes()
    try:
        if isinstance(symbol, SymbolSpec):
            m = symbol_on_axes(symbol, axes)
        else:
            m = symbol(*np.meshgrid(*axes, indexing="ij", sparse=True))
    except SingularFrequencyError as exc:
        raise SingularFrequencyError(
            f"{exc} -- this grid's lattice hits the degenerate set; rebuild it "
            "with default_grid(..., for_full_symbol=True) or nonzero freq_offsets"
        ) from None
    return np.broadcast_to(m, grid.shape)


def apply_multiplier(field: GridField, symbol: Symbol) -> GridField:
    """Apply a Fourier multiplier; returns a field on the input's side.

    ``symbol`` is anything `sample_symbol` takes.
    """
    F = field.to_freq()
    out = F.with_values(F.values * sample_symbol(F, symbol), in_space=False)
    return out.to_space() if field.in_space else out
