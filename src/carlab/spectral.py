"""Band-limited fields on modulated anisotropic grids, and multiplier action.

A `GridField` samples a function on a periodic box whose frequency lattice is
shifted per axis by a modulation ``sigma``:

    f(x) = sum_k  F_k  exp(i (sigma + 2 pi k / L) . x).

The shift buys two things.  First, thin frequency slabs far from the origin
(the Knapp examples live at ``|eta| ~ 1``, ``tau ~ eps``) can be wrapped in a
tight window per axis instead of forcing a huge isotropic lattice.  Second,
offsetting by half a cell keeps every lattice point away from the degenerate
set of the model symbol by a quantifiable margin.

All norms are computed on the space-side samples.  Because every field here
is band-limited by construction and the lattice span exceeds the spectral
support severalfold, the lattice Riemann sums of |f|^p agree with the
continuum integrals up to the (superpolynomially small) periodisation tails;
there is no further discretisation error hidden in the norms.

Sampled multiplication implements the multiplier action exactly on the
modulated band: apply ``m`` by sampling ``m(sigma + 2 pi k / L)`` on the
frequency lattice and multiplying coefficientwise.

The transforms factor as ``F = fftn(y) * cell_volume`` with
``y = f * exp(-i sigma . x)``: the *demodulated* space samples.  Axes whose
offset is zero skip their modulation pass, and each transform works in
place on the one array it allocates.  Loops that transform back and forth
(the power iteration in `normest`) can run on ``y`` directly: the phases are
unimodular, so ``|y| = |f|`` and every Lebesgue norm and norming map agrees
on the two, while the cell volume cancels between ``fftn`` and ``ifftn``
and enters each norm only as ``cell_volume ** (1/p)`` (`sample_lp_norm`).
Norms are sums over all samples, so such a loop may also hold ``y`` with
its axes reordered.  The power iteration does, to prune its transforms: it
puts first the axis along which the multiplier vanishes on the most whole
lines, and transforms that axis on the remaining lines only.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .symbols import SingularFrequencyError, SymbolSpec, symbol_on_axes

_MAGIC = b"CARLGRD2"

DEFAULT_GRID_SIZE = {1: 4096, 2: 512, 3: 128}


@dataclass(frozen=True)
class GridField:
    """Samples of a band-limited function on a modulated periodic lattice.

    Parameters
    ----------
    values:
        Complex array, one axis per dimension; each length a power of two.
    periods:
        Physical box lengths per axis.
    freq_offsets:
        Modulation sigma per axis; the frequency lattice is
        ``sigma_i + (2 pi / L_i) * (fft integers)``.
    in_space:
        Whether ``values`` holds space samples or frequency coefficients
        (continuum normalisation: coefficients approximate the integral
        transform, not the raw DFT sum).
    """

    values: np.ndarray
    periods: tuple[float, ...]
    freq_offsets: tuple[float, ...]
    in_space: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        object.__setattr__(self, "freq_offsets",
                           tuple(float(s) for s in self.freq_offsets))
        if vals.ndim != len(self.periods) or vals.ndim != len(self.freq_offsets):
            raise ValueError("values rank must match periods/freq_offsets length")
        for n in vals.shape:
            if n < 2 or n & (n - 1):
                raise ValueError(f"axis length {n} is not a power of two")
        for L in self.periods:
            if not L > 0:
                raise ValueError("periods must be positive")

    # --- geometry -----------------------------------------------------------

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.periods, self.shape))

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.spacings:
            out *= h
        return out

    def space_axes(self) -> list[np.ndarray]:
        return [h * np.arange(n) for h, n in zip(self.spacings, self.shape)]

    def freq_axes(self) -> list[np.ndarray]:
        out = []
        for sigma, L, n in zip(self.freq_offsets, self.periods, self.shape):
            k = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., -1 integer pattern
            out.append(sigma + (2.0 * np.pi / L) * k)
        return out

    # --- representation changes ---------------------------------------------

    def _modulate(self, values: np.ndarray, sign: float) -> np.ndarray:
        """``values`` times ``exp(sign i sigma_i x_i)`` on every axis whose
        offset is nonzero.

        Writes into ``values`` unless it is ``self.values``, which is never
        modified; with all offsets zero, ``values`` comes back as is.
        """
        for ax, (sigma, h, n) in enumerate(zip(self.freq_offsets,
                                               self.spacings, self.shape)):
            if sigma == 0.0:
                continue
            shape = [1] * self.d
            shape[ax] = -1
            ph = np.exp(sign * 1j * sigma * (h * np.arange(n))).reshape(shape)
            if values is self.values:
                values = values * ph
            else:
                values *= ph
        return values

    def to_freq(self) -> "GridField":
        if not self.in_space:
            return self
        work = self._modulate(self.values, -1.0)
        if work is self.values:
            work = np.fft.fftn(work)
        else:
            np.fft.fftn(work, out=work)
        work *= self.cell_volume
        return replace(self, values=work, in_space=False)

    def to_space(self) -> "GridField":
        if self.in_space:
            return self
        work = self.values / self.cell_volume
        np.fft.ifftn(work, out=work)
        return replace(self, values=self._modulate(work, +1.0), in_space=True)

    def with_values(self, values, in_space: bool | None = None) -> "GridField":
        return replace(self, values=np.asarray(values, dtype=complex),
                       in_space=self.in_space if in_space is None else in_space)


def default_grid(d: int, n: int | None = None, freq_span: float = 7.0,
                 for_full_symbol: bool = False) -> GridField:
    """An isotropic zero field whose lattice spans |xi_i| <= freq_span / 2.

    With ``for_full_symbol`` every axis is offset by half a frequency cell, so
    no lattice point can sit on the degenerate set of the model symbol (the
    last coordinate never vanishes), at distance >= dxi/2 from it.
    """
    n = n or DEFAULT_GRID_SIZE.get(d, 64)
    dxi = freq_span / n
    period = 2.0 * np.pi / dxi
    offset = 0.5 * dxi if for_full_symbol else 0.0
    values = np.zeros((n,) * d, dtype=complex)
    return GridField(values, (period,) * d, (offset,) * d, in_space=True)


# --- norms -------------------------------------------------------------------

def lp_norm(field: GridField, p: float) -> float:
    """Lebesgue p-norm of the space samples (0 < p <= inf)."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    f = field.to_space()
    return sample_lp_norm(f.values, p, f.cell_volume)


def sample_lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """Lebesgue p-norm of raw space samples with cell weight ``cell_volume``.

    Only ``|values|`` enters, so unimodular phases drop out: demodulated
    samples give the norm of the modulated field.
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


def sample_symbol(grid: GridField, symbol: Symbol) -> np.ndarray:
    """A multiplier's samples on the grid's frequency lattice, grid-shaped.

    ``symbol`` is a `SymbolSpec`, a callable receiving the sparse frequency
    meshgrid (one broadcastable array per axis), or an array already sampled
    on this lattice, which comes back as it is once its shape checks out.
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


def conjugate_reflect(field: GridField) -> GridField:
    """x -> conj(f(-x)), exact on the lattice.

    On the modulated frequency lattice this is plain coefficientwise
    conjugation (the reflection returns every mode to its own frequency), so
    the operation commutes exactly with multiplier application by the
    conjugated symbol.
    """
    F = field.to_freq()
    out = F.with_values(np.conj(F.values), in_space=False)
    return out.to_space() if field.in_space else out


# --- serialisation -------------------------------------------------------------

def save_field(field: GridField, path: str) -> None:
    """Write the field as little-endian binary plus a JSON sidecar.

    Layout: magic, d (u32), in_space (u8), per-axis length (u64), periods and
    offsets (f64 each), then the complex128 payload in C order.  The sidecar
    repeats the geometry in readable form and carries a payload hash.
    """
    d = field.d
    payload = np.ascontiguousarray(field.values).astype("<c16").tobytes()
    head = _MAGIC + struct.pack("<IB3x", d, int(field.in_space))
    head += struct.pack(f"<{d}Q", *field.shape)
    head += struct.pack(f"<{d}d", *field.periods)
    head += struct.pack(f"<{d}d", *field.freq_offsets)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
    sidecar = {
        "shape": list(field.shape),
        "periods": list(field.periods),
        "freq_offsets": list(field.freq_offsets),
        "in_space": field.in_space,
        "dtype": "complex128-le",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_field(path: str) -> GridField:
    """Read a field written by `save_field`.

    When the JSON sidecar ``path + ".json"`` exists, the payload must match
    its ``sha256``; a mismatch raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field file (magic {magic!r})")
        d, in_space = struct.unpack("<IB3x", fh.read(8))
        shape = struct.unpack(f"<{d}Q", fh.read(8 * d))
        periods = struct.unpack(f"<{d}d", fh.read(8 * d))
        offsets = struct.unpack(f"<{d}d", fh.read(8 * d))
        count = 1
        for nn in shape:
            count *= nn
        payload = fh.read(16 * count)
        if len(payload) != 16 * count:
            raise ValueError(f"{path}: truncated payload")
    if os.path.exists(path + ".json"):
        with open(path + ".json", encoding="utf-8") as fh:
            want = json.load(fh)["sha256"]
        got = hashlib.sha256(payload).hexdigest()
        if got != want:
            raise ValueError(f"{path}: payload sha256 {got} does not match "
                             f"the sidecar's {want}")
    values = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(complex)
    return GridField(values, periods, offsets, in_space=bool(in_space))
