"""Operator-norm estimation and scaling-law bookkeeping.

Two jobs live here.  First, certified lower bounds for multiplier norms:
the one-shot Rayleigh quotient ``||Tf||_q / ||f||_p`` of one field, at any
``L^p -> L^q``, and a Boyd-style power iteration for ``L^2 -> L^q``.  Every
iterate of the latter produces a genuine Rayleigh quotient, so the running
maximum is a true lower bound up to lattice accuracy, whatever the iteration
does.  Second, the exact theoretical scaling exponents the experiments are
measured against, kept as `Fraction` arithmetic so the targets carry no
floating-point noise of their own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .regions import ExponentPoint
from .spectral import GridField, sample_lp_norm, sample_symbol


class ExponentKind(enum.Enum):
    """Which theoretical power of the small parameter a quantity follows."""

    ME_UPPER = "me_upper"          # operator norm bound, unscaled family
    ME_KNAPP = "me_knapp"          # thin-slab lower bound, unscaled family
    TILDE_UPPER = "tilde_upper"    # operator norm bound, rescaled family
    TILDE_LOWER = "tilde_lower"    # spread-witness lower bound, rescaled family
    TILDE_KNAPP = "tilde_knapp"    # thin-slab lower bound, rescaled family
    L2_RING = "l2_ring"            # ring-piece L^2 -> L^q bound, in 2^j eps


def theoretical_exponent(kind: ExponentKind, d: int, k: int,
                         point: ExponentPoint | None = None) -> Fraction:
    """Exact predicted exponent for the given estimate family.

    The conventions: ``x = 1/p``, ``y = 1/q``; norms of the unscaled family
    behave like ``eps**ME_*``, the rescaled family like ``eps**TILDE_*``, and
    the ring pieces like ``(2**j eps)**L2_RING``.  The unscaled and rescaled
    upper exponents differ exactly by the rescaling factor ``x - y``.
    """
    if d < 2 or k < 1:
        raise ValueError(f"need d >= 2 and k >= 1, got d={d}, k={k}")
    if kind is ExponentKind.L2_RING:
        return Fraction(1, 2) - k
    if point is None:
        raise ValueError("this exponent kind needs an exponent point (x, y)")
    x, y = point.x, point.y
    if kind is ExponentKind.ME_UPPER:
        return d * x - y - Fraction(d - 2 + 2 * k, 2)
    if kind is ExponentKind.ME_KNAPP:
        return Fraction(d + 2, 2) * (x - y) - k
    if kind is ExponentKind.TILDE_UPPER:
        return (d - 1) * x - Fraction(d - 2 + 2 * k, 2)
    if kind is ExponentKind.TILDE_LOWER:
        return -(d - 1) * y + Fraction(d, 2) - k
    if kind is ExponentKind.TILDE_KNAPP:
        return Fraction(d, 2) * (x - y) - k
    raise ValueError(f"unknown exponent kind: {kind}")


# --- power iteration ----------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound for an operator norm.

    ``value`` is the best Rayleigh quotient seen; ``history`` records the
    quotient of every iterate (concatenated across restarts), so monotonicity
    of the running maximum can be audited.  ``aborted`` flags a run cut short
    by a non-finite iterate; the bound reported is still valid.
    """

    value: float
    iterations: int
    history: tuple[float, ...]
    aborted: bool = False


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError(
            f"norm bounds need 1 < p, q < infinity, got p={p}, q={q}")


def _check_power_exponents(p: float, q: float) -> None:
    if p != 2.0:
        raise ValueError(f"the power iteration runs at p = 2 only, got p={p}")
    _check_exponents(p, q)


def _power_in_place(x: np.ndarray, e: float) -> np.ndarray:
    """Raise the nonnegative ``x`` to the power ``e`` in place and return it.

    Zeros stay zero for e < 0 too, so ``h * _power_in_place(|h|, r - 2)``
    is the norming map with ``0 -> 0``.
    """
    if e < 0.0:
        np.power(x, e, out=x, where=x > 0)
    else:
        x **= e
    return x


def dualize(values: np.ndarray, r: float) -> np.ndarray:
    """The norming transform ``h -> |h|^(r-1) * phase(h)`` for L^r pairing.

    Computed as ``h * |h|^(r-2)`` from one modulus pass; zeros map to zero
    (for r < 2 too), and at r = 2 the input array itself is returned.
    """
    if not r >= 1.0:
        raise ValueError(f"need r >= 1, got r={r}")
    vals = np.asarray(values)
    if r == 2.0:
        return vals
    return vals * _power_in_place(np.abs(vals), r - 2.0)


def certified_lower_bound(field: GridField, symbol, p: float, q: float) -> float:
    """The Rayleigh quotient ``||m(D) f||_q / ||f||_p`` for this one field.

    An all-zero field is rejected before any sampling or transform.  The
    work runs on the support hull of the coefficients ``F``: per axis, the
    indices of the lattice planes that carry a nonzero coefficient
    (`_support_hull`).  The symbol is sampled on the sub-lattice those
    indices span and nowhere else, so a degenerate point off the hull
    raises nothing; ``m F`` vanishes off the hull, so this is the dense
    product exactly.  Both norms come from `_hull_to_space`, the field's
    space samples ``y`` (`spectral`).  A space-side field keeps its own
    samples for the p-norm and pays one full forward transform for ``F``.
    """
    _check_exponents(p, q)
    if not np.any(field.values):
        raise ValueError("field is identically zero")
    F = field.to_freq()
    cell = F.cell_volume
    index = _support_hull(F.values)
    m = sample_symbol(F, symbol, index)
    coef = F.values[np.ix_(*index)]
    if field.in_space:
        denom = sample_lp_norm(field.values, p, cell)
    else:
        denom = sample_lp_norm(_hull_to_space(coef / cell, index, F.shape),
                               p, cell)
    coef = m * coef
    coef /= cell
    return sample_lp_norm(_hull_to_space(coef, index, F.shape), q,
                          cell) / denom


def _support_hull(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the ascending indices at which ``values`` has a nonzero
    entry somewhere in the rest of the array.

    The sets need not be ranges (a support may wrap around the FFT ends),
    and ``values`` vanishes off the sub-lattice they span.
    """
    nonzero = values != 0
    axes = range(values.ndim)
    return tuple(np.flatnonzero(np.any(nonzero, axis=tuple(
        b for b in axes if b != a))) for a in axes)


def _hull_to_space(coef: np.ndarray, index: Sequence[np.ndarray],
                   shape: tuple[int, ...]) -> np.ndarray:
    """``ifftn`` of the ``shape``-sized array that is ``coef`` on the
    sub-lattice ``index`` and zero elsewhere, with its axes reordered.

    One axis at a time, widest hull first: each pass zero-pads its axis to
    full length on the lines the hull still reaches, then transforms it.
    The narrowest axis comes last, as the one pass over the whole lattice,
    on the contiguous axis.  ``coef`` is not written into; the result is
    for norms, which do not see the axis order.
    """
    order = sorted(range(len(shape)), key=lambda a: -len(index[a]))
    y = np.transpose(coef, order)
    for pos, ax in enumerate(order):
        full = np.zeros(y.shape[:pos] + (shape[ax],) + y.shape[pos + 1:],
                        complex)
        full[(slice(None),) * pos + (index[ax],)] = y
        np.fft.ifft(full, axis=pos, out=full)
        y = full
    return y


def _live_lines(m: np.ndarray, nonzero: np.ndarray
                ) -> tuple[int, np.ndarray, np.ndarray]:
    """The axis along which ``m`` leaves the most lines empty, and its lines.

    ``nonzero`` is the mask ``m != 0``, which callers that need it too
    build once.

    Lines along ``axis`` are numbered in the C order of the other axes.
    Returns ``(axis, live, mk)``: ``live`` holds the ascending numbers of
    the lines that carry a nonzero sample, and ``mk`` is ``m`` on them, a
    contiguous ``(n_axis, K)`` array (`_on_lines`).  Ties go to the lowest
    axis.
    """
    live_masks = [np.any(nonzero, axis=a) for a in range(m.ndim)]
    axis = int(np.argmin([mask.mean() for mask in live_masks]))
    live = np.flatnonzero(live_masks[axis])
    return axis, live, _on_lines(m, axis, live)


def _on_lines(values: np.ndarray, axis: int, live: np.ndarray) -> np.ndarray:
    """``values`` on the lines along ``axis`` numbered ``live``, as a
    contiguous ``(n_axis, K)`` array, without a copy of ``values``."""
    # a trailing unit axis gives a 1-d lattice its one line
    moved = np.moveaxis(values, axis, 0)[..., np.newaxis]
    return np.ascontiguousarray(
        moved[(slice(None),) + np.unravel_index(live, moved.shape[1:])])


#: complex elements per block of cross-sections in `_space_pass`: a block
#: and its float scratch stay in cache; it holds one cross-section at least
_BLOCK = 2 ** 12


def _space_pass(lines: np.ndarray, live: np.ndarray,
                others: tuple[int, ...], q: float, pull_back: bool) -> float:
    """``sum |g|^q`` for ``g`` the space side of ``lines``; on the way
    ``g *= |g|^(q-2)``, its dual, whose live lines replace ``lines`` with
    ``pull_back``.

    ``lines`` is ``(n_axis, K)``, already inverse-transformed along the
    pruned axis; ``live`` numbers its columns among the lines of a
    cross-section of shape ``others``.  Per block of cross-sections, while
    it is in cache: zero it, scatter its live entries, ``ifftn`` the other
    axes in place, then with float scratch ``sq = |g|^2``, ``w =
    sq^((q-2)/2)`` (zeros stay zero for q < 2), ``g *= w`` and the sum
    gets ``sum(sq * w)``; with ``pull_back``, ``fftn`` and gather back.
    """
    n_axis = lines.shape[0]
    b = min(n_axis, max(1, _BLOCK // math.prod(others)))
    buf = np.empty((b,) + others, complex)
    sq = np.empty(buf.size)
    w = np.empty_like(sq)
    axes = tuple(range(1, buf.ndim))
    total = 0.0
    for t in range(0, n_axis, b):
        rows = lines[t:t + b]
        block = buf[:len(rows)]
        flat = block.reshape(len(rows), -1)
        flat.fill(0.0)
        flat[:, live] = rows
        np.fft.ifftn(block, axes=axes, out=block)
        g = block.reshape(-1)
        s, wb = sq[:g.size], w[:g.size]
        np.abs(g, out=s)
        s *= s
        np.copyto(wb, s)
        _power_in_place(wb, 0.5 * q - 1.0)
        for part in (g.real, g.imag):  # g *= wb would cast wb in a buffer
            part *= wb
        s *= wb
        total += np.sum(s)
        if pull_back:
            np.fft.fftn(block, axes=axes, out=block)
            np.take(flat, live, axis=1, out=rows)
    return float(total)


def power_method(init: GridField, symbol, p: float, q: float, *,
                 max_iter: int = 24, tol: float = 1e-4,
                 _live: tuple | None = None) -> NormEstimate:
    """Boyd power iteration for ``||m(D)||_{2 -> q}`` from one starting field.

    Exponents other than p = 2, 1 < q < infinity are refused before any
    sampling.  Each step maps the current unit-in-L^2 field through the
    multiplier, records the quotient, then pulls the L^q norming function
    back through the adjoint (the multiplier with conjugated symbol).
    Stops on relative stagnation below ``tol`` or at the ``max_iter``-th
    quotient, before the pull-back that quotient would feed; a non-finite
    iterate aborts the run and returns the best bound collected so far.

    The loop works on raw arrays of the field's space samples
    ``y = ifftn(F / cell_volume)`` (`spectral`), ``F`` the
    continuum-normalised coefficients: the cell volume cancels between
    ``fftn`` and ``ifftn``, and it enters each norm only as the factor
    ``cell_volume ** (1/r)``.

    The L^2 dualization is the identity, so between steps the iterate
    stays on the frequency side, as the compact array of its lines along
    the axis where ``m`` leaves the most lines empty (`_live_lines`); on
    A8's rings 3% of the tau-lines are live.  A step transforms that axis
    on the live lines alone, around `_space_pass`, which runs the other
    axes, the q-side norm and the dualization one block of cross-sections
    at a time.  The ``max_iter``-th quotient's pass skips the pull-back; a
    stagnating run learns that it stops only after its pass.

    The iterate's norm is Parseval's ``||f||_2^2 = cell_volume / N * sum
    |fftn(y)|^2`` over the ``N`` samples, taken over the whole start ``F``
    on the first step, one first-axis slice at a time, because a start may
    carry mass on lines where ``m`` vanishes.  The start's live lines are
    gathered from ``F`` itself (`_on_lines`), so from a frequency start the
    run holds no full-size array of its own, only a block and its scratch.

    ``_live`` is for `estimate_operator_norm`, which passes the
    `_live_lines` of its sampled symbol so that restarts on one lattice
    share them; ``symbol`` is then not read, and no symbol array is held.
    """
    _check_power_exponents(p, q)
    if _live is None:
        m = sample_symbol(init, symbol)
        _live = _live_lines(m, m != 0)
        del m
    axis, live, mk = _live
    mkc = np.conj(mk)
    F = init.to_freq()
    cell = F.cell_volume
    others = F.shape[:axis] + F.shape[axis + 1:]
    # Parseval on the whole start; afterwards on the lines
    cell_per_n = cell / F.values.size
    nf = (sum(np.sum(np.abs(x) ** 2) for x in F.values)
          * cell_per_n) ** 0.5 / cell
    lines = _on_lines(F.values, axis, live)
    lines /= cell
    del F  # a space-side start's coefficients go before the first pass
    history: list[float] = []
    aborted = False
    for step in range(max_iter):
        if step:
            nf = sample_lp_norm(lines, 2.0, cell_per_n)
        if not np.isfinite(nf) or nf == 0.0:
            aborted = True
            break
        lines *= mk
        lines *= 1.0 / nf
        np.fft.ifft(lines, axis=0, out=lines)
        last = step == max_iter - 1
        s = float((_space_pass(lines, live, others, q, not last) * cell)
                  ** (1.0 / q))
        if not np.isfinite(s):
            aborted = True
            break
        history.append(s)
        stalled = (len(history) > 1
                   and abs(history[-1] - history[-2]) <= tol * s)
        if stalled or last:
            break
        np.fft.fft(lines, axis=0, out=lines)
        lines *= mkc
    best = max(history) if history else 0.0
    return NormEstimate(value=best, iterations=len(history),
                        history=tuple(history), aborted=aborted)


def estimate_operator_norm(grid: GridField, symbol, p: float, q: float, *,
                           seed: int = 0, n_random: int = 3,
                           max_iter: int = 24, tol: float = 1e-4
                           ) -> NormEstimate:
    """Best certified lower bound over a small family of restarts; the
    exponents are checked as in `power_method`, before any sampling.

    Restart seeds: the conjugated symbol itself as a frequency profile (the
    natural L^2 maximiser, a strong generic start), then ``n_random``
    complex Gaussian fields supported where the symbol is nonzero, drawn
    from one seeded Philox stream, real parts first, into one complex
    array.  The symbol start is the sampled symbol conjugated in place,
    or into a copy when it is the caller's precomputed array, once its
    support and its `_live_lines` are built.  Each start is built just
    before its run and dropped after it, so at most one full-size start is
    alive at a time.
    """
    _check_power_exponents(p, q)
    m = sample_symbol(grid, symbol)
    support = m != 0
    if not support.any():
        raise ValueError("symbol vanishes on the whole frequency lattice")

    def starts(symbol_start):
        yield symbol_start
        del symbol_start  # before the next start
        rng = np.random.Generator(np.random.Philox(seed))
        for _ in range(n_random):
            noise = np.empty(grid.shape, complex)
            noise.real = rng.standard_normal(grid.shape)
            noise.imag = rng.standard_normal(grid.shape)
            noise *= support
            yield grid.with_values(noise, in_space=False)
            del noise  # before the next draw

    best: NormEstimate | None = None
    hist: list[float] = []
    total_iter = 0
    aborted = False
    live = _live_lines(m, support)
    own = m is not symbol and m.flags.writeable
    restarts = starts(grid.with_values(np.conjugate(m, out=m if own else None),
                                       in_space=False))
    del m  # the runs need its live lines and support only
    for f0 in restarts:
        est = power_method(f0, symbol, p, q, max_iter=max_iter, tol=tol,
                           _live=live)
        del f0
        hist.extend(est.history)
        total_iter += est.iterations
        aborted = aborted or est.aborted
        if best is None or est.value > best.value:
            best = est
    return NormEstimate(value=best.value, iterations=total_iter,
                        history=tuple(hist), aborted=aborted)


# --- scaling fits ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (eps, value) measurements.

    The fit runs in base-2 logs: ``log2 value ~ slope * log2 eps +
    intercept``; ``max_residual`` is the worst absolute log2 deviation.
    `acceptance.SlopeCheck` holds the exponent a slope is judged against.
    """

    pairs: tuple[tuple[float, float], ...]
    slope: float
    max_residual: float


def fit_scaling(eps_values: Sequence[float],
                values: Sequence[float]) -> ScalingFit:
    eps_arr = np.asarray(eps_values, dtype=float)
    val_arr = np.asarray(values, dtype=float)
    if eps_arr.shape != val_arr.shape or eps_arr.size < 2:
        raise ValueError("need matching sequences of at least two measurements")
    if not (np.all(eps_arr > 0) and np.all(val_arr > 0)):
        raise ValueError("scaling fits need positive eps and values")
    if np.unique(eps_arr).size != eps_arr.size:
        raise ValueError("eps values must be distinct for a slope fit")
    lx = np.log2(eps_arr)
    ly = np.log2(val_arr)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(pairs=tuple(zip(eps_arr.tolist(), val_arr.tolist())),
                      slope=float(slope),
                      max_residual=float(np.max(np.abs(resid))))
