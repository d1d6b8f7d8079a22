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

from .bessel import sphere_hat
from .regions import ExponentPoint
from .spectral import (Grid, KnappField, _dct1, check_lattice_size,
                       sample_lp_norm)
from .symbols import SymbolSpec, eval_from_radial


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
    by a non-finite iterate; the bound reported is still valid.  The norm
    lies in ``[value, upper]`` (`estimate_operator_norm` sets ``upper``).
    """

    value: float
    iterations: int
    history: tuple[float, ...]
    aborted: bool = False
    upper: float = math.inf


def _check_norm(shape: tuple[int, ...], p: float, q: float) -> None:
    if len(shape) < 2:
        raise ValueError(f"norm passes need a lattice of two axes at least "
                         f"(the last is tau), got shape {shape}")
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError(
            f"norm bounds need 1 < p, q < infinity, got p={p}, q={q}")


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


def certified_lower_bound(field: KnappField, spec: SymbolSpec, p: float,
                          q: float) -> float:
    """The Rayleigh quotient ``||m(D) f||_q / ||f||_p`` for this one witness.

    Bad exponents, a symbol of another d than the witness's, and an all-zero
    ``coef`` are refused before any evaluation, and norm arrays above the
    lattice-size limit by the p-norm, before the symbol is evaluated.  The
    symbol is evaluated on the hull (``field.index``) alone, at ``|eta|^2 =
    a0^2 + eta1^2 + rho^2``; ``m F`` vanishes off it, so this is exact.
    """
    _check_norm(field.shape, p, q)
    if spec.d != field.d:
        raise ValueError(f"the symbol has d = {spec.d}, the witness "
                         f"d = {field.d}")
    if not np.any(field.coef):
        raise ValueError("field is identically zero")
    denom = _radial_norm(field, field.coef, p)
    axes = np.meshgrid(*(a[i] for a, i in zip(field.freq_axes(),
                                              field.index)),
                       indexing="ij", sparse=True)
    m = eval_from_radial(spec, sum(a ** 2 for a in axes[:-1]), axes[-1])
    return _radial_norm(field, m * field.coef, q) / denom


#: complex elements per block of axis-0 rows (`_block_rows`): a block and
#: its float scratch stay in cache; it holds one row at least
_BLOCK = 2 ** 12
#: float elements per chunk of a block's scratch (`_space_pass`)
_CHUNK = 2 ** 16


def _block_rows(shape: tuple[int, ...]) -> int:
    """Rows of axis 0 per block of `_BLOCK` elements of a ``shape`` array."""
    return min(shape[0], max(1, _BLOCK // math.prod(shape[1:])))


def _radial_norm(field: KnappField, coef: np.ndarray, r: float) -> float:
    """The L^r norm of the function with the coefficients ``coef`` on
    ``field``'s hull; ``coef`` is not written into.

    The space side is radial in ``x'`` in R^m, and is sampled at the radii
    ``r_l = l L / n``, ``l = 0..n/2``, of the ρ axis.  Row ``l`` of the
    kernel, ``(2 pi)^-m w_j rho_j^(m-1) sphere_hat(m, rho_j r_l)`` (``w_j =
    2 pi / L``), times ``c_l^(1/r)`` for the nonnegative radial weight ``c_l
    = sphere_hat(m, 0) r_l^(m-1) L / n``, maps the coefficients to the
    radius's (a0, [η1], τ) cross-section; `_space_pass` inverse-transforms
    the cross-sections and sums ``|c_l^(1/r) y|^r = c_l |y|^r``.  Both
    radial sums are trapezoids (halved at 0 and n/2) of even functions, as m
    is odd: at m = 1 the folded Cartesian sums, else spectrally accurate.
    The rows are one real ``einsum`` of the kernel with the C-contiguous
    coefficients, read as floats (real and imaginary parts side by side)
    when complex.  `check_lattice_size` refuses the cross-sections' rows
    before they are formed, and `_space_pass` its block.
    """
    index, shape = field.index, field.shape
    m, n = field.d + 1 - len(shape), shape[-2]
    check_lattice_size((n // 2 + 1, coef.size // len(index[-2])))
    *cells, dr, dt = field.spacings
    cell = math.prod(cells) * dt
    h = 2.0 * math.pi / field.periods[-2]
    rho, radii = h * index[-2], dr * np.arange(n // 2 + 1)
    w = np.where((index[-2] == 0) | (index[-2] == n // 2), 0.5 * h, h)
    weights = sphere_hat(m, 0.0) * radii ** (m - 1) * dr
    weights[[0, -1]] *= 0.5
    kernel = (weights[:, None] ** (1.0 / r) * w * rho ** (m - 1)
              * sphere_hat(m, np.outer(radii, rho)))
    scale = np.abs(kernel).max()  # at large m, |y|^r would underflow
    kernel /= scale
    cols = np.moveaxis(coef, -2, 0).reshape(len(rho), -1)
    cols = np.ascontiguousarray(cols, np.result_type(cols, float))
    # einsum, not @: see tests/test_no_threaded_blas.py
    rows = np.einsum("lj,jk->lk", kernel, cols.view(float))
    if np.iscomplexobj(cols):
        rows = rows.view(complex)
    others = shape[:-2] + shape[-1:]
    live = np.ravel_multi_index(np.ix_(*index[:-2], index[-1]), others)
    total = _space_pass(rows, live.ravel(), others, r, False)
    return float(scale / (cell * (2.0 * math.pi) ** m)
                 * (total * cell) ** (1.0 / r))


def _on_lines(values: np.ndarray, live: np.ndarray) -> np.ndarray:
    """``values`` on its τ-lines (along the last axis, numbered in the C
    order of the others) numbered ``live``, as a contiguous ``(n_tau, K)``
    array."""
    return np.ascontiguousarray(values.reshape(-1, values.shape[-1])[live].T)


def _live_lines(grid: Grid, spec: SymbolSpec
                ) -> tuple[np.ndarray, np.ndarray]:
    """The symbol's live τ-lines: ``(live, mk)``, the ascending numbers of
    the τ-lines that carry a nonzero sample and ``m`` on them, a
    contiguous ``(n_tau, K)`` array (`_on_lines`).

    The paper's symbols degenerate on ``{|eta| = 1, tau = 0}``, so their
    support meets few τ-lines.  A τ-line is seen only through its
    ``|eta|^2``, so the symbol is sampled on the distinct ``|eta|^2``, a
    block (`_block_rows`) of them at a time, each block keeps its live
    rows, and each line takes its row's samples; neither the samples nor a
    mask of them exists at full size.
    """
    if spec.d != len(grid.shape):
        raise ValueError(f"got {len(grid.shape)} axes for d = {spec.d}")
    *axes, tau = grid.freq_axes()
    eta_sq = sum(g ** 2 for g in np.meshgrid(*axes, indexing="ij",
                                             sparse=True))
    radii, radius = np.unique(eta_sq.ravel(), return_inverse=True)
    rows, kept = [], []
    b = _block_rows((len(radii), len(tau)))
    for t in range(0, len(radii), b):
        m = eval_from_radial(spec, radii[t:t + b, None], tau)
        on = np.flatnonzero(np.any(m != 0, axis=1))
        rows.append(t + on)
        kept.append(m[on].T)
        del m  # before the next block is sampled
    mk = np.empty((len(tau), sum(k.shape[1] for k in kept)), kept[0].dtype)
    rows, mk = np.concatenate(rows), np.concatenate(kept, axis=1, out=mk)
    live = np.flatnonzero(np.isin(radius, rows))
    return live, np.take(mk, np.searchsorted(rows, radius[live]), axis=1)


def _noise_lines(rng: np.random.Generator, shape: tuple[int, ...],
                 live: np.ndarray, mk: np.ndarray) -> np.ndarray:
    """A complex Gaussian field on the ``shape`` lattice, times the support
    of the symbol ``mk``, on its live τ-lines.

    The normals come in the order of one full-size draw of the real parts
    and then one of the imaginary parts, a block of axis-0 rows at a time
    (`_block_rows`), each gathered straight onto the lines it holds.
    """
    lines = np.empty(mk.shape, complex)
    per_row = math.prod(shape[1:-1])
    b = _block_rows(shape)
    for part in (lines.real, lines.imag):
        for t in range(0, shape[0], b):
            draw = rng.standard_normal((min(b, shape[0] - t),) + shape[1:])
            j0, j1 = np.searchsorted(live, (t * per_row,
                                            (t + len(draw)) * per_row))
            part[:, j0:j1] = _on_lines(draw, live[j0:j1] - t * per_row)
    lines[mk == 0] = 0.0
    return lines


def _runs(index: np.ndarray) -> list[slice]:
    """The maximal runs of consecutive numbers in ``index``, found on a mask
    (a plain ``np.unique`` would import ``numpy.ma``)."""
    hit = np.bincount(index + 1, minlength=1) > 0
    edges = np.flatnonzero(np.diff(hit, append=False))
    return [slice(a, z) for a, z in zip(edges[::2], edges[1::2])]


def _space_pass(lines: np.ndarray, live: np.ndarray,
                others: tuple[int, ...], q: float, pull_back: bool,
                even: bool = False) -> float:
    """``sum |g|^q`` for ``g`` the space side of ``lines``; with
    ``pull_back``, ``g *= |g|^(q-2)``, its dual, whose live lines then
    replace ``lines``.

    ``lines`` is ``(n_axis, K)``, already on the space side along its
    first axis (τ for the power iteration, the radius for `_radial_norm`);
    ``live`` numbers its columns among the entries of a cross-section of
    shape ``others``.  A block of cross-sections, checked by
    `check_lattice_size` first, is zeroed, gets its live entries and is
    inverse-transformed in place an axis at a time, the last axis first on
    the runs of lines holding a live entry only.  Float scratch of `_CHUNK`
    elements takes ``sq = |g|^2 = re^2 + im^2`` and ``w = sq^((q-2)/2)``
    (zeros stay zero for q < 2) a chunk at a time, and the sum gets
    ``sum(sq * w)``; with ``pull_back``, ``g *= w``, the forward transform,
    its last stage (the first axis) on pencils holding a live output only,
    and gather.  With ``even`` (`_even_run`), the block holds the real parts on
    the quadrant of ``n_i / 2 + 1`` indices, ``k`` standing for ``k`` and
    ``n_i - k``, a stage is a DCT-I (`_dct1`), and a point counts 2^(its
    axes off 0 and ``n_i / 2``).
    """
    n_axis = lines.shape[0]
    b = _block_rows((n_axis,) + others)
    check_lattice_size((b,) + others)
    shape, folded, at, cols = others, live, live, slice(None)
    if even:
        shape = tuple(n // 2 + 1 for n in others)
        folded = np.ravel_multi_index(tuple(np.minimum(i, n - i) for i, n in
                                            zip(np.unravel_index(live, others),
                                                others)), shape)
        at, cols = np.unique(folded, return_index=True)
        off = (np.sign(np.arange(h) % (h - 1)) for h in shape)  # 0 at 0, n/2
        mult = np.tile((2.0 ** sum(np.ix_(*off))).ravel(), b)
    buf = np.empty((b,) + shape, float if even else complex)

    def stage(x: np.ndarray, axis: int, inverse: bool) -> None:
        if even:
            _dct1(x, axis, x)
        elif inverse:
            np.fft.ifft(x, axis=axis, out=x)
        else:
            np.fft.fft(x, axis=axis, out=x)

    first = _runs(at // shape[-1])
    last = _runs(at % math.prod(shape[1:]))
    sq = np.empty(min(buf.size, _CHUNK))
    w = np.empty_like(sq)
    total = 0.0
    for t in range(0, n_axis, b):
        rows = lines[t:t + b]
        block = buf[:len(rows)]
        flat = block.reshape(len(rows), -1)
        flat.fill(0.0)
        # the inverse DFT's 1 / prod(n_i) is a power of two
        flat[:, at] = rows[:, cols].real / math.prod(others) if even else rows
        for run in first:
            stage(block.reshape(len(rows), -1, shape[-1])[:, run], 2, True)
        for axis in range(len(shape) - 1, 0, -1):
            stage(block, axis, True)
        g = flat.reshape(-1)
        for c in range(0, g.size, sq.size):
            gc = g[c:c + sq.size]
            s, wc = sq[:gc.size], w[:gc.size]
            parts = (gc,) if even else (gc.real, gc.imag)
            np.multiply(parts[0], parts[0], out=s)
            if not even:
                s += np.multiply(gc.imag, gc.imag, out=wc)
            np.copyto(wc, s)
            _power_in_place(wc, 0.5 * q - 1.0)
            if pull_back:
                for part in parts:  # gc *= wc would cast wc
                    part *= wc
            s *= wc
            if even:
                s *= mult[c:c + gc.size]
            total += np.sum(s)
        if pull_back:
            for axis in range(len(shape), 1, -1):
                stage(block, axis, False)
            for run in last:
                stage(block.reshape(len(rows), shape[0], -1)[:, :, run], 1,
                      False)
            rows[...] = flat[:, folded]
    return float(total)


def _even_run(shape: tuple[int, ...], live: np.ndarray,
              lines: np.ndarray, mk: np.ndarray) -> bool:
    """Whether each iterate from ``lines`` under ``mk`` on the τ-lines
    ``live`` is real and even in every η axis in space: the η axes have even
    lengths, and ``lines`` and ``mk`` are exactly even under negated η
    indices and Hermitian under negated τ, as each step keeps."""
    others, n_tau = shape[:-1], shape[-1]
    neg = np.ravel_multi_index(tuple(-i % n for i, n in zip(
        np.unravel_index(live, others), others)), others)
    mirror = np.searchsorted(live, neg).clip(max=live.size - 1)
    tau = -np.arange(n_tau // 2 + 1) % n_tau  # t and -t, each pair once
    return not any(n % 2 for n in others) and np.array_equal(
        live[mirror], neg) and all(  # one copy of x at a time
        np.array_equal(x[:, mirror], x)
        and np.array_equal(x[tau], np.conj(x[:len(tau)])) for x in (lines, mk))


def power_method(grid: Grid, live: tuple[np.ndarray, np.ndarray],
                 lines: np.ndarray, q: float, *, max_iter: int = 24,
                 tol: float = 1e-4) -> NormEstimate:
    """Boyd power iteration for ``||m(D)||_{2 -> q}`` on the lattice
    ``grid``, from the start whose coefficients ``F`` are ``lines`` on the
    symbol's live τ-lines ``live`` (`_live_lines`) and zero elsewhere.

    Each step maps the current unit-in-L^2 field through the multiplier,
    records the quotient, then pulls the L^q norming function back through
    the adjoint (the multiplier with conjugated symbol).  Stops on relative
    stagnation below ``tol`` or at the ``max_iter``-th quotient, before the
    pull-back that quotient would feed; a non-finite iterate aborts the run
    and returns the best bound collected so far.  The run takes ``lines``
    over and writes into it; the caller checks the exponents.  A
    ``max_iter`` below 1 is refused, as it would certify nothing.

    The loop works on raw arrays of the field's space samples
    ``y = ifftn(F / cell_volume)`` (`spectral`): the cell volume cancels
    between ``fftn`` and ``ifftn``, and it enters each norm only as the
    factor ``cell_volume ** (1/r)``.  The L^2 dualization is the identity,
    so between steps the iterate stays on the frequency side, as the
    compact ``(n_tau, K)`` array of its live τ-lines; on A8's rings 3% of
    the τ-lines are live.  A step transforms τ on the live lines alone,
    around `_space_pass`, which runs the other axes, the q-side norm and the
    dualization one block of cross-sections at a time (on real quadrants
    from a start passing `_even_run`, as a ring's symbol start does); the
    ``max_iter``-th quotient's pass skips the pull-back.  The iterate's norm
    is Parseval's ``||f||_2^2 = cell_volume / N * sum |fftn(y)|^2`` over the
    ``N`` samples, summed over the live lines.  So the run holds no
    full-size array, only the lines, a block and its scratch.
    """
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got max_iter={max_iter}")
    numbers, mk = live
    even = _even_run(grid.shape, numbers, lines, mk)
    cell = grid.cell_volume
    cell_per_n = cell / math.prod(grid.shape)
    lines /= cell
    mkc = np.conj(mk)
    others = grid.shape[:-1]
    history: list[float] = []
    aborted = False
    for step in range(max_iter):
        nf = sample_lp_norm(lines, 2.0, cell_per_n)
        if not np.isfinite(nf) or nf == 0.0:
            aborted = True
            break
        lines *= mk
        lines *= 1.0 / nf
        np.fft.ifft(lines, axis=0, out=lines)
        last = step == max_iter - 1
        s = float((_space_pass(lines, numbers, others, q, not last, even)
                   * cell) ** (1.0 / q))
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


def estimate_operator_norm(grid: Grid, symbol: SymbolSpec, p: float,
                           q: float, *, seed: int = 0, n_random: int = 3,
                           max_iter: int = 24, tol: float = 1e-4
                           ) -> NormEstimate:
    """Best certified lower bound for ``||m(D)||_{2 -> q}`` on the lattice
    ``grid`` over a small family of `power_method` restarts.

    Exponents other than p = 2, 1 < q < infinity, a lattice of one axis,
    ``max_iter < 1``, ``n_random < 0``, ``tol < 0`` and a ``seed`` that is
    not a nonnegative integer are refused before any sampling.  The symbol
    is sampled once, on the distinct ``|eta|^2`` a block at a time, into
    the live τ-lines every run shares (`_live_lines`).  Restart seeds, each
    built on those lines just before its run and dropped after it: the
    conjugated symbol itself as a frequency profile (the natural L^2
    maximiser, a strong generic start), then ``n_random`` complex Gaussian
    fields supported where the symbol is nonzero, drawn from one seeded Philox
    stream, real parts first (`_noise_lines`).  So neither the symbol, nor
    its support, nor any start exists at full size.

    ``upper`` interpolates (Riesz-Thorin) between the exact ``||T||_{2 ->
    2} = max |m|`` and ``||T||_{2 -> inf} = (sum |m|^2 / V)^(1/2)``
    (Cauchy-Schwarz and Parseval, ``V`` the box volume); below q = 2 it is
    the first times Hölder's ``V^(1/q - 1/2)``.
    """
    if p != 2.0:
        raise ValueError(f"the power iteration runs at p = 2 only, got p={p}")
    _check_norm(grid.shape, p, q)
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got max_iter={max_iter}")
    if n_random < 0:
        raise ValueError(f"need n_random >= 0, got n_random={n_random}")
    if not tol >= 0.0:
        raise ValueError(f"need tol >= 0, got tol={tol}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"need a nonnegative integer seed, got seed={seed!r}")
    live = _live_lines(grid, symbol)
    numbers, mk = live
    if not numbers.size:
        raise ValueError("symbol vanishes on the whole frequency lattice")

    def starts():
        yield np.conj(mk)
        rng = np.random.Generator(np.random.Philox(seed))
        for _ in range(n_random):
            yield _noise_lines(rng, grid.shape, numbers, mk)

    best: NormEstimate | None = None
    hist: list[float] = []
    total_iter = 0
    aborted = False
    for lines in starts():
        est = power_method(grid, live, lines, q, max_iter=max_iter, tol=tol)
        del lines  # before the next start
        hist.extend(est.history)
        total_iter += est.iterations
        aborted = aborted or est.aborted
        if best is None or est.value > best.value:
            best = est
    size = np.abs(mk)
    top, volume = float(size.max()), grid.cell_volume * math.prod(grid.shape)
    energy = float(np.einsum("ij,ij->", size, size)) / volume
    upper = top * volume ** (1.0 / q - 0.5) if q < 2.0 \
        else top ** (2.0 / q) * energy ** (0.5 - 1.0 / q)
    return NormEstimate(value=best.value, iterations=total_iter,
                        history=tuple(hist), aborted=aborted, upper=upper)


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

    @property
    def local_slopes(self) -> tuple[float, ...]:
        """The slope between each two consecutive pairs, in their order:
        one per octave on octave-spaced scales."""
        lx, ly = np.log2(self.pairs).T
        return tuple((np.diff(ly) / np.diff(lx)).tolist())


def fit_scaling(eps_values: Sequence[float],
                values: Sequence[float]) -> ScalingFit:
    eps_arr = np.asarray(eps_values, dtype=float)
    val_arr = np.asarray(values, dtype=float)
    if eps_arr.shape != val_arr.shape or eps_arr.size < 2:
        raise ValueError("need matching sequences of at least two measurements")
    if not (np.all(eps_arr > 0) and np.all(val_arr > 0)):
        raise ValueError("scaling fits need positive eps and values")
    if len(set(eps_arr.tolist())) != eps_arr.size:
        raise ValueError("eps values must be distinct for a slope fit")
    lx = np.log2(eps_arr)
    ly = np.log2(val_arr)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(pairs=tuple(zip(eps_arr.tolist(), val_arr.tolist())),
                      slope=float(slope),
                      max_residual=float(np.max(np.abs(resid))))
