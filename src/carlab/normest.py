"""Operator-norm estimation and scaling-law bookkeeping.

Two jobs live here.  First, certified lower bounds for multiplier norms
``L^p -> L^q`` via a Boyd-style power iteration on grid fields: every iterate
produces a genuine Rayleigh quotient ``||Tf||_q / ||f||_p``, so the running
maximum is a true lower bound up to lattice accuracy, whatever the iteration
does.  Second, the exact theoretical scaling exponents the experiments are
measured against, kept as `Fraction` arithmetic so the targets carry no
floating-point noise of their own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .regions import ExponentPoint
from .spectral import GridField, lp_norm, sample_lp_norm, sample_symbol


class ExponentKind(enum.Enum):
    """Which theoretical power of the small parameter a quantity follows."""

    ME_UPPER = "me_upper"          # operator norm bound, unscaled family
    ME_KNAPP = "me_knapp"          # thin-slab lower bound, unscaled family
    TILDE_UPPER = "tilde_upper"    # operator norm bound, rescaled family
    TILDE_LOWER = "tilde_lower"    # spread-witness lower bound, rescaled family
    TILDE_KNAPP = "tilde_knapp"    # thin-slab lower bound, rescaled family
    L2_RING = "l2_ring"            # ring-piece L^2 -> L^q bound, in 2^j eps


PointLike = Union[ExponentPoint, tuple, None]


def _coerce_point(point: PointLike) -> tuple[Fraction, Fraction]:
    if point is None:
        raise ValueError("this exponent kind needs an exponent point (x, y)")
    if isinstance(point, ExponentPoint):
        return point.x, point.y
    x, y = point
    return Fraction(x), Fraction(y)


def theoretical_exponent(kind: ExponentKind, d: int, k: int,
                         point: PointLike = None) -> Fraction:
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
    x, y = _coerce_point(point)
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
    p: float
    q: float
    iterations: int
    history: tuple[float, ...]
    aborted: bool = False


def _check_exponents(p: float, q: float) -> None:
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError(
            f"power iteration needs 1 < p, q < infinity, got p={p}, q={q}")


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
    scale = np.abs(vals)
    if r < 2.0:
        live = scale > 0
        np.power(scale, r - 2.0, out=scale, where=live)
    else:
        scale **= r - 2.0
    return vals * scale


def certified_lower_bound(field: GridField, symbol, p: float, q: float) -> float:
    """The Rayleigh quotient ``||m(D) f||_q / ||f||_p`` for this one field."""
    _check_exponents(p, q)
    m = sample_symbol(field, symbol)
    F = field.to_freq()
    denom = lp_norm(field, p)
    if not denom > 0:
        raise ValueError("field is identically zero")
    out = F.with_values(m * F.values, in_space=False)
    return lp_norm(out, q) / denom


def power_method(init: GridField, symbol, p: float, q: float, *,
                 max_iter: int = 24, tol: float = 1e-4) -> NormEstimate:
    """Boyd power iteration for ``||m(D)||_{p -> q}`` from one starting field.

    Each step maps the current unit-in-L^p field through the multiplier,
    records the quotient, then pulls the L^q norming function back through the
    adjoint (the multiplier with conjugated symbol) and renorms with the dual
    exponent.  Stops on relative stagnation below ``tol``; a non-finite
    iterate aborts the run and returns the best bound collected so far.

    The loop works on raw arrays in the grid's demodulated space coordinates
    ``y = ifftn(F / cell_volume)``, ``F`` the continuum-normalised
    coefficients; the field's space samples are ``y`` times the unimodular
    modulation phases.  Those phases commute with ``|.|``, the norms and
    `dualize`, the cell volume cancels between ``fftn`` and ``ifftn``, and it
    enters each norm only as the factor ``cell_volume ** (1/r)``.  So a step
    is four n-d FFTs, each in place on an array the loop owns: the dualized
    iterate is carried in space and never re-transformed for its norm.
    """
    _check_exponents(p, q)
    m = sample_symbol(init, symbol)
    mc = np.conj(m)
    p_dual = p / (p - 1.0)
    F = init.to_freq()
    cell = F.cell_volume
    y = F.values / cell
    np.fft.ifftn(y, out=y)
    history: list[float] = []
    aborted = False
    for _ in range(max_iter):
        nf = sample_lp_norm(y, p, cell)
        if not np.isfinite(nf) or nf == 0.0:
            aborted = True
            break
        g = np.fft.fftn(y, out=y)
        g *= m
        g *= 1.0 / nf
        np.fft.ifftn(g, out=g)
        s = sample_lp_norm(g, q, cell)
        if not np.isfinite(s):
            aborted = True
            break
        history.append(s)
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * s:
            break
        v = dualize(g, q)
        np.fft.fftn(v, out=v)
        v *= mc
        np.fft.ifftn(v, out=v)
        y = dualize(v, p_dual)
    best = max(history) if history else 0.0
    return NormEstimate(value=best, p=p, q=q, iterations=len(history),
                        history=tuple(history), aborted=aborted)


def estimate_operator_norm(grid: GridField, symbol, p: float, q: float, *,
                           seed: int = 0, n_random: int = 3,
                           extra_inits: Sequence[GridField] = (),
                           max_iter: int = 24, tol: float = 1e-4
                           ) -> NormEstimate:
    """Best certified lower bound over a small family of restarts.

    Restart seeds: the conjugated symbol itself as a frequency profile (the
    natural L^2 maximiser, a strong generic start), any caller-supplied
    fields, and ``n_random`` complex Gaussian fields supported where the
    symbol is nonzero, drawn from one seeded Philox stream.
    """
    m = sample_symbol(grid, symbol)
    support = m != 0
    if not support.any():
        raise ValueError("symbol vanishes on the whole frequency lattice")
    inits = [grid.with_values(np.conj(m), in_space=False)]
    inits.extend(extra_inits)
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(n_random):
        noise = rng.standard_normal(grid.shape) \
            + 1j * rng.standard_normal(grid.shape)
        inits.append(grid.with_values(noise * support, in_space=False))
    best: NormEstimate | None = None
    hist: list[float] = []
    total_iter = 0
    aborted = False
    for f0 in inits:
        est = power_method(f0, m, p, q, max_iter=max_iter, tol=tol)
        hist.extend(est.history)
        total_iter += est.iterations
        aborted = aborted or est.aborted
        if best is None or est.value > best.value:
            best = est
    return NormEstimate(value=best.value, p=p, q=q, iterations=total_iter,
                        history=tuple(hist), aborted=aborted)


# --- scaling fits ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law through (eps, value) measurements.

    The fit runs in base-2 logs: ``log2 value ~ slope * log2 eps +
    intercept``.  ``max_residual`` is the worst absolute log2 deviation, and
    ``theory`` the exact exponent the slope is compared against (NaN when no
    kind was supplied).
    """

    pairs: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    max_residual: float
    theory: float
    kind: ExponentKind | None = None


def fit_scaling(eps_values: Sequence[float], values: Sequence[float], *,
                kind: ExponentKind | None = None, d: int | None = None,
                k: int | None = None, point: PointLike = None) -> ScalingFit:
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
    theory = np.nan
    if kind is not None:
        theory = float(theoretical_exponent(kind, d, k, point))
    return ScalingFit(pairs=tuple(zip(eps_arr.tolist(), val_arr.tolist())),
                      slope=float(slope), intercept=float(intercept),
                      max_residual=float(np.max(np.abs(resid))),
                      theory=theory, kind=kind)
