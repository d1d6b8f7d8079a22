"""Smooth compactly supported cutoffs with analytic derivatives.

Everything here is assembled from the classical transition step

    S(t) = B(t) / (B(t) + B(1 - t)),    B(t) = exp(-1/t) for t > 0 else 0,

which rises monotonically from 0 to 1 across [0, 1] and is flat to infinite
order at both ends.  Derivatives of B are B^(l)(t) = P_l(1/t) exp(-1/t) with
P_0 = 1 and P_{l+1}(u) = u^2 (P_l(u) - P_l'(u)).  Derivatives of S follow by
differentiating f = S * g with f = B(t) and g = B(t) + B(1 - t), which stays
bounded away from 0 on [0, 1], so the forward recurrence below is stable and
no numerical differentiation is ever needed.

That recurrence yields every lower order on the way to the one asked for, so
derivatives travel as *jets*: ``jet(t, m)`` returns one ``(m + 1,) +
shape(t)`` array whose row ``i`` is the i-th derivative (Taylor arithmetic,
Griewank & Walther, *Evaluating Derivatives*, 2008).  `smooth_step_jet`
evaluates ``exp(-1/t)`` once per side and each ``P_l(1/t)`` once;
`PlateauBump` multiplies two step jets by Leibniz' rule and `InversionImage`
applies its chain-rule term table to the base jet.  A cutoff's
``__call__(t, order)`` is row ``order`` of its jet, or the jet is the stack
of its ``__call__`` rows (the `CutoffSpec` default), so each class has one
derivative implementation.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

MAX_DERIVATIVE_ORDER = 10

# exp(-1/t) underflows to exactly 0.0 long before t gets here; below this the
# polynomial prefactor could overflow on its own, so clamp the result to 0.
_T_FLOOR = 1e-12


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds what is configured/available."""


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise DerivativeOrderError(
            f"derivative order {order} outside [0, {MAX_DERIVATIVE_ORDER}]"
        )


@functools.lru_cache(maxsize=None)
def _transition_poly(l: int) -> np.polynomial.Polynomial:
    # P_0 = 1, P_{l+1}(u) = u^2 (P_l(u) - P_l'(u))
    if l == 0:
        return np.polynomial.Polynomial([1.0])
    prev = _transition_poly(l - 1)
    shifted = prev - prev.deriv()
    return np.polynomial.Polynomial(np.concatenate(([0.0, 0.0], shifted.coef)))


@functools.lru_cache(maxsize=None)
def _transition_coef(l: int) -> tuple[float, ...]:
    # highest power first, for Horner's rule
    return tuple(float(c) for c in _transition_poly(l).coef[::-1])


def _exp_jet(t: np.ndarray, m: int) -> np.ndarray:
    """Rows B^(0..m)(t) elementwise; identically 0 for t <= 0."""
    out = np.zeros((m + 1,) + t.shape)
    mask = t > _T_FLOOR
    if np.any(mask):
        tm = t[mask]
        with np.errstate(under="ignore"):
            e = np.exp(-1.0 / tm)
            out[0][mask] = e
            if m:
                u = 1.0 / tm
                for l in range(1, m + 1):
                    # Horner, in the operation order of Polynomial.__call__
                    lead, *rest = _transition_coef(l)
                    p = lead + u * 0.0
                    for c in rest:
                        p = c + p * u
                    out[l][mask] = p * e
    return out


def smooth_step_jet(t, m: int) -> np.ndarray:
    """Rows S^(0..m)(t): an array of shape ``(m + 1,) + shape(t)``."""
    _check_order(m)
    t_arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t_arr)
    out = np.zeros((m + 1,) + flat.shape)
    out[0][flat >= 1.0] = 1.0
    inner = (flat > 0.0) & (flat < 1.0)
    if np.any(inner):
        ti = flat[inner]
        f = _exp_jet(ti, m)
        b = _exp_jet(1.0 - ti, m)
        g = [f[l] + (-1.0) ** l * b[l] for l in range(m + 1)]
        s = [f[0] / g[0]]
        for n in range(1, m + 1):
            acc = f[n].copy()
            for i in range(n):
                acc -= math.comb(n, i) * s[i] * g[n - i]
            s.append(acc / g[0])
        for n, s_n in enumerate(s):
            out[n][inner] = s_n
    return out if t_arr.ndim else out[:, 0]


def _row(jet: np.ndarray, order: int):
    """Row ``order`` of a jet, as a float when the jet was taken at a scalar."""
    row = jet[order]
    return float(row) if row.ndim == 0 else row


def smooth_step(t, order: int = 0):
    """S(t), or its analytic derivative of the given order.

    S is 0 for t <= 0, 1 for t >= 1, and strictly increasing in between; all
    derivatives vanish outside (0, 1).
    """
    return _row(smooth_step_jet(t, order), order)


def psi0(t, order: int = 0):
    """Low-pass profile 1 - S(|t| - 1): equals 1 on [-1, 1], 0 outside [-2, 2]."""
    _check_order(order)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    s = smooth_step(np.abs(t_arr) - 1.0, order)
    if order == 0:
        out = 1.0 - s
    else:
        sign = np.where(t_arr < 0.0, -1.0, 1.0)
        out = -(sign ** order) * s
    return float(out[0]) if scalar else out


def psi(t, order: int = 0):
    """Dyadic annulus bump psi = psi0 - psi0(2 .), supported on 1/2 <= |t| <= 2.

    Telescoping gives sum_j psi(2^-j t) = 1 for every t != 0 exactly.
    """
    two_t = np.asarray(t, dtype=float) * 2.0
    return psi0(t, order) - (2.0 ** order) * psi0(two_t, order)


class CutoffSpec:
    """Base class: a smooth profile evaluable with analytic t-derivatives.

    ``support`` is a closed hull [lo, hi] outside of which the profile and all
    of its derivatives vanish identically.
    """

    support: tuple[float, float] = (-math.inf, math.inf)
    max_order: int = MAX_DERIVATIVE_ORDER

    def __call__(self, t, order: int = 0):
        raise NotImplementedError

    def jet(self, t, m: int) -> np.ndarray:
        """Derivatives of orders 0..m at t, stacked as ``(m + 1,) + shape(t)``."""
        return np.stack([np.asarray(self(t, i), dtype=float)
                         for i in range(m + 1)])

    def derivative(self, shift: int = 1) -> "DerivativeCutoff":
        return DerivativeCutoff(self, shift)


class Psi0Cutoff(CutoffSpec):
    support = (-2.0, 2.0)

    def __call__(self, t, order: int = 0):
        return psi0(t, order)


class PsiCutoff(CutoffSpec):
    # hull only: the profile also vanishes identically on (-1/2, 1/2)
    support = (-2.0, 2.0)

    def __call__(self, t, order: int = 0):
        return psi(t, order)


class DerivativeCutoff(CutoffSpec):
    """A fixed derivative of another cutoff, itself exposed as a cutoff."""

    def __init__(self, base: CutoffSpec, shift: int):
        if shift < 0:
            raise ValueError("derivative shift must be nonnegative")
        if shift > base.max_order:
            raise DerivativeOrderError(
                f"shift {shift} exceeds base cutoff's max order {base.max_order}"
            )
        self.base = base
        self.shift = shift
        self.support = base.support
        self.max_order = base.max_order - shift

    def __call__(self, t, order: int = 0):
        if order > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {order}+{self.shift} exceeds {self.base.max_order}"
            )
        return self.base(t, order + self.shift)


class CustomCutoff(CutoffSpec):
    """Wrap a user-supplied fn(t, order) with a declared support hull."""

    def __init__(self, fn, support: tuple[float, float], max_order: int = 0):
        self.fn = fn
        self.support = (float(support[0]), float(support[1]))
        self.max_order = int(max_order)

    def __call__(self, t, order: int = 0):
        if order > self.max_order:
            raise DerivativeOrderError(
                f"custom cutoff provides derivatives up to {self.max_order}, got {order}"
            )
        return self.fn(t, order)


class PlateauBump(CutoffSpec):
    """Rises smoothly on [a, b], equals 1 on [b, c], falls back to 0 on [c, d]."""

    def __init__(self, a: float, b: float, c: float, d: float):
        if not a < b <= c < d:
            raise ValueError("plateau knots must satisfy a < b <= c < d")
        self.knots = (float(a), float(b), float(c), float(d))
        self.support = (float(a), float(d))

    def __call__(self, t, order: int = 0):
        return _row(self.jet(t, order), order)

    def jet(self, t, m: int) -> np.ndarray:
        # Leibniz: (up * down)^(n) = sum_i C(n, i) up^(i) down^(n-i)
        a, b, c, d = self.knots
        t_arr = np.asarray(t, dtype=float)
        rise = smooth_step_jet((t_arr - a) / (b - a), m)
        fall = smooth_step_jet((t_arr - c) / (d - c), m)
        up = [rise[i] / (b - a) ** i for i in range(m + 1)]
        down = [1.0 - fall[0]]
        down += [-fall[j] / (d - c) ** j for j in range(1, m + 1)]
        out = np.zeros_like(rise)
        for n in range(m + 1):
            for i in range(n + 1):
                out[n] += math.comb(n, i) * up[i] * down[n - i]
        return out


class SymmetricPlateau(CutoffSpec):
    """Even plateau bump: 1 on [-w, w], 0 outside [-2w, 2w]."""

    def __init__(self, half_width: float):
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        self.half_width = float(half_width)
        self.support = (-2.0 * self.half_width, 2.0 * self.half_width)

    def __call__(self, t, order: int = 0):
        _check_order(order)
        w = self.half_width
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        s = smooth_step((np.abs(t_arr) - w) / w, order)
        if order == 0:
            out = 1.0 - s
        else:
            sign = np.where(t_arr < 0.0, -1.0, 1.0)
            out = -(sign ** order) * s / w ** order
        return float(out[0]) if scalar else out


class InversionImage(CutoffSpec):
    """The profile ``t^power * base(1/t)``: an annulus bump pulled through
    t -> 1/t.

    With ``power = 2s - d`` this is the radial profile whose inversion
    transform is exactly ``base(|x|)``, so the pair (image in the continuum,
    base on the grid) shares one set of analytic derivatives.  The image may
    ramp much more sharply than the base near its inner edge; that is fine,
    because only the base is ever sampled.
    """

    def __init__(self, base: CutoffSpec, power: float):
        lo, hi = base.support
        if not 0.0 < lo < hi < math.inf:
            raise ValueError("base support must be a bounded annulus away "
                             "from 0")
        self.base = base
        self.power = float(power)
        self.support = (1.0 / hi, 1.0 / lo)
        self.max_order = base.max_order

    def __call__(self, t, order: int = 0):
        return _row(self.jet(t, order), order)

    def jet(self, t, m: int) -> np.ndarray:
        _check_order(m)
        t_arr = np.asarray(t, dtype=float)
        safe = np.where(t_arr > 0.0, t_arr, 1.0)
        base = self.base.jet(1.0 / safe, m)
        out = np.zeros((m + 1,) + t_arr.shape)
        powers: dict[float, np.ndarray] = {}
        terms = {(0, self.power): 1.0}
        for n in range(m + 1):
            if n:
                # d/dt [t^p f^(i)(1/t)] = p t^(p-1) f^(i)(1/t)
                #                         - t^(p-2) f^(i+1)(1/t)
                new: dict[tuple[int, float], float] = {}
                for (i, p), c in terms.items():
                    if c * p != 0.0:
                        new[(i, p - 1.0)] = new.get((i, p - 1.0), 0.0) + c * p
                    new[(i + 1, p - 2.0)] = new.get((i + 1, p - 2.0), 0.0) - c
                terms = new
            for (i, p), c in terms.items():
                if p not in powers:
                    powers[p] = safe ** p
                out[n] += c * powers[p] * base[i]
        return np.where(t_arr > 0.0, out, 0.0)


def inversion_bump(s: float, d: int = 3) -> InversionImage:
    """Annulus profile whose inversion transform is grid-friendly.

    The returned profile is the exact inversion image (power 2s - d) of a
    plateau bump with equal ramp widths in r -- the quantity a sampling grid
    actually resolves -- sized for a period-5 box: the grid-side bump lives
    on [0.41, 2.46], so its periodic copies never overlap it.
    """
    return InversionImage(PlateauBump(0.41, 1.40, 1.47, 2.46), 2.0 * s - d)


def eval_cutoff(spec, t, order: int = 0):
    """Evaluate a cutoff (or any plain callable) with the given derivative order."""
    if isinstance(spec, CutoffSpec):
        return spec(t, order)
    if callable(spec):
        if order:
            raise DerivativeOrderError("plain callables expose no derivatives")
        return spec(t)
    raise TypeError(f"not a cutoff: {spec!r}")


def bump_fingerprint() -> str:
    """Short hex id of the concrete transition family, recorded in run reports.

    Constants measured in sharpness experiments depend on the bump choice, so
    every output file carries this tag.
    """
    grid = np.linspace(0.0, 1.0, 129)
    sample = np.concatenate([smooth_step(grid), psi(np.linspace(-2.5, 2.5, 101))])
    return hashlib.sha256(sample.tobytes()).hexdigest()[:16]
