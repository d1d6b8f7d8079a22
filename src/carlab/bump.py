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
evaluates ``exp(-1/t)`` once per side and each ``P_l(1/t)`` once, in place
(Horner skips the additions of P_l's zero coefficients), turns the second
side's jet into g's in place, and runs Leibniz through one scratch row.
`PlateauBump` assembles its jet on the flattened points: the plateau's row
0 is 1, and each ramp's step jet, taken on that ramp's points only and
rescaled to the ramp's width, is written back through the ramp's
``np.flatnonzero`` indices (the ramps never overlap, so Leibniz' product of
the two steps is one step's jet there; every other entry is 0).
`SymmetricPlateau` rescales one step jet in |t|, and `InversionImage`
sums each row once over the base rows u^i f^(i)(u), u = 1/t, with
closed-form chain-rule coefficients.  A cutoff's
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
    mask = t > _T_FLOOR
    inside = mask.all()
    tm = t if inside else t[mask]
    rows = np.empty((m + 1,) + tm.shape)
    with np.errstate(under="ignore"):
        e = np.exp(-1.0 / tm, out=rows[0])
        u = 1.0 / tm if m else None
        for l in range(1, m + 1):
            # Horner, in the operation order of Polynomial.__call__, less
            # the steps that add an exact 0.0 (P_l's l + 1 lowest ones)
            lead, *rest = _transition_coef(l)
            p = rows[l]
            p.fill(lead)
            for c in rest:
                p *= u
                if c:
                    p += c
            p *= e
    if inside:
        return rows
    out = np.zeros((m + 1,) + t.shape)
    out[:, mask] = rows
    return out


def smooth_step_jet(t, m: int) -> np.ndarray:
    """Rows S^(0..m)(t): an array of shape ``(m + 1,) + shape(t)``."""
    _check_order(m)
    t_arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(t_arr)
    inner = (flat > 0.0) & (flat < 1.0)
    inside = inner.all()
    ti = flat if inside else flat[inner]
    s = _exp_jet(ti, m)  # f, which turns into S row by row in place
    g = _exp_jet(1.0 - ti, m)  # B^(l)(1 - t), which turns into g in place
    g[0::2] += s[0::2]
    np.subtract(s[1::2], g[1::2], out=g[1::2])
    scratch = np.empty(ti.shape) if m else None
    for n in range(m + 1):
        for i in range(n):
            np.multiply(s[i], math.comb(n, i), out=scratch)
            scratch *= g[n - i]
            s[n] -= scratch
        s[n] /= g[0]
    out = s
    if not inside:
        out = np.zeros((m + 1,) + flat.shape)
        out[0, flat >= 1.0] = 1.0
        out[:, inner] = s
    return out if t_arr.ndim else out[:, 0]


def _row(jet: np.ndarray, order: int):
    """Row ``order`` of a jet, as a float when the jet was taken at a scalar."""
    row = jet[order]
    return float(row) if row.ndim == 0 else row


def smooth_step(t):
    """S(t): 0 for t <= 0, 1 for t >= 1, and strictly increasing in between.

    Its derivatives, which all vanish outside (0, 1), are the rows of
    `smooth_step_jet`.
    """
    return _row(smooth_step_jet(t, 0), 0)


def psi0(t, order: int = 0):
    """Low-pass profile 1 - S(|t| - 1): equals 1 on [-1, 1], 0 outside [-2, 2].

    This is the unit `SymmetricPlateau`.
    """
    return _UNIT_PLATEAU(t, order)


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

    def jet(self, t, m: int) -> np.ndarray:
        return _UNIT_PLATEAU.jet(t, m)


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
        # The ramps never overlap: on each, the other step is exactly 1 with
        # derivatives exactly 0, so Leibniz' product is its own jet there.
        a, b, c, d = self.knots
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        up, down = (flat - a) / (b - a), (flat - c) / (d - c)
        out = np.zeros((m + 1, flat.size))
        out[0, np.flatnonzero((up >= 1.0) & (down <= 0.0))] = 1.0
        # the fall factor is 1 - S((t - c) / (d - c))
        for x, width, sign in ((up, b - a, 1.0), (down, d - c, -1.0)):
            ramp = np.flatnonzero((x > 0.0) & (x < 1.0))
            rows = smooth_step_jet(x[ramp], m)
            rows /= np.array([[sign * width ** i] for i in range(m + 1)])
            rows[0] += (1.0 - sign) / 2.0
            out[:, ramp] = rows
        return out.reshape((m + 1,) + t_arr.shape)


class SymmetricPlateau(CutoffSpec):
    """Even plateau bump: 1 on [-w, w], 0 outside [-2w, 2w]."""

    def __init__(self, half_width: float):
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        self.half_width = float(half_width)
        self.support = (-2.0 * self.half_width, 2.0 * self.half_width)

    def __call__(self, t, order: int = 0):
        return _row(self.jet(t, order), order)

    def jet(self, t, m: int) -> np.ndarray:
        # 1 - S((|t| - w) / w): row n is -S^(n) / w^n, odd rows odd in t
        w = self.half_width
        t_arr = np.asarray(t, dtype=float)
        rows = smooth_step_jet((np.abs(t_arr) - w) / w, m)
        rows[0] = 1.0 - rows[0]
        if m:
            scale = np.array([-(w ** n) for n in range(1, m + 1)])
            rows[1:] /= scale.reshape((m,) + (1,) * t_arr.ndim)
            rows[1::2] *= np.where(t_arr < 0.0, -1.0, 1.0)
        return rows


_UNIT_PLATEAU = SymmetricPlateau(1.0)


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

    @property
    def knots(self) -> tuple[float, ...]:
        """The sorted reciprocals of the base's knots (or of its support)."""
        return tuple(sorted(1.0 / k for k in getattr(self.base, "knots",
                                                     self.base.support)))

    def jet(self, t, m: int) -> np.ndarray:
        # with u = 1/t, row n is t^(p-n) sum_i c[n][i] u^i f^(i)(u), where
        # c[n][i] = c[n-1][i] (p - n + 1 - i) - c[n-1][i-1]
        _check_order(m)
        t_arr = np.asarray(t, dtype=float)
        off = ~(t_arr.ravel() > 0.0)
        safe = np.where(off, 1.0, t_arr.ravel())
        u = 1.0 / safe
        terms = self.base.jet(u, m)
        u_i = np.ones_like(u)
        for row in terms[1:]:
            u_i *= u
            row *= u_i  # row i is u^i f^(i)(u)
        out = np.empty(terms.shape)
        scale = safe ** self.power  # t^(p-n): one more factor u per row
        c = [1.0]
        for n, row in enumerate(out):
            np.multiply(terms[0], c[0], out=row)
            for c_i, term in zip(c[1:], terms[1:]):
                row += c_i * term
            row *= scale
            if n < m:
                scale *= u
                c = [x * (self.power - n - i) - y for i, (x, y)
                     in enumerate(zip(c + [0.0], [0.0] + c))]
        out[:, off] = 0.0
        return out.reshape((m + 1,) + t_arr.shape)


def inversion_bump(s: float) -> InversionImage:
    """Annulus profile on R^3 whose inversion transform is grid-friendly.

    The returned profile is the exact inversion image (power 2s - 3) of a
    plateau bump with equal ramp widths in r -- the quantity a sampling grid
    actually resolves -- sized for a period-5 box: the grid-side bump lives
    on [0.41, 2.46], so its periodic copies never overlap it.
    """
    return InversionImage(PlateauBump(0.41, 1.40, 1.47, 2.46), 2.0 * s - 3)


def bump_fingerprint() -> str:
    """Short hex id of the concrete transition family, recorded in run reports.

    Constants measured in sharpness experiments depend on the bump choice, so
    every output file carries this tag.
    """
    grid = np.linspace(0.0, 1.0, 129)
    sample = np.concatenate([smooth_step(grid), psi(np.linspace(-2.5, 2.5, 101))])
    return hashlib.sha256(sample.tobytes()).hexdigest()[:16]
