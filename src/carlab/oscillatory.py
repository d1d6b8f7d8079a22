"""Radial lower-bound construction for the rescaled multiplier.

This module builds the explicit radial witness whose output under the
rescaled operator concentrates on a union of thin annuli, and provides
every numbered quantity that enters the chain of estimates:

* ``LowerBoundParams`` -- the Lorentzian window width ``lam`` fixed by a
  mass-balance equation (in closed form, ``4 tan(8 pi / 17)``), the
  derived annulus scale ``mu``, and the resonant-window constants.
* ``Phi5Spec`` -- the radial plateau profile pair: an even plateau bump
  ``varphi`` in the shifted variable, and the weighted profile ``phi``
  whose weight makes ``varphi`` exactly even about the resonance radius.
  Also the symbolic term tables produced by repeated application of
  ``T h = d/drho (h / rho)``.
* ``i_integral`` -- cosine/sine moments of the resonant Lorentzian kernel
  (four oscillatory variants, two oscillation-free ones, and the absolute
  majorant of the second, which is the quantity with the logarithmic law).
* ``mtilde_radial`` -- direct evaluation of the operator output at a
  space-time point, as a 2-D quadrature in (radius, dual time).
* ``j_decomposition`` -- the same quantity reassembled after integrating
  by parts down to a first-power denominator: one Bessel term per step.
* ``frak_s_sample`` -- radii in the resonant set where the top term
  dominates, plus the membership predicate used by the CLI.

All quadratures are pure functions; sweeps over (eps, radius) parallelize
trivially from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bessel import bessel_ju, sphere_hat
from .bump import SymmetricPlateau
from .quadrature import gauss_kronrod_batch, gauss_legendre_rule

#: Fixed Gauss-Legendre order for the dual-time integral; the integrand is a
#: compactly supported smooth profile times a unimodular phase, so a fixed
#: rule converges spectrally and 64 points are far past machine precision
#: for the |t| <= O(1) range the construction uses.
TAU_RULE_POINTS = 64

I_INTEGRAL_KINDS = ("1", "2", "3", "4", "tilde1", "tilde2", "tilde2_abs")


class EmptyWindowError(ValueError):
    """Raised when the resonant set contains no admissible radius."""


@dataclass(frozen=True)
class LowerBoundParams:
    """Constants steering the radial lower-bound experiment.

    Parameters
    ----------
    d, k : int
        Dimension and operator power, d >= 2, 1 <= k.
    eps : float
        Rescaling parameter in (0, 1].

    The other constants are the same for every (d, k, eps): ``lam``, the
    Lorentzian window width at which ``2 arctan(lam/4)``, the mass of
    ``1/(1+s^2)`` on [-lam/4, lam/4], reaches 2**4 times the tail mass
    ``pi - 2 arctan(lam/4)``, i.e. ``arctan(lam/4) = 8 pi / 17``; ``mu =
    2**-7 / lam``, the annulus scale, which saturates ``lam * mu <= 2**-7``;
    and the resonant-window constants, calibrated by the acceptance
    experiments: radii lie in [c1/eps, c2/eps] and within ``c0`` of the
    phase-aligned lattice.

    Measured: for |t| <= 6 the lower bound stays within a factor 2 of its
    t = 0 value.
    """

    d: int
    k: int
    eps: float

    lam: ClassVar[float] = 4.0 * math.tan(8.0 * math.pi / 17.0)
    mu: ClassVar[float] = 2.0 ** -7 / lam
    c0: ClassVar[float] = 2e-3
    c1: ClassVar[float] = 0.25
    c2: ClassVar[float] = 0.75

    def __post_init__(self) -> None:
        if self.d < 2 or self.k < 1:
            raise ValueError("need d >= 2 and k >= 1")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")

    @classmethod
    def make(cls, d: int, k: int, eps: float) -> "LowerBoundParams":
        """The parameter block at (d, k, eps), with ``eps`` as a float."""
        return cls(d=d, k=k, eps=float(eps))

    @property
    def alpha(self) -> float:
        """Phase offset of the resonant lattice: pi*(d + 2k - 4)/4."""
        return 0.25 * math.pi * (self.d + 2 * self.k - 4)


def annulus_radii(params: LowerBoundParams) -> tuple[float, float]:
    """The annulus [mu/(4 eps), mu/(2 eps)] where the plateau bounds hold."""
    return (params.mu / (4.0 * params.eps), params.mu / (2.0 * params.eps))


# ---------------------------------------------------------------------------
# Radial profile pair


def _falling(base: float, n: int) -> float:
    out = 1.0
    for j in range(n):
        out *= base - j
    return out


@dataclass(frozen=True)
class Phi5Spec:
    """Radial profile pair for the lower-bound witness.

    ``varphi(rho)`` is an even plateau bump about rho = 1: identically 1 on
    [1 - delta0, 1 + delta0], supported on [1 - 2*delta0, 1 + 2*delta0],
    with varphi(1 + r) = varphi(1 - r).  The weighted profile
    ``phi(rho) = rho**(-(d - 2k)/2) * varphi(rho)`` is the one the witness
    actually carries; the weight is exactly what the top term of the
    decomposition strips back off.

    ``tables`` holds the symbolic coefficient tables of the k - 1 fold
    application of ``T h = d/drho (h/rho)`` to ``rho**(d-2) * phi``: entry
    ``l`` maps ``(power, derivative_order) -> coeff`` and represents
    ``sum coeff * rho**power * phi^(order)(rho)``.
    """

    d: int
    k: int
    delta0: ClassVar[float] = 3.0 / 16
    tables: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.d < 2 or self.k < 1:
            raise ValueError("need d >= 2 and k >= 1")
        object.__setattr__(self, "_plateau", SymmetricPlateau(self.delta0))
        object.__setattr__(self, "tables", self._build_tables())

    @property
    def weight_power(self) -> float:
        return -0.5 * (self.d - 2 * self.k)

    @property
    def support(self) -> tuple[float, float]:
        return (1.0 - 2.0 * self.delta0, 1.0 + 2.0 * self.delta0)

    def varphi(self, rho, order: int):
        """Even plateau factor, evaluated in the shifted variable rho - 1."""
        return self._plateau(np.asarray(rho, dtype=float) - 1.0, order)

    def phi(self, rho):
        """Weighted profile rho**w * varphi(rho)."""
        return self._phi_jet(rho, 0)[0]

    def _phi_jet(self, rho, m: int) -> np.ndarray:
        """Rows phi^(0..m)(rho) by Leibniz' rule on one jet of varphi."""
        rho = np.asarray(rho, dtype=float)
        w = self.weight_power
        varphi = self._plateau.jet(rho - 1.0, m)
        safe = np.where(rho > 0.0, rho, 1.0)
        weight = [safe ** (w - i) for i in range(m + 1)]
        out = np.zeros((m + 1,) + rho.shape)
        for n in range(m + 1):
            acc = sum(math.comb(n, i) * _falling(w, i) * weight[i]
                      * varphi[n - i] for i in range(n + 1))
            out[n] = np.where(rho > 0.0, acc, 0.0)
        return out

    def _build_tables(self) -> tuple:
        """Coefficient tables after each reduction step, keyed (power, order)."""
        tables: list[dict] = [{(self.d - 2, 0): 1.0}]
        for _ in range(self.k - 1):
            new: list[dict] = [dict() for _ in range(len(tables) + 1)]
            for l, tab in enumerate(tables):
                for (p, dv), c in tab.items():
                    # T: c rho^p phi^(dv) -> c(p-1) rho^(p-2) phi^(dv)
                    #                        + c rho^(p-1) phi^(dv+1)
                    if c * (p - 1) != 0.0:
                        key = (p - 2, dv)
                        new[l][key] = new[l].get(key, 0.0) + c * (p - 1)
                    key = (p - 1, dv + 1)
                    new[l][key] = new[l].get(key, 0.0) + c
                # the shifted copy: previous level-l table feeds level l+1
                for key, c in tab.items():
                    new[l + 1][key] = new[l + 1].get(key, 0.0) + c
            tables = new
        return tuple(tables)

    def eval_table(self, l: int, rho) -> np.ndarray:
        """Evaluate coefficient table ``l`` at the given radii."""
        rho = np.asarray(rho, dtype=float)
        table = self.tables[l]
        phi = self._phi_jet(rho, max(dv for _, dv in table))
        out = np.zeros(rho.shape)
        for (p, dv), c in table.items():
            out = out + c * rho ** p * phi[dv]
        return out


# ---------------------------------------------------------------------------
# Oscillatory moments of the resonant kernel


def _grade_breakpoints(support: tuple[float, float], eps: float,
                       y_abs: float) -> list[float]:
    """Panel seeds inside ``support``, unsorted (`gauss_kronrod_batch` sorts
    them): dyadic grading into the eps-scale resonance layer at rho = 1,
    plus a uniform oscillation split at scale 1/|y|."""
    lo, hi = support
    pts = []
    if lo < 1.0 < hi:
        off = 0.5 * eps
        while off < hi - lo:
            for p in (1.0 - off, 1.0 + off):
                if lo < p < hi:
                    pts.append(p)
            off *= 2.0
        pts.append(1.0)
    if y_abs > 0.0:
        step = 0.5 * math.pi / max(y_abs, 1.0)
        pts.extend(np.arange(lo + step, hi - 0.5 * step, step))
    return pts


def i_integral(which, tau: float, y_abs: float, eps: float,
               profile) -> float:
    """One cosine/sine moment of the resonant Lorentzian kernel.

    ``which`` selects the numerator and oscillation factor:

    ========== ============================= =======================
    which      numerator                     oscillation
    ========== ============================= =======================
    1          2*eps*tau                     cos((rho-1)|y|)
    2          rho^2 - 1 + eps^2 tau^2       cos((rho-1)|y|)
    3          2*eps*tau                     sin((rho-1)|y|)
    4          rho^2 - 1 + eps^2 tau^2       sin((rho-1)|y|)
    tilde1     2*eps*tau                     (none)
    tilde2     rho^2 - 1 + eps^2 tau^2       (none)
    tilde2_abs |rho^2 - 1 + eps^2 tau^2|     (none)
    ========== ============================= =======================

    all divided by ``(rho^2 - 1 + eps^2 tau^2)^2 + 4 eps^2 tau^2`` and
    weighted by ``profile(rho)``.  ``tilde2_abs`` is the absolute majorant
    of ``tilde2``; it is the variant that genuinely grows like log(1/eps),
    while ``tilde2`` itself stays bounded for an even plateau profile
    because the odd part of its numerator cancels.

    ``profile`` is a callable of rho with a ``support`` attribute, the
    interval integrated over; the absolute tolerance is 1e-9.
    """
    key = str(which)
    if key not in I_INTEGRAL_KINDS:
        raise ValueError(f"unknown moment {which!r}; pick from {I_INTEGRAL_KINDS}")
    if not 0.5 <= tau <= 2.0:
        raise ValueError("tau must lie in [1/2, 2]")
    lo, hi = float(profile.support[0]), float(profile.support[1])

    et = eps * tau
    brk = _grade_breakpoints((lo, hi), eps, 0.0 if key.startswith("t") else y_abs)
    shift = 1.0 - et * et
    if key == "tilde2_abs" and lo * lo < shift < hi * hi:
        brk.append(math.sqrt(shift))

    def f(rho: np.ndarray) -> np.ndarray:
        a = rho * rho - 1.0 + et * et
        den = a * a + 4.0 * et * et
        if key in ("1", "3", "tilde1"):
            num = 2.0 * et * np.ones_like(rho)
        elif key == "tilde2_abs":
            num = np.abs(a)
        else:
            num = a
        if key in ("1", "2"):
            osc = np.cos((rho - 1.0) * y_abs)
        elif key in ("3", "4"):
            osc = np.sin((rho - 1.0) * y_abs)
        else:
            osc = 1.0
        return np.asarray(profile(rho), dtype=float) * num * osc / den

    vals, _ = gauss_kronrod_batch(f, lo, hi, abs_tol=1e-9,
                                  breakpoints=tuple(brk), max_panels=16384)
    return float(vals)


# ---------------------------------------------------------------------------
# The operator output at a point, by two routes on one quadrature


def _resonant_pairing(d: int, k: int, eps: float, spec: Phi5Spec,
                      y_abs: float, t: float, abs_tol: float | None,
                      bases, power: int) -> list:
    """``sum_tau w phi(tau) e^{i t tau} int base(rho) / den**power drho`` for
    each callable in ``bases``, ``den = rho^2 - 1 + eps^2 tau^2 + 2 i eps
    tau``, on the rules of `mtilde_radial`; refuses bad input up front."""
    if d != spec.d or k != spec.k:
        raise ValueError("profile spec was built for different (d, k)")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if abs_tol is None:
        abs_tol = 1e-8 * eps ** (0.5 * d - k)
    elif not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol!r}")
    nodes, weights = gauss_legendre_rule(TAU_RULE_POINTS, *spec.support)
    phase = weights * spec.phi(nodes) * np.exp(1j * t * nodes)
    brk = tuple(_grade_breakpoints(spec.support, eps, y_abs))

    tau2 = (eps * nodes[:, None]) ** 2
    two_eps_tau = 2.0 * eps * nodes[:, None]

    def pairing(base_fn):
        def f(rho: np.ndarray) -> np.ndarray:
            # den, den ** power and the quotient share one complex buffer
            den = np.empty((nodes.size, rho.size), complex)
            np.add(rho * rho - 1.0, tau2, out=den.real)
            den.imag[...] = two_eps_tau
            if power > 1:  # a complex ``** 1`` costs a full extra pass
                den **= power
            return np.divide(base_fn(rho), den, out=den)
        inner, _ = gauss_kronrod_batch(f, *spec.support, abs_tol=abs_tol,
                                       breakpoints=brk, max_panels=16384)
        return np.sum(phase * inner)

    return [pairing(base_fn) for base_fn in bases]


def mtilde_radial(d: int, k: int, eps: float, spec: Phi5Spec, y_abs: float,
                  t: float, abs_tol: float | None = None) -> complex:
    """Operator output of the radial witness at distance ``y_abs``, time ``t``.

    Evaluates the double integral

        (2 pi)^-d * int e^{i t tau} phi(tau)
            int rho^{d-2} phi(rho) S(rho |y|)
                / (rho^2 - 1 + eps^2 tau^2 + 2 i eps tau)^k  drho dtau,

    where ``S`` is the Fourier transform of the unit-sphere measure in
    dimension d - 1.  The dual-time integral uses a fixed 64-point rule
    (the integrand is smooth and compactly supported); the radial integral
    is adaptive with panels graded into the eps-scale resonance layer.

    ``abs_tol`` defaults to ``1e-8 * eps**(d/2 - k)``, i.e. 1e-8 relative
    to the natural magnitude scale of the output; it must be finite and > 0.
    """
    if not 0.0 <= y_abs <= 1e4:
        raise ValueError("|y| must lie in [0, 1e4]")
    inner, = _resonant_pairing(d, k, eps, spec, y_abs, t, abs_tol, [
        lambda rho: rho ** (d - 2) * spec.phi(rho)
        * sphere_hat(d - 1, rho * y_abs)], k)
    return complex((2.0 * math.pi) ** -d * inner)


@dataclass(frozen=True)
class JDecomposition:
    """Bessel-term decomposition of the operator output at one point.

    ``terms[l]`` carries the order-``l`` Bessel factor against the level-l
    coefficient table; their sum reproduces ``mtilde_radial`` exactly (the
    constant chain from the k - 1 integrations by parts, ``1/(2^{k-1}
    (k-1)!)``, is folded in, so the fitted consistency constant is 1).
    """

    terms: tuple

    @property
    def total(self) -> complex:
        return complex(sum(self.terms))


def j_decomposition(d: int, k: int, eps: float, spec: Phi5Spec, y_abs: float,
                    t: float, abs_tol: float | None = None) -> JDecomposition:
    """Evaluate every term of the integrated-by-parts form at one point.

    Each term pairs one Bessel base with the first-power kernel on the
    direct route's rules, so the routes are mutual oracles.  Needs
    ``y_abs > 0`` (A9 samples resonant radii); at 0 use `mtilde_radial`.
    """
    if y_abs <= 0.0 or y_abs > 1e4:
        raise ValueError("|y| must lie in (0, 1e4]")
    nu = 0.5 * (d - 3)
    pref = ((2.0 * math.pi) ** -d * (2.0 * math.pi) ** (0.5 * (d - 1))
            / (2.0 ** (k - 1) * math.factorial(k - 1)))
    inners = _resonant_pairing(d, k, eps, spec, y_abs, t, abs_tol, [
        lambda rho, l=l: spec.eval_table(l, rho)
        * bessel_ju(nu + l, rho * y_abs) for l in range(k)], 1)
    return JDecomposition(terms=tuple(
        pref * (-1.0) ** l * y_abs ** (2 * l) * complex(inner)
        for l, inner in enumerate(inners)))


# ---------------------------------------------------------------------------
# The resonant set


def frak_s_sample(params: LowerBoundParams) -> np.ndarray:
    """Centers of the resonant windows inside [c1/eps, c2/eps].

    Returns the radii ``2 pi n + alpha`` that fall in the range; successive
    values differ by exactly 2 pi, and every returned radius satisfies both
    membership conditions.  Raises :class:`EmptyWindowError` when the range
    contains no lattice point.
    """
    lo = params.c1 / params.eps
    hi = params.c2 / params.eps
    alpha = params.alpha
    n_lo = math.ceil((lo - alpha) / (2.0 * math.pi))
    n_hi = math.floor((hi - alpha) / (2.0 * math.pi))
    if n_hi < n_lo:
        raise EmptyWindowError(
            f"no resonant window centers in [{lo:.6g}, {hi:.6g}]: the range "
            f"(length {hi - lo:.3g}) straddles no point of 2*pi*Z + "
            f"{alpha:.6g}; shrink eps")
    return alpha + 2.0 * math.pi * np.arange(n_lo, n_hi + 1)


def in_resonant_set(params: LowerBoundParams, y_abs) -> np.ndarray:
    """Vectorized membership test for the resonant set."""
    y = np.asarray(y_abs, dtype=float)
    lo = params.c1 / params.eps
    hi = params.c2 / params.eps
    dist = np.abs((y - params.alpha + math.pi) % (2.0 * math.pi) - math.pi)
    return (y >= lo) & (y <= hi) & (dist <= params.c0)
